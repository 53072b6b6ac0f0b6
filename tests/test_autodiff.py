"""Gradient and convolution checks against independent oracles.

Convolutions are compared to a six-nested-loop reference and to the
earlier tensordot kernel, and the upsampling convolution to ``conv2d`` of
an ``np.repeat`` upsampling; the ReLUs and the 2x2 ops to their earlier
select, reshape-reduction and repeat forms, bit for bit; every gradient is
compared to central finite differences computed in float64.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import as_strided

from helpers import assert_close_relative
from texsyn import autodiff as ad
from texsyn.autodiff import CHECK_DTYPE, TRAIN_DTYPE, NonFiniteError, ShapeError, Tensor


def conv2d_loops(x, k, bias=None, stride=1, pad=0):
    """Reference cross-correlation, written as explicit loops."""
    n, c, h, w = x.shape
    o, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, o, oh, ow), dtype=x.dtype)
    for b in range(n):
        for f in range(o):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                acc += (
                                    xp[b, ci, i * stride + u, j * stride + v]
                                    * k[f, ci, u, v]
                                )
                    out[b, f, i, j] = acc + (0.0 if bias is None else bias[f])
    return out


def full_conv2d_loops(x, k):
    """Reference transposed convolution: scatter each input pixel."""
    n, i, h, w = x.shape
    _, o, kh, kw = k.shape
    out = np.zeros((n, o, h - 1 + kh, w - 1 + kw), dtype=x.dtype)
    for b in range(n):
        for ci in range(i):
            for f in range(o):
                for y in range(h):
                    for z in range(w):
                        for u in range(kh):
                            for v in range(kw):
                                out[b, f, y + u, z + v] += x[b, ci, y, z] * k[ci, f, u, v]
    return out


def conv2d_tensordot(x, k, g, stride=1, pad=0):
    """The earlier conv2d kernel, kept as an oracle: (output, input grad, kernel grad).

    A 6-D window view meets the kernel in one ``tensordot``; the input
    gradient is one ``tensordot`` and one strided add per kernel tap.
    """
    n, c, h, w = x.shape
    o, _, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    sn, sc, sh, sw = xp.strides
    win = as_strided(
        xp,
        shape=(n, c, oh, ow, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    out = np.tensordot(win, k, axes=([1, 4, 5], [1, 2, 3])).transpose(0, 3, 1, 2)
    gpad = np.zeros_like(xp)
    for u in range(kh):
        for v in range(kw):
            tap = np.tensordot(g, k[:, :, u, v], axes=([1], [0])).transpose(0, 3, 1, 2)
            gpad[:, :, u : u + stride * (oh - 1) + 1 : stride, v : v + stride * (ow - 1) + 1 : stride] += tap
    grad_k = np.tensordot(g, win, axes=([0, 2, 3], [0, 2, 3]))
    return out, gpad[:, :, pad : pad + h, pad : pad + w], grad_k


def conv2d_passes(x, k, g, stride=1, pad=0):
    """conv2d's (output, input grad, kernel grad) for upstream gradient g."""
    xt = Tensor(x, requires_grad=True, dtype=x.dtype)
    kt = Tensor(k, requires_grad=True, dtype=k.dtype)
    y = ad.conv2d(xt, kt, stride=stride, pad=pad)
    grad_x, grad_k = ad.backward(ad.mul(y, Tensor(g, dtype=g.dtype)).sum(), [xt, kt])
    return y.data, grad_x, grad_k


def numeric_grad(fn, arrays, index, h=1e-4):
    """Central finite differences of scalar fn w.r.t. arrays[index]."""
    base = [a.copy() for a in arrays]
    target = base[index]
    grad = np.zeros_like(target)
    flat = target.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = fn(*base)
        flat[i] = keep - h
        lo = fn(*base)
        flat[i] = keep
        gflat[i] = (hi - lo) / (2 * h)
    return grad


def max_rel_err(analytic, numeric):
    return np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric)))


def check_grads(build, arrays, tol=1e-4):
    """build(*tensors) -> scalar Tensor; checks every input's gradient."""
    tensors = [Tensor(a, requires_grad=True, dtype=CHECK_DTYPE) for a in arrays]
    grads = ad.backward(build(*tensors), tensors)

    def value(*arrs):
        consts = [Tensor(a, dtype=CHECK_DTYPE) for a in arrs]
        return float(build(*consts).data)

    for i, grad in enumerate(grads):
        num = numeric_grad(value, [a.astype(np.float64) for a in arrays], i)
        err = max_rel_err(grad, num)
        assert err < tol, f"input {i}: rel err {err:.3e} >= {tol}"


RNG = np.random.default_rng(20260821)


def arr(*shape):
    return RNG.standard_normal(shape)


# ---------------------------------------------------------------------------
# forward oracles


@pytest.mark.parametrize(
    "n,c,o,h,w,kh,kw,stride,pad",
    [
        (1, 1, 1, 5, 5, 3, 3, 1, 0),
        (2, 3, 4, 6, 5, 3, 3, 1, 1),
        (1, 2, 3, 7, 7, 3, 3, 2, 1),
        (2, 2, 2, 8, 8, 4, 4, 2, 0),
        (1, 3, 2, 4, 4, 1, 1, 1, 0),
        (1, 1, 2, 5, 6, 2, 3, 1, 2),
    ],
)
def test_conv2d_matches_loop_oracle(n, c, o, h, w, kh, kw, stride, pad):
    x = arr(n, c, h, w)
    k = arr(o, c, kh, kw)
    b = arr(o)
    got = ad.conv2d(
        Tensor(x, dtype=CHECK_DTYPE),
        Tensor(k, dtype=CHECK_DTYPE),
        Tensor(b, dtype=CHECK_DTYPE),
        stride=stride,
        pad=pad,
    )
    want = conv2d_loops(x, k, b, stride=stride, pad=pad)
    assert got.shape == want.shape
    np.testing.assert_allclose(got.data, want, rtol=1e-10, atol=1e-10)


@st.composite
def conv_shapes(draw, channels=st.integers(1, 3), outputs=st.integers(1, 3)):
    """(x, kernel, output shapes, stride, pad) with the kernel inside the padded input."""
    n, c, o = draw(st.integers(1, 3)), draw(channels), draw(outputs)
    kh, kw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    stride, pad = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    h = draw(st.integers(max(1, kh - 2 * pad), kh + 6))
    w = draw(st.integers(max(1, kw - 2 * pad), kw + 6))
    out = (n, o, (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1)
    return (n, c, h, w), (o, c, kh, kw), out, stride, pad


@given(conv_shapes(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_conv2d_passes_match_oracles(shapes, seed):
    """Forward, input and kernel gradient equal the loop and tensordot oracles."""
    xs, ks, ys, stride, pad = shapes
    g = np.random.default_rng(seed)
    x, k, up = g.standard_normal(xs), g.standard_normal(ks), g.standard_normal(ys)
    got = conv2d_passes(x, k, up, stride=stride, pad=pad)
    want = conv2d_tensordot(x, k, up, stride=stride, pad=pad)
    np.testing.assert_allclose(got[0], conv2d_loops(x, k, stride=stride, pad=pad), rtol=1e-10, atol=1e-10)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-10)


def narrow_conv_shapes():
    """Fewer outputs than inputs, where stride-1 convolutions multiply first."""
    return conv_shapes(channels=st.integers(4, 8), outputs=st.integers(1, 3))


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-10), (np.float32, 1e-5)], ids=["float64", "float32"])
@given(narrow_conv_shapes(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_narrow_conv2d_passes_match_oracles(dtype, tol, shapes, seed):
    """With o < c, all three passes equal the float64 loop and tensordot oracles."""
    xs, ks, ys, stride, pad = shapes
    g = np.random.default_rng(seed)
    x, k, up = (g.standard_normal(s).astype(dtype) for s in (xs, ks, ys))
    got = conv2d_passes(x, k, up, stride=stride, pad=pad)
    wide = [a.astype(np.float64) for a in (x, k, up)]
    want = conv2d_tensordot(*wide, stride=stride, pad=pad)
    loops = conv2d_loops(*wide[:2], stride=stride, pad=pad)
    assert_close_relative(got[0].astype(np.float64), loops, tol)
    for a, b in zip(got, want):
        assert a.dtype == dtype
        assert_close_relative(a.astype(np.float64), b, tol)


@given(
    st.one_of(conv_shapes(), narrow_conv_shapes()),
    st.sampled_from([np.float32, np.float64]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_conv2d_batch_rows_equal_single_sample_calls(shapes, dtype, seed):
    """Row i of a batched forward and input gradient is the N=1 call, bit for bit."""
    xs, ks, ys, stride, pad = shapes
    g = np.random.default_rng(seed)
    x, k, up = (g.standard_normal(s).astype(dtype) for s in (xs, ks, ys))
    out, grad_in, _ = conv2d_passes(x, k, up, stride=stride, pad=pad)
    for i in range(xs[0]):
        one_out, one_grad_in, _ = conv2d_passes(x[i : i + 1], k, up[i : i + 1], stride=stride, pad=pad)
        np.testing.assert_array_equal(out[i : i + 1], one_out)
        np.testing.assert_array_equal(grad_in[i : i + 1], one_grad_in)


def test_conv2d_backward_transient_memory_stays_below_batch_columns():
    """One backward at [4,16,64,64] (3x3, pad 1) never holds the whole batch's columns."""
    g = np.random.default_rng(0)
    x = Tensor(g.standard_normal((4, 16, 64, 64)), requires_grad=True, dtype=TRAIN_DTYPE)
    k = Tensor(0.1 * g.standard_normal((16, 16, 3, 3)), requires_grad=True, dtype=TRAIN_DTYPE)
    b = Tensor(np.zeros(16), requires_grad=True, dtype=TRAIN_DTYPE)
    y = ad.conv2d(x, k, b, pad=1)
    up = np.ones(y.shape, dtype=y.dtype)
    batch_columns = 4 * 16 * 9 * 64 * 64 * y.dtype.itemsize  # [C·kh·kw, N·H·W]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        grads = y._backward(up)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert [gr.shape for gr in grads] == [x.shape, k.shape, b.shape]
    assert peak < batch_columns, f"backward peak {peak / 1e6:.1f} MB"


def test_narrow_conv2d_peaks_below_its_column_matrix():
    """Forward and backward at [1,16,256,256] to 3 channels (3x3, pad 1) peak
    below one [C·kh·kw, H·W] column matrix, 37.7 MB in float32."""
    g = np.random.default_rng(0)
    x = Tensor(g.standard_normal((1, 16, 256, 256)), requires_grad=True, dtype=TRAIN_DTYPE)
    k = Tensor(0.1 * g.standard_normal((3, 16, 3, 3)), requires_grad=True, dtype=TRAIN_DTYPE)
    b = Tensor(np.zeros(3), requires_grad=True, dtype=TRAIN_DTYPE)
    up = np.ones((1, 3, 256, 256), dtype=TRAIN_DTYPE)
    columns = 16 * 9 * 256 * 256 * up.dtype.itemsize
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        y = ad.conv2d(x, k, b, pad=1)
        grads = y._backward(up)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert [gr.shape for gr in grads] == [x.shape, k.shape, b.shape]
    assert peak < columns, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize(
    "n,i,o,kh,kw",
    # ids read n-i-o-h-w-kh-kw-stride; every input is 1x1 at stride 1
    [pytest.param(1, 1, 1, 4, 4, id="1-1-1-1-1-4-4-1"), pytest.param(2, 3, 2, 4, 4, id="2-3-2-1-1-4-4-1")],
)
def test_full_conv2d_matches_loop_oracle(n, i, o, kh, kw):
    x = arr(n, i, 1, 1)
    k = arr(i, o, kh, kw)
    got = ad.full_conv2d(Tensor(x, dtype=CHECK_DTYPE), Tensor(k, dtype=CHECK_DTYPE))
    want = full_conv2d_loops(x, k)
    assert got.shape == want.shape
    np.testing.assert_allclose(got.data, want, rtol=1e-10, atol=1e-10)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_full_conv2d_is_adjoint_of_conv2d(seed):
    """<conv(a; K), b> == <a, full_conv(b; K)> with the same kernel."""
    g = np.random.default_rng(seed)
    n, c, o = 1, int(g.integers(1, 4)), int(g.integers(1, 4))
    kh, kw = int(g.integers(1, 4)), int(g.integers(1, 4))
    a = g.standard_normal((n, c, kh, kw))
    k = g.standard_normal((o, c, kh, kw))  # [in=o, out=c] when read by full_conv2d
    b = g.standard_normal((n, o, 1, 1))
    kt = Tensor(k, dtype=CHECK_DTYPE)
    conv = ad.conv2d(Tensor(a, dtype=CHECK_DTYPE), kt)
    full = ad.full_conv2d(Tensor(b, dtype=CHECK_DTYPE), kt)
    lhs = float((conv.data * b).sum())
    rhs = float((a * full.data).sum())
    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def upsample_conv2d_oracle(x, k, b, g):
    """conv2d of the np.repeat 2x upsampling at pad 1: (output, x, kernel and bias grads)
    for upstream gradient g; the upsampled map's gradient is summed over its 2x2 blocks."""
    dtype = x.dtype
    up = Tensor(x.repeat(2, axis=2).repeat(2, axis=3), requires_grad=True, dtype=dtype)
    kt, bt = (Tensor(a, requires_grad=True, dtype=dtype) for a in (k, b))
    y = ad.conv2d(up, kt, bt, pad=1)
    grad_up, grad_k, grad_b = ad.backward(ad.mul(y, Tensor(g, dtype=dtype)).sum(), [up, kt, bt])
    n, c, h, w = x.shape
    return y.data, grad_up.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)), grad_k, grad_b


def upsample_conv2d_passes(x, k, b, g):
    xt, kt, bt = (Tensor(a, requires_grad=True, dtype=a.dtype) for a in (x, k, b))
    y = ad.upsample_conv2d(xt, kt, bt)
    return (y.data, *ad.backward(ad.mul(y, Tensor(g, dtype=g.dtype)).sum(), [xt, kt, bt]))


@st.composite
def upsample_conv_arrays(draw, dtype):
    """(x [N,C,h,w], kernel [O,C,3,3], bias [O], upstream gradient [N,O,2h,2w])."""
    n, c, o = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = ((n, c, h, w), (o, c, 3, 3), (o,), (n, o, 2 * h, 2 * w))
    return tuple(g.standard_normal(s).astype(dtype) for s in shapes)


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-10), (np.float32, 1e-5)], ids=["float64", "float32"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_upsample_conv2d_equals_conv2d_of_repeat_upsampling(dtype, tol, data):
    """Forward and the x, kernel and bias gradients equal the upsample-then-convolve oracle."""
    x, k, b, g = data.draw(upsample_conv_arrays(dtype))
    for got, want in zip(upsample_conv2d_passes(x, k, b, g), upsample_conv2d_oracle(x, k, b, g)):
        assert_close_relative(got, want, tol)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_upsample_conv2d_batch_rows_equal_single_sample_calls(dtype, data):
    """Row i of a batched forward and input gradient is the N=1 call, bit for bit."""
    x, k, b, g = data.draw(upsample_conv_arrays(dtype))
    out, grad_x, _, _ = upsample_conv2d_passes(x, k, b, g)
    for i in range(x.shape[0]):
        one_out, one_grad_x, _, _ = upsample_conv2d_passes(x[i : i + 1], k, b, g[i : i + 1])
        np.testing.assert_array_equal(out[i : i + 1], one_out)
        np.testing.assert_array_equal(grad_x[i : i + 1], one_grad_x)


def test_upsample_conv2d_rejects_other_kernels_and_biases():
    x = Tensor(np.ones((1, 2, 3, 3)))
    for shape in [(4, 2, 2, 2), (4, 2, 3, 1), (4, 2, 5, 5), (4, 2, 9)]:
        with pytest.raises(ShapeError, match="3x3 kernel"):
            ad.upsample_conv2d(x, Tensor(np.ones(shape)), Tensor(np.ones(4)))
    with pytest.raises(ShapeError, match="bias"):
        ad.upsample_conv2d(x, Tensor(np.ones((4, 2, 3, 3))), Tensor(np.ones(3)))
    with pytest.raises(ShapeError, match="input channels"):
        ad.upsample_conv2d(x, Tensor(np.ones((4, 3, 3, 3))), Tensor(np.ones(4)))


def test_slice_channels_forward_and_shape_errors():
    x = arr(2, 5, 3)
    np.testing.assert_array_equal(ad.slice_channels(Tensor(x, dtype=CHECK_DTYPE), 1, 4).data, x[:, 1:4])
    for start, stop in [(0, 0), (3, 2), (-1, 2), (0, 6)]:
        with pytest.raises(ShapeError, match="slice_channels"):
            ad.slice_channels(Tensor(x), start, stop)
    with pytest.raises(ShapeError, match="slice_channels"):
        ad.slice_channels(Tensor(np.ones(4)), 0, 1)


def test_avg_pool2_forward():
    x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
    out = ad.avg_pool2(Tensor(x, dtype=CHECK_DTYPE))
    want = np.array([[2.5, 4.5], [10.5, 12.5]])
    np.testing.assert_array_equal(out.data[0, 0], want)


# The select, reshape-reduction and repeat forms these ops had before they
# became ufuncs and strided slices: forward of x, input gradient of x and g.
def blocks(x):
    n, c, h, w = x.shape
    return x.reshape(n, c, h // 2, 2, w // 2, 2)


def repeat2(x):
    return x.repeat(2, axis=2).repeat(2, axis=3)


ORACLES = {
    ad.relu: (lambda x: np.where(x > 0, x, x.dtype.type(0)), lambda x, g: g * (x > 0)),
    ad.leaky_relu: (
        lambda x: np.where(x >= 0, x, x * x.dtype.type(0.2)),
        lambda x, g: np.where(x >= 0, g, g * x.dtype.type(0.2)),
    ),
    ad.avg_pool2: (
        lambda x: blocks(x).mean(axis=(3, 5)),
        lambda x, g: repeat2(g * x.dtype.type(0.25)),
    ),
}


def edge_values(dtype):
    """Signed zeros, the smallest and largest subnormals, a sum tie and plain values."""
    f = np.finfo(dtype)
    tiny, normal = float(f.smallest_subnormal), float(f.smallest_normal)
    eps, slope = float(f.eps), float(f.dtype.type(0.2))
    values = [0.0, tiny, normal - tiny, normal, eps / 2, 1.0, 1.0 + eps, slope, 3.0]
    return values + [-v for v in values]


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def check_against_oracle(op, x, g):
    forward, backward = ORACLES[op]
    y = op(Tensor(x, requires_grad=True, dtype=x.dtype))
    assert_same_bits(y.data, forward(x))
    assert_same_bits(y._backward(g)[0], backward(x, g))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", list(ORACLES), ids=lambda op: op.__name__)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_elementwise_and_block_ops_equal_their_select_and_reduce_forms(op, dtype, data):
    """Forward and input gradient equal the old formulations bit for bit, signed zeros included."""
    elements = st.one_of(
        st.sampled_from(edge_values(dtype)),
        st.floats(-(2.0**100), 2.0**100, width=np.dtype(dtype).itemsize * 8),
    )
    n, c = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    if op is ad.avg_pool2:
        h, w = 2 * data.draw(st.integers(1, 4)), 2 * data.draw(st.integers(1, 4))
    else:
        h, w = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
    x = data.draw(arrays(dtype, (n, c, h, w), elements=elements))
    g = data.draw(arrays(dtype, ORACLES[op][0](x).shape, elements=elements))
    check_against_oracle(op, x, g)


@pytest.mark.parametrize("w", [1, 3])
@pytest.mark.parametrize("op", [ad.avg_pool2], ids=lambda op: op.__name__)
def test_block_ops_on_negative_zeros_keep_numpys_signs(op, w):
    """numpy's 2x2 reduction turns a block of -0.0 into +0.0, at W = 1 and at wider W alike."""
    x = np.full((2, 3, 4, 2 * w), -0.0)
    g = np.full(ORACLES[op][0](x).shape, -0.0)
    check_against_oracle(op, x, g)


@pytest.mark.parametrize("dtype", [TRAIN_DTYPE, CHECK_DTYPE])
def test_relu_of_negative_zero_is_positive_zero(dtype):
    # np.maximum(0, x) would return -0.0: the operand order decides
    y = ad.relu(Tensor(np.array([-0.0, 0.0]), dtype=dtype)).data
    assert list(np.signbit(y)) == [False, False]


@pytest.mark.parametrize("dtype", [TRAIN_DTYPE, CHECK_DTYPE])
def test_leaky_relu_of_negative_zero_stays_negative_zero(dtype):
    y = ad.leaky_relu(Tensor(np.array([-0.0, 0.0]), dtype=dtype)).data
    assert list(np.signbit(y)) == [True, False]


# ---------------------------------------------------------------------------
# gradient checks, one primitive at a time


def test_grad_add_sub_mul():
    a, b = arr(3, 4), arr(3, 4)
    check_grads(lambda x, y: ad.add(x, y).sum(), [a, b])
    check_grads(lambda x, y: ad.sub(x, y).sum(), [a, b])
    check_grads(lambda x, y: ad.mul(x, y).sum(), [a, b])


def test_grad_scale_relu_leaky_tanh():
    a = arr(4, 5) + 0.05  # keep entries away from the relu kink
    check_grads(lambda x: ad.scale(x, -2.5).sum(), [a])
    check_grads(lambda x: ad.relu(x).sum(), [a])
    check_grads(lambda x: ad.leaky_relu(x).sum(), [a])
    check_grads(lambda x: ad.tanh(x).sum(), [a])


def test_grad_reshape_mean_l1():
    a = arr(3, 4) + 0.05
    check_grads(lambda x: ad.reshape(x, (2, 6)).sum(), [a])
    check_grads(lambda x: ad.scale(x.sum(), 1.0 / x.size), [a])
    check_grads(lambda x: ad.l1_norm(x), [a])


def test_grad_outer_matmul():
    # the generator's seed maps: an outer product as a matmul of reshapes
    check_grads(
        lambda x, y: ad.matmul(ad.reshape(x, (3, 1)), ad.reshape(y, (1, 5))).sum(),
        [arr(3), arr(5)],
    )
    check_grads(lambda x, y: ad.matmul(x, y).sum(), [arr(3, 4), arr(4, 2)])


def test_batch_ops_match_numpy_oracles():
    x = arr(3, 2, 4)
    rows = [2, 0, 2]
    gram = ad.batch_gram(Tensor(x, dtype=CHECK_DTYPE)).data
    for i in range(3):
        np.testing.assert_allclose(gram[i], x[i] @ x[i].T, rtol=1e-12)
    centered = ad.center(Tensor(x, dtype=CHECK_DTYPE)).data
    for i in range(3):
        np.testing.assert_allclose(centered[i], x[i] - x[i].mean(), atol=1e-12)
    np.testing.assert_array_equal(ad.take_rows(Tensor(x, dtype=CHECK_DTYPE), rows).data, x[rows])
    np.testing.assert_array_equal(
        ad.repeat_batch(Tensor(x[:1], dtype=CHECK_DTYPE), 4).data, np.concatenate([x[:1]] * 4)
    )


def test_grad_batch_ops():
    w, v = arr(4, 3, 2), Tensor(arr(4, 3, 3), dtype=CHECK_DTYPE)
    check_grads(lambda x: ad.mul(ad.repeat_batch(x, 4), Tensor(w, dtype=CHECK_DTYPE)).sum(), [arr(1, 3, 2)])
    # a repeated row gathers the adjoints of both of its copies
    check_grads(lambda x: ad.mul(ad.take_rows(x, [1, 1, 0, 2]), Tensor(w, dtype=CHECK_DTYPE)).sum(), [arr(3, 3, 2)])
    check_grads(lambda x: ad.mul(ad.center(x), Tensor(w, dtype=CHECK_DTYPE)).sum(), [arr(4, 3, 2)])
    check_grads(lambda x: ad.mul(ad.batch_gram(x), v).sum(), [w])


def test_batch_op_shape_errors():
    with pytest.raises(ShapeError):
        ad.repeat_batch(Tensor(np.ones((2, 3))), 2)
    with pytest.raises(ShapeError):
        ad.take_rows(Tensor(np.ones((2, 3))), [0, 2])
    with pytest.raises(ShapeError):
        ad.batch_gram(Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeError):
        ad.center(Tensor(np.ones(3)))


def test_grad_slice_pool():
    w = Tensor(arr(2, 2, 3, 3), dtype=CHECK_DTYPE)
    check_grads(lambda x: ad.mul(ad.slice_channels(x, 1, 3), w).sum(), [arr(2, 4, 3, 3)])
    check_grads(lambda x: ad.avg_pool2(x).sum(), [arr(1, 2, 4, 4)])


@pytest.mark.parametrize(
    "stride,pad,size",
    [
        pytest.param(1, 0, 5, id="1-0"),
        pytest.param(1, 1, 5, id="1-1"),
        pytest.param(2, 1, 5, id="2-1"),
        # 6 pads to 8; the last stride-2 window ends on row 6, so row 7 is unreached
        pytest.param(2, 1, 6, id="2-1-6x6"),
    ],
)
def test_grad_conv2d(stride, pad, size):
    x, k, b = arr(2, 2, size, size), arr(3, 2, 3, 3), arr(3)
    check_grads(
        lambda xx, kk, bb: ad.conv2d(xx, kk, bb, stride=stride, pad=pad).sum(),
        [x, k, b],
    )


@pytest.mark.parametrize("n,c,o,h,w", [(1, 1, 1, 1, 1), (2, 2, 3, 3, 2), (1, 3, 2, 2, 4)])
def test_grad_upsample_conv2d(n, c, o, h, w):
    # weighted, so every output phase carries its own adjoint
    weights = Tensor(arr(n, o, 2 * h, 2 * w), dtype=CHECK_DTYPE)
    check_grads(
        lambda xx, kk, bb: ad.mul(ad.upsample_conv2d(xx, kk, bb), weights).sum(),
        [arr(n, c, h, w), arr(o, c, 3, 3), arr(o)],
    )


@pytest.mark.parametrize("n,i,o", [(1, 1, 1), (2, 2, 2), (3, 3, 1)])
def test_grad_full_conv2d(n, i, o):
    x, k = arr(n, i, 1, 1), arr(i, o, 4, 4)
    check_grads(lambda xx, kk: ad.full_conv2d(xx, kk).sum(), [x, k])


def test_grad_composite_chain():
    """A generator-shaped composite: deconv, upsampling conv, nonlinearity."""
    x = arr(1, 2, 1, 1)
    k1 = arr(2, 3, 4, 4) * 0.5
    k2 = arr(2, 3, 3, 3) * 0.5
    b2 = arr(2) * 0.5

    def build(xx, kk1, kk2, bb2):
        y = ad.full_conv2d(xx, kk1)
        y = ad.upsample_conv2d(y, kk2, bb2)
        y = ad.leaky_relu(y)
        return ad.scale(ad.tanh(y).sum(), 1.0 / y.size)

    check_grads(build, [x, k1, k2, b2], tol=1e-3)


# ---------------------------------------------------------------------------
# graph mechanics


def test_backward_calls_return_equal_independent_arrays():
    a = Tensor(np.ones((2, 2)), requires_grad=True, dtype=CHECK_DTYPE)
    loss = ad.scale(a, 3.0).sum()
    (first,) = ad.backward(loss, [a])
    (second,) = ad.backward(loss, [a])
    np.testing.assert_array_equal(first, np.full((2, 2), 3.0))
    np.testing.assert_array_equal(second, np.full((2, 2), 3.0))
    assert not np.shares_memory(first, second)
    first += 1.0
    np.testing.assert_array_equal(second, np.full((2, 2), 3.0))


def test_backward_rejects_operation_results():
    # an operation result's adjoint is dropped once it reaches the parents
    a = Tensor(np.ones((2, 2)), requires_grad=True, dtype=CHECK_DTYPE)
    y = ad.scale(a, 3.0)
    with pytest.raises(ValueError, match="operation result"):
        ad.backward(y.sum(), [a, y])


def test_backward_gives_each_leaf_its_own_writable_array():
    # add hands one adjoint to both parents, and sum a read-only broadcast view
    a = Tensor(np.ones((2, 3)), requires_grad=True, dtype=CHECK_DTYPE)
    b = Tensor(np.ones((2, 3)), requires_grad=True, dtype=CHECK_DTYPE)
    ga, gb = ad.backward(ad.add(a, b).sum(), [a, b])
    assert ga.flags.writeable and gb.flags.writeable
    assert not np.shares_memory(ga, gb)
    ga += 1.0
    np.testing.assert_array_equal(gb, np.ones((2, 3)))


def test_backward_gives_unreached_leaves_zeros():
    a = Tensor(np.full((2,), 2.0), requires_grad=True, dtype=CHECK_DTYPE)
    unused = Tensor(np.ones((3, 2)), requires_grad=True, dtype=CHECK_DTYPE)
    constant = Tensor(np.ones((2,)), dtype=CHECK_DTYPE)
    ga, g_unused, g_constant = ad.backward(ad.mul(a, constant).sum(), [a, unused, constant])
    np.testing.assert_array_equal(ga, np.ones((2,)))
    np.testing.assert_array_equal(g_unused, np.zeros((3, 2)))
    np.testing.assert_array_equal(g_constant, np.zeros((2,)))
    assert g_unused.dtype == CHECK_DTYPE


def test_backward_handles_shared_subgraph():
    a = Tensor(np.full((3,), 2.0), requires_grad=True, dtype=CHECK_DTYPE)
    b = ad.mul(a, a)  # a appears twice as a parent
    (ga,) = ad.backward(b.sum(), [a])
    np.testing.assert_allclose(ga, np.full((3,), 4.0))


def test_backward_diamond_graph():
    a = Tensor(np.array([1.5]), requires_grad=True, dtype=CHECK_DTYPE)
    u = ad.scale(a, 2.0)
    v = ad.scale(a, 3.0)
    (ga,) = ad.backward(ad.add(u, v).sum(), [a])
    np.testing.assert_allclose(ga, np.array([5.0]))


def test_backward_deep_chain_no_recursion_limit():
    x = Tensor(np.array([0.5]), requires_grad=True, dtype=CHECK_DTYPE)
    y = x
    for _ in range(5000):
        y = ad.scale(y, 1.0)
    (gx,) = ad.backward(y.sum(), [x])
    np.testing.assert_allclose(gx, np.array([1.0]))


def test_detach_blocks_gradient():
    a = Tensor(np.ones((2,)), requires_grad=True, dtype=CHECK_DTYPE)
    frozen = Tensor(ad.scale(a, 2.0).data)
    (ga,) = ad.backward(ad.mul(frozen, a).sum(), [a])
    np.testing.assert_allclose(ga, np.full((2,), 2.0))


def test_requires_grad_propagates():
    a = Tensor(np.ones((2,)), requires_grad=True)
    b = Tensor(np.ones((2,)))
    out = ad.add(a, b)
    assert out.requires_grad
    out2 = ad.add(b, b)
    assert not out2.requires_grad


def test_backward_requires_scalar():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        ad.backward(ad.add(a, a), [a])


# ---------------------------------------------------------------------------
# error contracts


def test_shape_errors():
    a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))
    with pytest.raises(ShapeError):
        ad.add(a, b)
    with pytest.raises(ShapeError):
        ad.mul(a, b)
    for one in (Tensor(np.ones(1)), Tensor(np.ones(()))):  # no scalar broadcasting
        with pytest.raises(ShapeError):
            ad.add(a, one)
        with pytest.raises(ShapeError):
            ad.mul(one, a)
    with pytest.raises(ShapeError):
        ad.matmul(a, a)
    with pytest.raises(ShapeError):
        ad.reshape(a, (4, 4))
    with pytest.raises(ShapeError):
        ad.conv2d(Tensor(np.ones((1, 2, 4, 4))), Tensor(np.ones((1, 3, 3, 3))))
    with pytest.raises(ShapeError):
        ad.conv2d(Tensor(np.ones((1, 1, 2, 2))), Tensor(np.ones((1, 1, 3, 3))))
    with pytest.raises(ShapeError):
        ad.avg_pool2(Tensor(np.ones((1, 1, 3, 4))))
    with pytest.raises(ShapeError, match="1x1"):
        ad.full_conv2d(Tensor(np.ones((1, 2, 2, 2))), Tensor(np.ones((2, 3, 4, 4))))


def test_mixed_precision_rejected():
    a = Tensor(np.ones((2,)), dtype=np.float32)
    b = Tensor(np.ones((2,)), dtype=np.float64)
    with pytest.raises(ShapeError):
        ad.add(a, b)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_inputs_rejected():
    with pytest.raises(NonFiniteError):
        Tensor(np.array([1.0, np.nan]))
    with pytest.raises(NonFiniteError):
        Tensor(np.array([np.inf]))
    big = Tensor(np.array([3.0e38], dtype=np.float32))
    with pytest.raises(NonFiniteError):
        ad.add(big, big)  # overflows float32 to inf
    with pytest.raises(NonFiniteError):
        ad.scale(Tensor(np.ones(2)), float("nan"))


def test_error_messages_name_the_op_and_shapes():
    try:
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    except ShapeError as e:
        msg = str(e)
        assert "matmul" in msg and "(2, 3)" in msg
    else:
        pytest.fail("expected ShapeError")


# ---------------------------------------------------------------------------
# property tests


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_linearity_of_conv(seed):
    g = np.random.default_rng(seed)
    x1 = g.standard_normal((1, 2, 5, 5))
    x2 = g.standard_normal((1, 2, 5, 5))
    k = g.standard_normal((3, 2, 3, 3))
    kt = Tensor(k, dtype=CHECK_DTYPE)
    lhs = ad.conv2d(Tensor(x1 + x2, dtype=CHECK_DTYPE), kt)
    rhs = ad.conv2d(Tensor(x1, dtype=CHECK_DTYPE), kt).data + ad.conv2d(
        Tensor(x2, dtype=CHECK_DTYPE), kt
    ).data
    np.testing.assert_allclose(lhs.data, rhs, rtol=1e-9, atol=1e-9)
