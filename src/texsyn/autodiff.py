"""Dense tensors and reverse-mode automatic differentiation.

The engine is deliberately small.  A :class:`Tensor` wraps a numpy array;
every operation builds a define-by-run graph (the graph doubles as the tape
and is rebuilt on each forward pass), and :func:`backward` replays it in
reverse topological order and returns the gradients of the leaves it is
asked for.  No tensor stores a gradient.

Two float widths exist.  Training code runs in float32 for speed; gradient
checks build their graphs in float64, because central finite differences are
unreliable in single precision.  Operations never mix widths: all operands of
one op must share a dtype.

Every public operation validates that its result is finite and raises
:class:`NonFiniteError` otherwise, so NaN/Inf can never propagate silently.

The elementwise and 2x2 ops use arithmetic ufuncs and strided slices,
never a data-dependent select (``np.where``, boolean indexing) or a 6-D
reshape reduction.  On a 2-core Xeon, at [4,16,64,64] float32 random
noise, those forms took 1.8-3.2 ms against 0.08-0.26 ms for these, about
10x or more.  A select's cost depends on the data, so size such gains
with ``bench/run.py``, not with random arrays.

Nearest 2x upsampling followed by a 3x3 convolution (pad 1) runs at the
source resolution, as :func:`upsample_conv2d`.  Output row ``2i + a`` of
the upsampled map's convolution reads upsampled rows ``2i + a - 1`` to
``2i + a + 1``, which are source rows ``i - 1, i, i`` for ``a = 0`` and
``i, i, i + 1`` for ``a = 1``.  So each output phase (a, b) is a 2x2
correlation of the source map, whose taps are sums of the 3x3 taps that
read the same source pixel: 4 multiply-adds per output value instead of
9, and no upsampled map is ever stored.

A convolution copies its narrower side once per kernel tap.  Most layers
widen or keep their channel count, so :func:`conv2d` copies input windows
into a column matrix (im2col).  A stride-1 convolution with fewer outputs
than inputs, such as the 16-to-3 ``rgb`` layers, multiplies the whole
padded map by every tap first and then adds the shifted O-channel results
(kn2row; Anderson et al., arXiv:1709.03395).  The rule reads only the
shapes; no option selects it.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

TRAIN_DTYPE = np.dtype(np.float32)
CHECK_DTYPE = np.dtype(np.float64)


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf."""


def _check_finite(array: np.ndarray, op: str) -> None:
    if array.size and not np.isfinite(array).all():
        raise NonFiniteError(f"non-finite values in output of '{op}'")


class Tensor:
    """A dense float array enrolled in a differentiation graph.

    ``data`` holds the value.  Leaves are constructed directly; operation
    results additionally carry their parent nodes and a closure computing
    the parents' adjoints.  ``requires_grad`` marks leaves that gradients
    may be taken for; it propagates automatically to operation results.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_backward", "_op")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        dtype=None,
        _parents: tuple = (),
        _backward=None,
        _op: str = "leaf",
    ):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (TRAIN_DTYPE, CHECK_DTYPE):
            arr = arr.astype(TRAIN_DTYPE)
        _check_finite(arr, _op)
        self.data = arr
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward
        self._op = _op

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def sum(self) -> "Tensor":
        out_data = self.data.sum()
        shape, dtype = self.shape, self.dtype

        def grad_fn(g):
            return (np.broadcast_to(g, shape).astype(dtype, copy=False),)

        return _result(out_data, (self,), grad_fn, "sum")

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.dtype.name}, op={self._op!r})"


def _result(data: np.ndarray, parents: tuple, grad_fn, op: str) -> Tensor:
    needs = any(p.requires_grad for p in parents)
    return Tensor(
        data,
        requires_grad=needs,
        dtype=data.dtype,
        _parents=parents if needs else (),
        _backward=grad_fn if needs else None,
        _op=op,
    )


def _same_dtype(op: str, *tensors: Tensor):
    dtype = tensors[0].dtype
    for t in tensors[1:]:
        if t.dtype != dtype:
            raise ShapeError(
                f"{op}: mixed dtypes {dtype.name} and {t.dtype.name}; "
                "build the whole graph in one precision"
            )
    return dtype


def _toposort(root: Tensor) -> list:
    order: list[Tensor] = []
    seen = {id(root)}
    stack: list[tuple[Tensor, int]] = [(root, 0)]
    while stack:
        node, idx = stack.pop()
        parents = node._parents
        while idx < len(parents) and (
            id(parents[idx]) in seen or not parents[idx].requires_grad
        ):
            idx += 1
        if idx < len(parents):
            stack.append((node, idx + 1))
            child = parents[idx]
            seen.add(id(child))
            stack.append((child, 0))
        else:
            order.append(node)
    return order


def backward(loss: Tensor, leaves) -> list:
    """The gradient of ``loss`` with respect to each of ``leaves``, in order.

    ``loss`` must be scalar (shape () or (1,)).  Each gradient is a new
    writable array of its leaf's shape; a leaf that ``loss`` does not reach
    gets zeros.  Adjoints are dropped once they have reached their parents,
    so asking for an operation result that requires gradients raises
    ValueError.
    """
    if loss.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    leaves = list(leaves)
    for t in leaves:
        if t._backward is not None:
            raise ValueError(f"backward: {t!r} is an operation result, not a leaf")
    wanted = {id(t) for t in leaves}
    found: dict[int, np.ndarray] = {}
    order = _toposort(loss) if loss.requires_grad else []
    adjoint: dict[int, np.ndarray] = {
        id(loss): np.ones(loss.shape, dtype=loss.dtype)
    }
    for node in reversed(order):
        g = adjoint.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if id(node) in wanted:
                found[id(node)] = g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in adjoint:
                adjoint[key] = adjoint[key] + pg
            else:
                adjoint[key] = pg
    # copies: add hands one array to both parents, sum a read-only broadcast view
    return [found[id(t)].copy() if id(t) in found else np.zeros_like(t.data) for t in leaves]


# ---------------------------------------------------------------------------
# elementwise and reduction primitives


def _same_shape(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not match")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype("add", a, b)
    _same_shape("add", a, b)

    def grad_fn(g):
        return g, g

    return _result(a.data + b.data, (a, b), grad_fn, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype("sub", a, b)
    _same_shape("sub", a, b)

    def grad_fn(g):
        return g, -g

    return _result(a.data - b.data, (a, b), grad_fn, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype("mul", a, b)
    _same_shape("mul", a, b)

    def grad_fn(g):
        return g * b.data, g * a.data

    return _result(a.data * b.data, (a, b), grad_fn, "mul")


def scale(x: Tensor, factor: float) -> Tensor:
    factor = float(factor)
    if not np.isfinite(factor):
        raise NonFiniteError("scale: factor is not finite")
    s = x.dtype.type(factor)

    def grad_fn(g):
        return (g * s,)

    return _result(x.data * s, (x,), grad_fn, "scale")


def relu(x: Tensor) -> Tensor:
    def grad_fn(g):
        return (g * (x.data > 0),)

    # x first: np.maximum(-0.0, 0) is +0.0, np.maximum(0, -0.0) is -0.0
    return _result(np.maximum(x.data, 0), (x,), grad_fn, "relu")


def leaky_relu(x: Tensor) -> Tensor:
    """Leaky ReLU with the networks' negative slope, 0.2."""
    s = x.dtype.type(0.2)

    def grad_fn(g):
        # the slope factor 1 or s, exactly: mask·(1 - s) + s
        factor = (x.data >= 0).astype(g.dtype)
        factor *= 1 - s
        factor += s
        factor *= g
        return (factor,)

    return _result(np.maximum(x.data, x.data * s), (x,), grad_fn, "leaky_relu")


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def grad_fn(g):
        return (g * (1 - y * y),)

    return _result(y, (x,), grad_fn, "tanh")


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    in_shape = x.shape

    def grad_fn(g):
        return (g.reshape(in_shape),)

    return _result(x.data.reshape(shape), (x,), grad_fn, "reshape")


def l1_norm(x: Tensor) -> Tensor:
    """Sum of absolute values; the subgradient at 0 is taken as 0."""
    sign = np.sign(x.data)

    def grad_fn(g):
        return (g * sign,)

    return _result(np.abs(x.data).sum(), (x,), grad_fn, "l1_norm")


# ---------------------------------------------------------------------------
# structural primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype("matmul", a, b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: expected rank-2 operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")

    def grad_fn(g):
        return g @ b.data.T, a.data.T @ g

    return _result(a.data @ b.data, (a, b), grad_fn, "matmul")


def repeat_batch(x: Tensor, n: int) -> Tensor:
    """Repeat a batch of one [1,...] n times along axis 0; backward sums the copies."""
    if x.data.ndim < 1 or x.shape[0] != 1:
        raise ShapeError(f"repeat_batch: expected a leading axis of 1, got shape {x.shape}")
    if int(n) < 1:
        raise ShapeError(f"repeat_batch: count must be >= 1, got {n}")

    def grad_fn(g):
        return (g.sum(axis=0, keepdims=True),)

    return _result(np.repeat(x.data, int(n), axis=0), (x,), grad_fn, "repeat_batch")


def take_rows(x: Tensor, index) -> Tensor:
    """Rows ``x[index]`` along axis 0; backward scatter-adds into the picked rows."""
    index = np.asarray(index, dtype=np.intp)
    if x.data.ndim < 1 or index.ndim != 1:
        raise ShapeError(f"take_rows: need a batch axis and a 1-D index, got {x.shape} and {index.shape}")
    if index.size and (index.min() < 0 or index.max() >= x.shape[0]):
        raise ShapeError(f"take_rows: index out of range for {x.shape[0]} rows")
    shape = x.shape

    def grad_fn(g):
        out = np.zeros(shape, dtype=g.dtype)
        np.add.at(out, index, g)
        return (out,)

    return _result(x.data[index], (x,), grad_fn, "take_rows")


def center(x: Tensor) -> Tensor:
    """Each sample of [N,...] minus its own mean over all of its entries."""
    if x.data.ndim < 2:
        raise ShapeError(f"center: expected a batch axis and sample axes, got shape {x.shape}")
    axes = tuple(range(1, x.data.ndim))

    def grad_fn(g):
        return (g - g.mean(axis=axes, keepdims=True),)

    return _result(x.data - x.data.mean(axis=axes, keepdims=True), (x,), grad_fn, "center")


def batch_gram(x: Tensor) -> Tensor:
    """x @ xᵀ per sample: [N,C,P] -> [N,C,C]."""
    if x.data.ndim != 3:
        raise ShapeError(f"batch_gram: expected rank 3, got shape {x.shape}")

    def grad_fn(g):
        return ((g + g.transpose(0, 2, 1)) @ x.data,)

    return _result(x.data @ x.data.transpose(0, 2, 1), (x,), grad_fn, "batch_gram")


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    """Channels ``start:stop`` of [N,C,...]; backward places g there among zeros."""
    start, stop = int(start), int(stop)
    if x.data.ndim < 2 or not 0 <= start < stop <= x.shape[1]:
        raise ShapeError(f"slice_channels: cannot take channels {start}:{stop} of shape {x.shape}")
    shape = x.shape

    def grad_fn(g):
        out = np.zeros(shape, dtype=g.dtype)
        out[:, start:stop] = g
        return (out,)

    return _result(x.data[:, start:stop], (x,), grad_fn, "slice_channels")


def _block_fill(x: np.ndarray) -> np.ndarray:
    """[N,C,H,W] -> [N,C,2H,2W], each value copied into its 2x2 block."""
    n, c, h, w = x.shape
    out = np.empty((n, c, 2 * h, 2 * w), dtype=x.dtype)
    for i in (0, 1):
        for j in (0, 1):
            out[:, :, i::2, j::2] = x
    return out


def _block_sum(x: np.ndarray) -> np.ndarray:
    """[N,C,2H,2W] -> [N,C,H,W], the sum of each 2x2 block.

    Bit for bit ``x.reshape(N, C, H, 2, W, 2).sum(axis=(3, 5))``: numpy
    adds a block's two row sums, (a00 + a01) + (a10 + a11), except that at
    W = 1 it adds the four values in turn; and it starts from +0.0, so a
    block of -0.0 sums to +0.0.
    """
    a00, a01 = x[:, :, 0::2, 0::2], x[:, :, 0::2, 1::2]
    a10, a11 = x[:, :, 1::2, 0::2], x[:, :, 1::2, 1::2]
    out = a00 + a01
    if x.shape[3] == 2:
        out += a10
        out += a11
    else:
        out += a10 + a11
    out += 0
    return out


def avg_pool2(x: Tensor) -> Tensor:
    """2x2 average pooling with stride 2."""
    if x.data.ndim != 4:
        raise ShapeError(f"avg_pool2: expected rank 4, got shape {x.shape}")
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ShapeError(f"avg_pool2: spatial size {h}x{w} is not even")
    quarter = x.dtype.type(0.25)

    def grad_fn(g):
        return (_block_fill(g * quarter),)

    out = _block_sum(x.data)
    out *= quarter
    return _result(out, (x,), grad_fn, "avg_pool2")


# ---------------------------------------------------------------------------
# convolutions


def _columns(x: np.ndarray, kh: int, kw: int, stride: int, out: np.ndarray) -> np.ndarray:
    """Copy the windows of one sample x [C,H,W] into out [C·kh·kw, H'·W'].

    Rows run channel-major, (C, kh, kw); columns are the output positions
    (H', W') in row order, so the copy's inner loop walks rows of ``x``.
    """
    c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    sc, sh, sw = x.strides
    win = as_strided(
        x,
        shape=(c, kh, kw, oh, ow),
        strides=(sc, sh, sw, sh * stride, sw * stride),
        writeable=False,
    )
    np.copyto(out.reshape(c, kh, kw, oh, ow), win)
    return out


def conv2d(
    input: Tensor,
    kernel: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    pad: int = 0,
) -> Tensor:
    """Cross-correlation of [N,C,H,W] with kernel [O,C,kh,kw] plus bias [O].

    By default every pass is one GEMM per sample over a column matrix built
    by ``_columns``: rows (C, kh, kw) channel-major, columns the H'·W' output
    positions.  The forward multiplies ``kernel`` as [O, C·kh·kw] into the
    sample's row of the output; the kernel gradient accumulates ``g[i]`` as
    [O, H'·W'] times the columns' transpose; the input gradient correlates
    ``g[i]``, zero-dilated by the stride and padded by kh-1 rows and kw-1
    columns, at stride 1 with the flipped kernel as [C, O·kh·kw].  Columns
    are built per sample, into one buffer per pass, and never cached:
    backward rebuilds them.

    With fewer outputs than inputs (``o < c``) at stride 1, the forward and
    the kernel gradient replicate the output side instead (kn2row: multiply
    first, then shift).  The forward multiplies the taps as [kh·kw·O, C]
    by the padded sample [C, Hp·Wp] and adds the kh·kw shifted O-channel
    windows of the product, from tap (0, 0) in row-major order, then the
    bias.  The kernel gradient places ``g`` at every tap's shift in a zeroed
    [kh·kw·O, N·Hp·Wp] buffer and takes one product with the padded input
    on the left, [C, N·Hp·Wp] times the buffer's transpose; the padded
    input is stored channel-major over the batch so that operand is a view.
    The mirrored product, [kh·kw·O, P] times [P, C], rounds differently at
    one and two BLAS threads in OpenBLAS 0.3.31 (at P = 4,356 and more with
    O=3, C=16), and the texture trainer's bytes would then depend on the
    thread count.  The input gradient keeps its column path, whose columns
    already come from ``g``.  Both ``rgb`` layers (16 to 3 channels) take
    this path.  At [4,16,64,64] float32, on a shared 2-core Xeon with one
    BLAS thread, the forward took 0.9 ms against 4.0 ms by columns; at
    [1,16,256,256], 5.8 ms against 34 ms, with a 7 MB product buffer in
    place of a 38 MB column matrix.
    """
    operands = (input, kernel) if bias is None else (input, kernel, bias)
    _same_dtype("conv2d", *operands)
    if input.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError(
            f"conv2d: expected rank-4 input and kernel, got {input.shape} and {kernel.shape}"
        )
    n, c, h, w = input.shape
    o, ck, kh, kw = kernel.shape
    if ck != c:
        raise ShapeError(
            f"conv2d: kernel expects {ck} input channels but input has {c}"
        )
    if bias is not None and bias.shape != (o,):
        raise ShapeError(f"conv2d: bias shape {bias.shape} != ({o},)")
    stride = int(stride)
    pad = int(pad)
    if stride < 1:
        raise ShapeError(f"conv2d: stride must be >= 1, got {stride}")
    if pad < 0:
        raise ShapeError(f"conv2d: pad must be >= 0, got {pad}")
    if kh > h + 2 * pad or kw > w + 2 * pad:
        raise ShapeError(
            f"conv2d: kernel {kh}x{kw} larger than padded input "
            f"{h + 2 * pad}x{w + 2 * pad}"
        )

    hp, wp = h + 2 * pad, w + 2 * pad
    narrow = o < c and stride == 1
    padded = input.data
    if pad:
        # channel-major over the batch when narrow: the kernel gradient's
        # [C, N·Hp·Wp] operand is then a view
        shape = (c, n, hp, wp) if narrow else (n, c, hp, wp)
        padded = np.zeros(shape, dtype=input.dtype)
        if narrow:
            padded = padded.transpose(1, 0, 2, 3)
        padded[:, :, pad : pad + h, pad : pad + w] = input.data
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    dtype = input.dtype
    out = np.empty((n, o, oh, ow), dtype=dtype)
    if narrow:
        taps = kernel.data.transpose(2, 3, 0, 1).reshape(kh * kw * o, c)
        prod = np.empty((kh, kw, o, hp, wp), dtype=dtype)
        for i in range(n):
            np.matmul(taps, padded[i].reshape(c, -1), out=prod.reshape(kh * kw * o, -1))
            out[i] = prod[0, 0, :, :oh, :ow]
            for u in range(kh):
                for v in range(kw):
                    if u or v:
                        out[i] += prod[u, v, :, u : u + oh, v : v + ow]
        del prod
    else:
        weights = kernel.data.reshape(o, -1)
        cols = np.empty((c * kh * kw, oh * ow), dtype=dtype)
        for i in range(n):
            np.matmul(weights, _columns(padded[i], kh, kw, stride, cols), out=out[i].reshape(o, -1))
        del cols
    if bias is not None:
        out += bias.data.reshape(1, o, 1, 1)

    def grad_fn(g):
        g = np.ascontiguousarray(g)
        grad_in = None
        if input.requires_grad:
            grad_in = np.empty((n, c, h, w), dtype=dtype)
            flipped = kernel.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, -1)
            # g[i] zero-dilated to (hp-kh+1, wp-kw+1), padded by kh-1 and kw-1;
            # the zeros stay put while each sample overwrites the strided cells
            gbuf = np.zeros((o, hp + kh - 1, wp + kw - 1), dtype=dtype)
            cells = gbuf[
                :,
                kh - 1 : kh - 1 + stride * (oh - 1) + 1 : stride,
                kw - 1 : kw - 1 + stride * (ow - 1) + 1 : stride,
            ]
            # only the windows that land on the unpadded input
            region = gbuf[:, pad : pad + h + kh - 1, pad : pad + w + kw - 1]
            cols = np.empty((o * kh * kw, h * w), dtype=dtype)
            for i in range(n):
                cells[...] = g[i]
                np.matmul(flipped, _columns(region, kh, kw, 1, cols), out=grad_in[i].reshape(c, -1))
            del cols
        grad_k = None
        if kernel.requires_grad and narrow:
            # g at every tap's shift, as [kh·kw·O, N·Hp·Wp], meets the padded
            # input as [C, N·Hp·Wp]; the input side stays on the left
            shifted = np.zeros((kh, kw, o, n, hp, wp), dtype=dtype)
            for u in range(kh):
                for v in range(kw):
                    shifted[u, v, :, :, u : u + oh, v : v + ow] = g.transpose(1, 0, 2, 3)
            grad_k = padded.transpose(1, 0, 2, 3).reshape(c, -1) @ shifted.reshape(kh * kw * o, -1).T
            grad_k = np.ascontiguousarray(grad_k.reshape(c, kh, kw, o).transpose(3, 0, 1, 2))
        elif kernel.requires_grad:
            grad_k = np.zeros((o, c * kh * kw), dtype=dtype)
            cols = np.empty((c * kh * kw, oh * ow), dtype=dtype)
            for i in range(n):
                grad_k += g[i].reshape(o, -1) @ _columns(padded[i], kh, kw, stride, cols).T
            grad_k = grad_k.reshape(o, c, kh, kw)
        if bias is None:
            return grad_in, grad_k
        grad_b = g.sum(axis=(0, 2, 3)) if bias.requires_grad else None
        return grad_in, grad_k, grad_b

    return _result(out, operands, grad_fn, "conv2d")


# output phases (a, b) of a 2x upsampling, in the order their kernels are stacked
_PHASES = ((0, 0), (0, 1), (1, 0), (1, 1))
# _PHASE_TAPS[a][t]: the 3x3 rows u that phase a's 2x2 row t sums (columns alike)
_PHASE_TAPS = (((0,), (1, 2)), ((0, 1), (2,)))
# [4, 9, 4] of 0s and 1s, the 16x9 table stacked by phase: entry
# [p, (u, v), (t, s)] is 1 where phase p = (a, b)'s 2x2 tap (t, s) sums the
# 3x3 tap (u, v).  Stacked, one product yields the phase kernels in order.
_PHASE_TABLE = np.array(
    [
        [[float(u in _PHASE_TAPS[a][t] and v in _PHASE_TAPS[b][s]) for t in (0, 1) for s in (0, 1)]
         for u in range(3) for v in range(3)]
        for a, b in _PHASES
    ]
)


def _phase_kernels(kernel: Tensor) -> Tensor:
    """[O,C,3,3] -> [4·O,C,2,2]: phase p = 2a + b's 2x2 kernel in rows p·O to (p+1)·O."""
    o, c = kernel.shape[:2]
    table = _PHASE_TABLE.astype(kernel.dtype)

    def grad_fn(g):
        taps = np.matmul(g.reshape(4, o * c, 4), table.transpose(0, 2, 1)).sum(axis=0)
        return (taps.reshape(o, c, 3, 3),)

    phases = np.matmul(kernel.data.reshape(o * c, 9), table)
    return _result(phases.reshape(4 * o, c, 2, 2), (kernel,), grad_fn, "phase_kernels")


def _interleave_phases(y: Tensor, bias: Tensor) -> Tensor:
    """[N,4·O,h+1,w+1] -> [N,O,2h,2w]: phase p = 2a + b's h×w window at
    offset (a, b), plus bias [O], into ``out[:, :, a::2, b::2]``."""
    n, o4, hp, wp = y.shape
    o, h, w = o4 // 4, hp - 1, wp - 1
    out = np.empty((n, o, 2 * h, 2 * w), dtype=y.dtype)
    # four strided copies and one contiguous add: a broadcast add into the
    # strided slices took 1.7x as long at [4,16,64,64] on a 2-core Xeon
    for p, (a, b) in enumerate(_PHASES):
        out[:, :, a::2, b::2] = y.data[:, p * o : (p + 1) * o, a : a + h, b : b + w]
    out += bias.data.reshape(1, o, 1, 1)

    def grad_fn(g):
        grad_y = None
        if y.requires_grad:
            grad_y = np.zeros(y.shape, dtype=g.dtype)
            for p, (a, b) in enumerate(_PHASES):
                grad_y[:, p * o : (p + 1) * o, a : a + h, b : b + w] = g[:, :, a::2, b::2]
        grad_b = g.sum(axis=(0, 2, 3)) if bias.requires_grad else None
        return grad_y, grad_b

    return _result(out, (y, bias), grad_fn, "interleave_phases")


def upsample_conv2d(input: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """``conv2d`` of the 2x nearest upsampling of [N,C,h,w] with a 3x3
    kernel [O,C,3,3] and bias [O] at pad 1: [N,O,2h,2w].

    One ``conv2d`` of the source map with the four stacked 2x2 phase
    kernels (pad 1) gives [N,4·O,h+1,w+1]; phase (a, b)'s h×w window, at
    offset (a, b), is the output at rows a::2 and columns b::2.
    """
    _same_dtype("upsample_conv2d", input, kernel, bias)
    if input.data.ndim != 4 or kernel.data.ndim != 4 or kernel.shape[2:] != (3, 3):
        raise ShapeError(
            "upsample_conv2d: expected a rank-4 input and a 3x3 kernel, "
            f"got {input.shape} and {kernel.shape}"
        )
    if bias.shape != kernel.shape[:1]:
        raise ShapeError(f"upsample_conv2d: bias shape {bias.shape} != ({kernel.shape[0]},)")
    return _interleave_phases(conv2d(input, _phase_kernels(kernel), pad=1), bias)


def full_conv2d(input: Tensor, kernel: Tensor) -> Tensor:
    """Transposed convolution of 1x1 maps: [N,I,1,1] through [I,O,kh,kw] to [N,O,kh,kw].

    It expands the generator's 1x1 seed maps into the first spatial
    representation.  With a 1x1 input the adjoint of conv2d is one GEMM,
    ``input`` as [N, I] times ``kernel`` as [I, O·kh·kw], and so is each
    gradient.  Any other input size raises ShapeError.
    """
    _same_dtype("full_conv2d", input, kernel)
    if input.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError(
            f"full_conv2d: expected rank-4 input and kernel, got {input.shape} and {kernel.shape}"
        )
    n, i, h, w = input.shape
    ik, o, kh, kw = kernel.shape
    if ik != i:
        raise ShapeError(
            f"full_conv2d: kernel expects {ik} input channels but input has {i}"
        )
    if (h, w) != (1, 1):
        raise ShapeError(f"full_conv2d: expected a 1x1 input, got {h}x{w}")
    x = input.data.reshape(n, i)
    weights = kernel.data.reshape(i, -1)

    def grad_fn(g):
        g = g.reshape(n, -1)
        grad_in = (g @ weights.T).reshape(input.shape) if input.requires_grad else None
        grad_k = (x.T @ g).reshape(kernel.shape) if kernel.requires_grad else None
        return grad_in, grad_k

    return _result((x @ weights).reshape(n, o, kh, kw), (input, kernel), grad_fn, "full_conv2d")
