"""Transfer-network checks: closure, noise-map rules, losses, serialization."""

import numpy as np
import pytest

from texsyn import rng as _rng
from helpers import read_loss_log, record_steps
from texsyn.autodiff import CHECK_DTYPE, ShapeError, Tensor, backward
from texsyn.extractor import ExtractorConfig, build_extractor, extract
from texsyn.generator import SelectionUnit
from texsyn.losses import DIVERSITY_TAP
from texsyn.serialize import WeightFormatError
from texsyn.transfer import (
    TransferConfig,
    TransferNetConfig,
    content_distance,
    init_transfer_params,
    interpolate_styles,
    load_transfer_model,
    sample_noise_maps,
    save_transfer_model,
    transfer,
    train_transfer,
)

EXT = build_extractor(ExtractorConfig(seed=0))
NET = TransferNetConfig(styles=2)


@pytest.fixture(scope="module")
def params():
    return init_transfer_params(NET, seed=3)


def content_image(seed=0, size=32):
    g = np.random.default_rng(seed)
    return Tensor(g.uniform(-1, 1, (3, size, size)).astype(np.float32))


def one_hot(k, m=2):
    w = np.zeros(m)
    w[k - 1] = 1.0
    return SelectionUnit(w)


def test_net_config_validation():
    with pytest.raises(ValueError):
        TransferNetConfig(styles=0)
    with pytest.raises(ValueError):
        TransferNetConfig(styles=2, enc_widths=(16, 32), dec_widths=(32, 16))
    assert NET.stride == 4


@pytest.mark.parametrize("size", [32, 48, 64])
def test_output_tracks_content_size(params, size):
    out = transfer(params, content_image(size=size), one_hot(1), np.random.default_rng(0))
    assert out.shape == (3, size, size)


def test_non_square_content(params):
    g = np.random.default_rng(1)
    content = Tensor(g.uniform(-1, 1, (3, 32, 48)).astype(np.float32))
    out = transfer(params, content, one_hot(2), np.random.default_rng(0))
    assert out.shape == (3, 32, 48)


def test_indivisible_content_rejected(params):
    with pytest.raises(ShapeError):
        transfer(params, content_image(size=30), one_hot(1), np.random.default_rng(0))


def test_transfer_deterministic_in_seed(params):
    c = content_image()
    a = transfer(params, c, one_hot(1), np.random.default_rng(7)).data
    b = transfer(params, c, one_hot(1), np.random.default_rng(7)).data
    np.testing.assert_array_equal(a, b)
    d = transfer(params, c, one_hot(1), np.random.default_rng(8)).data
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("samples", [1, 3])
def test_samples_equal_single_calls_on_one_stream(params, samples):
    # one encoding repeated n times, then the n single calls' noise draws:
    # the same per-sample arithmetic, so the rows match bitwise
    c = content_image(seed=4)
    mix = SelectionUnit(np.array([0.4, 0.6]))
    batch = transfer(params, c, mix, np.random.default_rng(5), samples=samples)
    assert batch.shape == (samples, 3, 32, 32)
    rng = np.random.default_rng(5)
    for i in range(samples):
        np.testing.assert_array_equal(batch.data[i], transfer(params, c, mix, rng).data)


def test_encoder_output_is_convolved_once_per_call(params, monkeypatch):
    # dec1's content block runs at batch 1 and is repeated over the samples;
    # only its noise block sees the per-sample batch
    from texsyn import autodiff as ad

    calls = []
    real = ad.conv2d

    def spy(input, kernel, bias=None, stride=1, pad=0):
        out = real(input, kernel, bias, stride=stride, pad=pad)
        calls.append((input, stride, out))
        return out

    monkeypatch.setattr(ad, "conv2d", spy)
    out = transfer(params, content_image(), one_hot(1), np.random.default_rng(0), samples=4)
    assert out.shape == (4, 3, 32, 32)
    conv_outputs = {id(o) for _, _, o in calls}
    encoded = [o for _, stride, o in calls if stride == 2][-1]

    def reads_encoder(t):
        # the encoder output, i.e. the leaky_relu of the last stride-2 conv,
        # reached from t without passing through another convolution
        stack = [t]
        while stack:
            u = stack.pop()
            if u._op == "leaky_relu" and u._parents == (encoded,):
                return True
            stack.extend(q for q in u._parents if id(q) not in conv_outputs)
        return False

    readers = [input.shape for input, _, _ in calls if reads_encoder(input)]
    assert readers == [(1, NET.enc_widths[-1], 8, 8)]


def test_samples_must_be_positive(params):
    with pytest.raises(ValueError):
        transfer(params, content_image(), one_hot(1), np.random.default_rng(0), samples=0)


def test_noise_maps_zero_for_unselected():
    maps = sample_noise_maps(NET, (8, 8), np.array([0.0, 1.0]), np.random.default_rng(0))
    assert maps.shape == (2, 8, 8) and maps.dtype == np.float32
    assert not np.any(maps[0])
    assert np.any(maps[1])
    # several channels per style: each style's block is zero exactly when its weight is
    net = TransferNetConfig(styles=4, noise_channels=2)
    weights = np.array([0.0, 0.5, 0.0, 1.0])
    maps = sample_noise_maps(net, (4, 4), weights, np.random.default_rng(3))
    assert maps.shape == (8, 4, 4)
    for i, w in enumerate(weights):
        block = maps[2 * i : 2 * i + 2]
        assert np.all(block != 0) if w else not np.any(block)


def test_unselected_styles_consume_no_randomness():
    a = sample_noise_maps(NET, (4, 4), np.array([0.0, 1.0]), np.random.default_rng(5))
    b = sample_noise_maps(
        TransferNetConfig(styles=2), (4, 4), np.array([1.0, 1.0]), np.random.default_rng(5)
    )
    # style 2's draw in `a` equals style 1's draw in `b`: same first draw
    np.testing.assert_array_equal(a[1], b[0])


def test_interpolate_single_pair_matches_one_hot_bit_exact(params):
    c = content_image()
    via_pairs = interpolate_styles(params, c, [(2, 1.0)], np.random.default_rng(4))
    via_one_hot = transfer(params, c, one_hot(2), np.random.default_rng(4))
    np.testing.assert_array_equal(via_pairs.data, via_one_hot.data)


def test_interpolate_empty_runs(params):
    out = interpolate_styles(params, content_image(), [], np.random.default_rng(0))
    assert out.shape == (3, 32, 32)


def test_interpolate_midpoint_differs_from_endpoints(params):
    c = content_image()
    mid = interpolate_styles(params, c, [(1, 0.5), (2, 0.5)], np.random.default_rng(4)).data
    e1 = transfer(params, c, one_hot(1), np.random.default_rng(4)).data
    e2 = transfer(params, c, one_hot(2), np.random.default_rng(4)).data
    assert np.abs(mid - e1).sum() > 0
    assert np.abs(mid - e2).sum() > 0


def test_interpolate_validation(params):
    c = content_image()
    with pytest.raises(ValueError):
        interpolate_styles(params, c, [(3, 1.0)], np.random.default_rng(0))
    with pytest.raises(ValueError):
        interpolate_styles(params, c, [(1, -0.5)], np.random.default_rng(0))
    with pytest.raises(ValueError):
        interpolate_styles(params, c, [(1, 0.5), (1, 0.5)], np.random.default_rng(0))


def test_selection_length_checked(params):
    with pytest.raises(ShapeError):
        transfer(params, content_image(), SelectionUnit(np.ones(3)), np.random.default_rng(0))
    # per-row selections are the generator's; a transfer takes one selection
    with pytest.raises(ShapeError):
        transfer(params, content_image(), SelectionUnit(np.ones((1, 2))), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# content loss


def content_loss(output, content, extractor=EXT, tap=DIVERSITY_TAP):
    """The transfer step's content term for images [1,3,H,W]."""
    return content_distance(extract(extractor, output, [tap])[tap], extract(extractor, content, [tap])[tap])


def content_batch(seed=0, size=32):
    return Tensor(content_image(seed, size).data[None])


def test_content_loss_zero_on_identity():
    c = content_batch()
    assert float(content_loss(c, c).data) == 0.0


def test_content_loss_symmetric():
    a, b = content_batch(1), content_batch(2)
    ab = float(content_loss(a, b).data)
    ba = float(content_loss(b, a).data)
    assert ab == pytest.approx(ba, rel=1e-6)
    assert ab > 0


def test_content_loss_size_mismatch():
    with pytest.raises(ShapeError):
        content_loss(content_batch(size=32), content_batch(size=48))


def test_content_loss_gradient_vs_finite_differences():
    small_ext = build_extractor(
        ExtractorConfig(stage_channels=(4, 6), convs_per_stage=(1, 1), seed=1)
    )
    ref = np.random.default_rng(1).uniform(-1, 1, (1, 3, 8, 8))
    img = np.random.default_rng(2).uniform(-1, 1, (1, 3, 8, 8))

    def value(x):
        return float(
            content_loss(
                Tensor(x, dtype=CHECK_DTYPE), Tensor(ref, dtype=CHECK_DTYPE), small_ext, tap="conv2_1"
            ).data
        )

    t = Tensor(img, requires_grad=True, dtype=CHECK_DTYPE)
    (grad,) = backward(content_loss(t, Tensor(ref, dtype=CHECK_DTYPE), small_ext, tap="conv2_1"), [t])
    h = 1e-4
    flat = img.reshape(-1)
    num = np.zeros_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = value(img)
        flat[i] = keep - h
        lo = value(img)
        flat[i] = keep
        num[i] = (hi - lo) / (2 * h)
    err = np.max(np.abs(grad.reshape(-1) - num) / np.maximum(1.0, np.abs(num)))
    assert err < 1e-3


# ---------------------------------------------------------------------------
# training mechanics (tiny runs; direction checks live in acceptance)


def tiny_images(n, seed0, size=16):
    return [
        np.random.default_rng(seed0 + i).uniform(-1, 1, (3, size, size)).astype(np.float32)
        for i in range(n)
    ]


def test_gradients_reach_all_transfer_params():
    from texsyn import autodiff as ad
    from texsyn.losses import texture_loss
    from texsyn.trainer import precompute_targets

    params = init_transfer_params(NET, seed=1)
    target = precompute_targets(EXT, tiny_images(1, 50, size=32), taps=("conv3_1",))[0]
    out = transfer(params, content_image(9), one_hot(1), np.random.default_rng(0), samples=1)
    style_term = texture_loss(target, extract(EXT, out, ["conv3_1"]))
    combined = ad.add(style_term, content_loss(out, content_batch(9)))
    grads = ad.backward(combined, params.parameters())
    for name, grad in zip(params.tensors, grads):
        assert np.any(grad != 0), f"no gradient reached {name}"


def test_train_transfer_smoke_and_log_schema(tmp_path):
    cfg = TransferConfig(seed=0, K=2, iterations=4, batch_size=2, style_taps=("conv1_1", "conv2_1"))
    params, log = train_transfer(
        tiny_images(2, 60), tiny_images(2, 70), cfg,
        net_config=TransferNetConfig(styles=2), extractor=EXT,
    )
    assert len(log.rows) == 4
    path = str(tmp_path / "log.csv")
    log.save(path)
    header, rows = read_loss_log(path)
    assert header == "iter,texture,l_texture,l_diversity,total,l_content"
    assert rows == log.rows


def test_train_transfer_reproducible():
    cfg = TransferConfig(seed=5, K=2, iterations=3, batch_size=2, style_taps=("conv1_1",))
    styles, contents = tiny_images(2, 80), tiny_images(1, 90)
    p1, log1 = train_transfer(styles, contents, cfg, extractor=EXT)
    p2, log2 = train_transfer(styles, contents, cfg, extractor=EXT)
    assert log1.rows == log2.rows
    for name in p1.tensors:
        np.testing.assert_array_equal(p1.tensors[name].data, p2.tensors[name].data)


def as_dtype(params, dtype):
    from texsyn.serialize import ParamSet

    return ParamSet.of(params.config, {n: t.data.astype(dtype) for n, t in params.tensors.items()})


def reference_first_iteration(styles, contents, cfg, net, dtype=np.float32) -> tuple:
    """Iteration 0 (style 1) of the per-sample transfer step before
    trainer.batch_losses, with weights and contents of ``dtype``; returns
    (its log values, {name: gradient})."""
    from texsyn import autodiff as ad
    from texsyn.generator import weighted_selection
    from helpers import per_sample_diversity
    from texsyn.losses import texture_loss, total_loss
    from texsyn.optim import Adam
    from texsyn.trainer import precompute_targets

    targets = precompute_targets(EXT, styles, taps=cfg.style_taps)
    params = as_dtype(init_transfer_params(net, cfg.seed), dtype)
    optimizer = Adam(params.parameters(), lr=cfg.lr)
    noise_rng = _rng.stream(cfg.seed, "transfer-noise")
    derangement_rng = _rng.stream(cfg.seed, "derangement")
    content_rng = _rng.stream(cfg.seed, "transfer-content")
    n, deep = cfg.batch_size, cfg.diversity_tap
    taps = tuple(cfg.style_taps) + (deep,)

    content = Tensor(contents[int(content_rng.integers(len(contents)))], dtype=dtype)
    selection = weighted_selection(net.styles, [(1, 1.0)], "style")
    content_feat = extract(EXT, Tensor(content.data[None]), [deep])[deep]
    style_sum = content_sum = None
    div_feats = []
    for _ in range(n):
        feats = extract(EXT, transfer(params, content, selection, noise_rng, samples=1), taps)
        term = texture_loss(targets[0], feats)
        style_sum = term if style_sum is None else ad.add(style_sum, term)
        c_term = content_distance(feats[deep], content_feat)
        content_sum = c_term if content_sum is None else ad.add(content_sum, c_term)
        if cfg.beta != 0.0:
            div_feats.append(feats[deep])
    l_style = ad.scale(style_sum, 1.0 / n)
    l_content = ad.scale(content_sum, 1.0 / n)
    if cfg.beta == 0.0:
        l_diversity = Tensor(np.zeros((), dtype=l_style.dtype))
    else:
        l_diversity = per_sample_diversity(div_feats, derangement_rng)
    loss = ad.add(
        total_loss(l_style, l_diversity, cfg.alpha, cfg.beta),
        ad.scale(l_content, cfg.content_weight),
    )
    grads = ad.backward(loss, optimizer.params)
    optimizer.step(grads)
    values = (float(l_style.data), float(l_diversity.data), float(loss.data), float(l_content.data))
    return values, dict(zip(params.tensors, grads))


@pytest.mark.parametrize("beta", [-1.0, 0.0])
def test_train_transfer_step_equals_the_per_sample_loop(beta, monkeypatch):
    # The batch sums in another order than the per-sample loop.  In float64
    # the logged losses and every parameter gradient (the one passed to
    # Adam's step) agree within 1e-10, each gradient relative to its
    # tensor's largest magnitude.  In float32, the training width, the
    # losses agree within 1e-5; the gradients are held to the float64
    # reference at 1e-5, because the float32 per-sample loop itself strays
    # up to 7e-4 from it on this input while the batch stays within 1e-6.
    # Stepped weights are not compared: Adam's first step is lr * sign(g),
    # so a gradient entry at rounding level may step either way.
    import texsyn.transfer as tf

    cfg = TransferConfig(
        seed=2, K=2, iterations=1, batch_size=4, beta=beta, style_taps=("conv1_1", "conv2_1")
    )
    styles, contents = tiny_images(2, 80), tiny_images(2, 90)
    init = tf.init_transfer_params
    _, exact = reference_first_iteration(styles, contents, cfg, NET, np.float64)
    for dtype, rtol in ((np.float32, 1e-5), (np.float64, 1e-10)):
        want, _ = reference_first_iteration(styles, contents, cfg, NET, dtype)
        monkeypatch.setattr(tf, "init_transfer_params", lambda net, seed: as_dtype(init(net, seed), dtype))
        steps = record_steps(monkeypatch)
        params, log = train_transfer(styles, contents, cfg, net_config=NET, extractor=EXT)
        (grads,) = steps
        (row,) = log.rows
        assert row[:2] == (0, 1)
        np.testing.assert_allclose(row[2:], want, rtol=rtol)
        assert (row[3] == 0.0) == (beta == 0.0)
        for (name, t), grad in zip(params.tensors.items(), grads):
            assert t.dtype == dtype
            g = exact[name]
            assert np.max(np.abs(grad - g)) <= rtol * np.max(np.abs(g)), name


def test_train_transfer_names_iteration_of_non_finite_loss():
    from texsyn.trainer import TrainingError

    cfg = TransferConfig(
        seed=0, K=2, iterations=3, batch_size=2, style_taps=("conv1_1",), alpha=float("nan")
    )
    with pytest.raises(TrainingError, match="aborted at iteration 0 on texture 1"):
        train_transfer(tiny_images(2, 80), tiny_images(1, 90), cfg, extractor=EXT)


def test_train_transfer_picks_ids_through_its_own_module(monkeypatch):
    # benchmarks time iterations by patching transfer.schedule_texture
    import texsyn.trainer as trainer
    import texsyn.transfer as tf

    picks = []
    real = tf.schedule_texture
    monkeypatch.setattr(tf, "schedule_texture", lambda it, s: picks.append(it) or real(it, s))
    monkeypatch.setattr(trainer, "schedule_texture", lambda it, s: picks.append("trainer"))
    cfg = TransferConfig(seed=5, K=2, iterations=3, batch_size=2, style_taps=("conv1_1",))
    train_transfer(tiny_images(2, 80), tiny_images(1, 90), cfg, extractor=EXT)
    assert picks == [0, 1, 2]


def test_train_transfer_extracts_each_content_once(monkeypatch):
    # the contents are constant, so their features come from one extract each per run
    import texsyn.transfer as tf

    constant = []
    real = tf.extract

    def spy(extractor, images, taps):
        if not images.requires_grad:
            constant.append(images.data.copy())
        return real(extractor, images, taps)

    monkeypatch.setattr(tf, "extract", spy)
    contents = tiny_images(2, 90)
    cfg = TransferConfig(seed=5, K=2, iterations=5, batch_size=2, style_taps=("conv1_1",))
    train_transfer(tiny_images(2, 80), contents, cfg, extractor=EXT)
    assert len(constant) == len(contents)
    for got, want in zip(constant, contents):
        np.testing.assert_array_equal(got, want[None])


def test_train_transfer_validation():
    with pytest.raises(ValueError):
        train_transfer([], tiny_images(1, 0), TransferConfig(seed=0))
    with pytest.raises(ValueError):
        TransferConfig(seed=0, batch_size=1)  # diversity needs pairs


# ---------------------------------------------------------------------------
# serialization


def test_transfer_model_roundtrip(params, tmp_path):
    path = str(tmp_path / "transfer.model")
    save_transfer_model(params, path)
    loaded = load_transfer_model(path)
    assert loaded.config == NET
    c = content_image(3)
    a = transfer(params, c, one_hot(1), np.random.default_rng(2)).data
    b = transfer(loaded, c, one_hot(1), np.random.default_rng(2))
    np.testing.assert_array_equal(a, b.data)
    assert not b.requires_grad  # served models hold no graph


def test_transfer_model_shape_check(params, tmp_path):
    from texsyn import serialize

    path = str(tmp_path / "transfer.model")
    save_transfer_model(params, path)
    tensors = serialize.load_tensors(path)
    tensors["enc1.bias"] = np.zeros(7, dtype=np.float32)
    serialize.save_tensors(path, tensors)
    with pytest.raises(WeightFormatError, match="enc1.bias"):
        load_transfer_model(path)


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-10), (np.float32, 1e-5)], ids=["float64", "float32"])
def test_transfer_and_gradients_equal_the_upsample_conv_reference(dtype, tol):
    """The phase-kernel decoder equals upsample -> conv2d, forward and every parameter gradient."""
    from helpers import assert_close_relative, randomized, reference_transfer
    from texsyn import autodiff as ad

    p = randomized(init_transfer_params(NET, seed=2), dtype, seed=4)
    content = Tensor(content_image(5, size=16).data, dtype=dtype)
    weights = Tensor(np.random.default_rng(6).standard_normal((2, 3, 16, 16)), dtype=dtype)
    selection = SelectionUnit(np.array([0.4, 0.6]))
    outs, grads = [], []
    for forward in (transfer, reference_transfer):
        out = forward(p, content, selection, np.random.default_rng(8), samples=2)
        outs.append(out.data)
        grads.append(backward(ad.mul(out, weights).sum(), p.parameters()))
    assert_close_relative(outs[0], outs[1], tol)
    for got, want in zip(*grads):
        assert_close_relative(got, want, tol)
