"""Loss checks against nested-loop oracles and exact enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from texsyn import losses
from texsyn.autodiff import CHECK_DTYPE, ShapeError, Tensor, backward
from texsyn.losses import (
    centered_gram,
    derangement,
    diversity_loss,
    gram,
    texture_loss,
    total_loss,
)


def gram_loops(f):
    """Plain double-loop Gram over flattened spatial positions."""
    c, h, w = f.shape
    flat = f.reshape(c, h * w)
    out = np.zeros((c, c), dtype=np.float64)
    for i in range(c):
        for j in range(c):
            acc = 0.0
            for k in range(h * w):
                acc += flat[i, k] * flat[j, k]
            out[i, j] = acc
    return out / (h * w)


def centered_gram_loops(f):
    return gram_loops(f - f.mean())


RNG = np.random.default_rng(99)


# ---------------------------------------------------------------------------
# gram


def test_gram_zero_features():
    g = gram(Tensor(np.zeros((1, 3, 4, 4)), dtype=CHECK_DTYPE))
    np.testing.assert_array_equal(g.data, np.zeros((1, 3, 3)))


def test_gram_single_position_closed_form():
    a, b = 2.0, -3.0
    f = np.array([[[[a]], [[b]]]])
    g = gram(Tensor(f, dtype=CHECK_DTYPE))
    np.testing.assert_allclose(g.data, [[[a * a, a * b], [a * b, b * b]]])


@pytest.mark.parametrize("c,h,w", [(1, 1, 1), (2, 3, 5), (3, 4, 4), (8, 8, 8)])
def test_gram_matches_loop_oracle(c, h, w):
    f = RNG.standard_normal((1, c, h, w))
    g = gram(Tensor(f, dtype=CHECK_DTYPE))
    np.testing.assert_allclose(g.data[0], gram_loops(f[0]), atol=1e-6)


@pytest.mark.parametrize("c,h,w", [(2, 2, 2), (3, 4, 4), (8, 8, 8)])
def test_centered_gram_matches_loop_oracle(c, h, w):
    f = RNG.standard_normal((1, c, h, w))
    g = centered_gram(Tensor(f, dtype=CHECK_DTYPE))
    np.testing.assert_allclose(g.data[0], centered_gram_loops(f[0]), atol=1e-6)


def test_centered_gram_equals_gram_of_centered_features():
    f = RNG.standard_normal((1, 4, 6, 6))
    a = centered_gram(Tensor(f, dtype=CHECK_DTYPE)).data
    b = gram(Tensor(f - f.mean(), dtype=CHECK_DTYPE)).data
    np.testing.assert_allclose(a, b, atol=1e-6)


def test_centered_gram_constant_features_zero():
    f = np.full((1, 3, 4, 4), 7.5)
    g = centered_gram(Tensor(f, dtype=CHECK_DTYPE))
    np.testing.assert_allclose(g.data, np.zeros((1, 3, 3)), atol=1e-10)


@pytest.mark.parametrize("shift", [1.0, 10.0, 1e3])
def test_centered_gram_shift_invariant(shift):
    f = RNG.standard_normal((1, 3, 4, 4))
    a = centered_gram(Tensor(f, dtype=CHECK_DTYPE)).data
    b = centered_gram(Tensor(f + shift, dtype=CHECK_DTYPE)).data
    assert np.max(np.abs(a - b)) < 1e-4


def test_uncentered_gram_blows_up_under_shift_centered_does_not():
    f = RNG.standard_normal((1, 3, 4, 4))
    base = np.abs(gram(Tensor(f, dtype=CHECK_DTYPE)).data).sum()
    shifted = np.abs(gram(Tensor(f + 1e3, dtype=CHECK_DTYPE)).data).sum()
    assert shifted > 1e4 * base
    c0 = np.abs(centered_gram(Tensor(f, dtype=CHECK_DTYPE)).data).sum()
    c1 = np.abs(centered_gram(Tensor(f + 1e3, dtype=CHECK_DTYPE)).data).sum()
    assert abs(c0 - c1) < 1e-4


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_gram_symmetric_and_psd(seed):
    g = np.random.default_rng(seed)
    f = g.standard_normal((1, 4, 3, 3))
    for fn in (gram, centered_gram):
        values = fn(Tensor(f, dtype=CHECK_DTYPE)).data[0]
        assert np.max(np.abs(values - values.T)) < 1e-6
        assert np.linalg.eigvalsh(values).min() >= -1e-5


def test_gram_rejects_wrong_rank():
    with pytest.raises(ShapeError):
        gram(Tensor(np.zeros((3, 4))))
    with pytest.raises(ShapeError):
        centered_gram(Tensor(np.zeros((1, 1, 3, 4, 4))))
    # rank 3 (one map without its batch axis) is rejected like any other rank
    for fn in (gram, centered_gram):
        with pytest.raises(ShapeError, match=r"\[N,C,H,W\]"):
            fn(Tensor(np.zeros((3, 4, 4))))


# ---------------------------------------------------------------------------
# texture loss


def make_target(feats):
    return {tap: centered_gram(t).data[0] for tap, t in feats.items()}


def test_texture_loss_zero_on_matching_stats():
    feats = {
        "conv1_1": Tensor(RNG.standard_normal((1, 3, 4, 4)), dtype=CHECK_DTYPE),
        "conv2_1": Tensor(RNG.standard_normal((1, 5, 2, 2)), dtype=CHECK_DTYPE),
    }
    target = make_target(feats)
    loss = texture_loss(target, feats)
    assert float(loss.data) < 1e-5


def test_texture_loss_scalar_case():
    # 1x1 grams valued 3 and 5 under unit weight differ by 2
    f_out = Tensor(np.array([[[np.sqrt(5.0)], [-np.sqrt(5.0)]]]).reshape(1, 1, 2, 1), dtype=CHECK_DTYPE)
    f_tgt = Tensor(np.array([[[np.sqrt(3.0)], [-np.sqrt(3.0)]]]).reshape(1, 1, 2, 1), dtype=CHECK_DTYPE)
    target = {"conv1_1": centered_gram(f_tgt).data[0]}
    loss = texture_loss(target, {"conv1_1": f_out})
    assert abs(float(loss.data) - 2.0) < 1e-9


def test_texture_loss_on_a_batch_sums_the_samples():
    f = RNG.standard_normal((3, 4, 4, 4))
    target = {"conv1_1": centered_gram(Tensor(RNG.standard_normal((1, 4, 4, 4)), dtype=CHECK_DTYPE)).data[0]}
    batched = float(texture_loss(target, {"conv1_1": Tensor(f, dtype=CHECK_DTYPE)}).data)
    singles = [float(texture_loss(target, {"conv1_1": Tensor(x[None], dtype=CHECK_DTYPE)}).data) for x in f]
    np.testing.assert_allclose(batched, sum(singles), rtol=1e-12)


def test_texture_loss_missing_tap_rejected():
    f = Tensor(RNG.standard_normal((1, 2, 2, 2)), dtype=CHECK_DTYPE)
    target = make_target({"conv1_1": f, "conv2_1": f})
    with pytest.raises(ValueError, match="conv2_1"):
        texture_loss(target, {"conv1_1": f})


def test_texture_loss_gradient_vs_finite_differences():
    f0 = RNG.standard_normal((1, 3, 4, 4))
    goal = centered_gram(Tensor(RNG.standard_normal((1, 3, 4, 4)), dtype=CHECK_DTYPE)).data[0]
    target = {"conv1_1": goal}

    def value(x):
        return float(texture_loss(target, {"conv1_1": Tensor(x, dtype=CHECK_DTYPE)}).data)

    t = Tensor(f0, requires_grad=True, dtype=CHECK_DTYPE)
    (grad,) = backward(texture_loss(target, {"conv1_1": t}), [t])
    h = 1e-4
    flat = f0.reshape(-1)
    num = np.zeros_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = value(f0)
        flat[i] = keep - h
        lo = value(f0)
        flat[i] = keep
        num[i] = (hi - lo) / (2 * h)
    err = np.max(np.abs(grad.reshape(-1) - num) / np.maximum(1.0, np.abs(num)))
    assert err < 1e-3


# ---------------------------------------------------------------------------
# derangement


def test_derangement_n2_unique():
    g = np.random.default_rng(0)
    for _ in range(50):
        np.testing.assert_array_equal(derangement(2, g), [1, 0])


def test_derangement_n3_members():
    g = np.random.default_rng(1)
    valid = {(1, 2, 0), (2, 0, 1)}
    for _ in range(200):
        assert tuple(derangement(3, g)) in valid


def test_derangement_no_fixed_points_bulk():
    g = np.random.default_rng(2)
    idx = np.arange(5)
    for _ in range(2000):
        assert not np.any(derangement(5, g) == idx)


def test_derangement_n4_uniform():
    all_perms = [p for p in itertools.permutations(range(4)) if all(p[i] != i for i in range(4))]
    assert len(all_perms) == 9
    g = np.random.default_rng(3)
    counts = {p: 0 for p in all_perms}
    trials = 10_000
    for _ in range(trials):
        counts[tuple(derangement(4, g))] += 1
    for p, c in counts.items():
        assert abs(c / trials - 1 / 9) < 0.02, f"{p}: {c / trials}"


def test_derangement_rejects_small_n():
    g = np.random.default_rng(0)
    with pytest.raises(ValueError):
        derangement(1, g)
    with pytest.raises(ValueError):
        derangement(0, g)


# ---------------------------------------------------------------------------
# diversity loss


def feats(*arrays):
    """One [N,C,H,W] batch of the per-sample maps."""
    return Tensor(np.stack(arrays), dtype=CHECK_DTYPE)


def test_diversity_zero_on_identical_batch():
    a = RNG.standard_normal((4, 3, 3))
    loss = diversity_loss(feats(a, a.copy(), a.copy()), np.random.default_rng(0))
    assert float(loss.data) == 0.0


def test_diversity_n2_closed_form():
    # each distance is divided by the tap's spatial size (3x3 here)
    a = RNG.standard_normal((2, 3, 3))
    b = RNG.standard_normal((2, 3, 3))
    loss = diversity_loss(feats(a, b), np.random.default_rng(0))
    want = np.abs(a - b).sum() / 9  # both pair orderings contribute the same L1
    np.testing.assert_allclose(float(loss.data), want, rtol=1e-12)


def test_diversity_n3_matches_known_sigma():
    arrays = [RNG.standard_normal((2, 2, 2)) for _ in range(3)]
    seed = 12345
    sigma = derangement(3, np.random.default_rng(seed))
    want = sum(np.abs(arrays[i] - arrays[sigma[i]]).sum() for i in range(3)) / (3 * 4)
    loss = diversity_loss(feats(*arrays), np.random.default_rng(seed))
    np.testing.assert_allclose(float(loss.data), want, rtol=1e-12)


def test_diversity_normalization_divides_by_spatial_size():
    a = RNG.standard_normal((2, 3, 3))
    b = RNG.standard_normal((2, 3, 3))
    raw = np.abs(a - b).sum()  # per-sample mean of the un-normalized L1 over both orderings
    scaled = float(diversity_loss(feats(a, b), np.random.default_rng(0)).data)
    spatial = a.shape[1] * a.shape[2]
    np.testing.assert_allclose(scaled, raw / spatial, rtol=1e-12)
    # tiling the maps 2x2 quadruples the raw L1 and the spatial size alike
    tiled = float(
        diversity_loss(feats(np.tile(a, (1, 2, 2)), np.tile(b, (1, 2, 2))), np.random.default_rng(0)).data
    )
    np.testing.assert_allclose(tiled, scaled, rtol=1e-12)


@given(st.integers(0, 2**31 - 1), st.integers(2, 5))
@settings(max_examples=25, deadline=None)
def test_diversity_nonnegative(seed, n):
    g = np.random.default_rng(seed)
    arrays = [g.standard_normal((2, 2, 2)) for _ in range(n)]
    loss = diversity_loss(feats(*arrays), g)
    assert float(loss.data) >= 0.0


def test_diversity_rejects_batch_of_one():
    with pytest.raises(ValueError):
        diversity_loss(feats(RNG.standard_normal((2, 2, 2))), np.random.default_rng(0))


def test_diversity_rejects_features_without_a_batch_axis():
    with pytest.raises(ShapeError):
        diversity_loss(Tensor(RNG.standard_normal((2, 2, 2))), np.random.default_rng(0))


def test_diversity_gradients_flow_through_both_sides():
    # row i meets its partner as the sample and as the partner of another
    # row; with N=2 both terms are |a-b|, so a's gradient is twice the one
    # a single side would give
    a, b = RNG.standard_normal((2, 2, 2)), RNG.standard_normal((2, 2, 2))
    batch = Tensor(np.stack([a, b]), requires_grad=True, dtype=CHECK_DTYPE)
    (grad,) = backward(diversity_loss(batch, np.random.default_rng(0)), [batch])
    spatial = a.shape[1] * a.shape[2]
    np.testing.assert_allclose(grad[0], np.sign(a - b) / spatial, rtol=1e-12)
    np.testing.assert_allclose(grad[1], np.sign(b - a) / spatial, rtol=1e-12)


# ---------------------------------------------------------------------------
# total loss


def test_total_loss_coefficients():
    t = Tensor(np.array(5.0), dtype=CHECK_DTYPE)
    d = Tensor(np.array(2.0), dtype=CHECK_DTYPE)
    assert float(total_loss(t, d, alpha=1.0, beta=-1.0).data) == 3.0
    assert float(total_loss(t, d, alpha=1.0, beta=0.0).data) == 5.0
    assert float(total_loss(t, d, alpha=2.0, beta=0.5).data) == 11.0


def test_total_loss_gradient_linearity():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=CHECK_DTYPE)
    import texsyn.autodiff as ad

    t = ad.l1_norm(x)
    d = ad.scale(x.sum(), 1.0 / x.size)
    (grad_total,) = backward(total_loss(t, d, alpha=1.0, beta=-1.0), [x])

    x2 = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=CHECK_DTYPE)
    (gt,) = backward(ad.l1_norm(x2), [x2])
    x3 = Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=CHECK_DTYPE)
    (gd,) = backward(ad.scale(x3.sum(), 1.0 / x3.size), [x3])
    np.testing.assert_allclose(grad_total, gt - gd, atol=1e-6)


def test_total_loss_rejects_nonscalars():
    v = Tensor(np.ones(3), dtype=CHECK_DTYPE)
    s = Tensor(np.array(1.0), dtype=CHECK_DTYPE)
    with pytest.raises(ShapeError):
        total_loss(v, s, 1.0, -1.0)
