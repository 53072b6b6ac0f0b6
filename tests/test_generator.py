"""Generator checks: shapes, purity, selection algebra, serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from texsyn import generator as gn
from texsyn.autodiff import ShapeError, Tensor, backward
from texsyn.generator import (
    SelectionUnit,
    SynthesisConfig,
    embed,
    generate,
    init_params,
    load_model,
    one_hot,
    save_model,
    seed_maps,
    selector_guidance,
    weighted_selection,
)
from texsyn.serialize import WeightFormatError

CFG = SynthesisConfig(textures=3)


@pytest.fixture(scope="module")
def params():
    return init_params(CFG, seed=42)


def noise(seed=0, cfg=CFG):
    return np.random.default_rng(seed).uniform(-1, 1, cfg.noise_dim)


def test_config_arithmetic():
    assert CFG.output_size == 32
    with pytest.raises(ValueError):
        SynthesisConfig(textures=0)
    with pytest.raises(ValueError):
        SynthesisConfig(textures=2, scales=3, widths=(8, 8))


def test_init_deterministic():
    a = init_params(CFG, seed=7)
    b = init_params(CFG, seed=7)
    for name in a.tensors:
        np.testing.assert_array_equal(a.tensors[name].data, b.tensors[name].data)
    c = init_params(CFG, seed=8)
    assert any(
        not np.array_equal(a.tensors[n].data, c.tensors[n].data) for n in a.tensors
    )


def test_embed_one_hot_selects_row(params):
    for k in range(1, 4):
        e = embed(params, one_hot(CFG, k))
        np.testing.assert_array_equal(e.data, params.tensors["embedding"].data[k - 1])


def test_embed_zero_selection_zero(params):
    e = embed(params, SelectionUnit(np.zeros(3)))
    np.testing.assert_array_equal(e.data, np.zeros(CFG.embed_dim))


def test_embed_linear_midpoint(params):
    e = embed(params, weighted_selection(3, [(1, 0.5), (2, 0.5)]))
    rows = params.tensors["embedding"].data
    np.testing.assert_allclose(e.data, 0.5 * (rows[0] + rows[1]), atol=1e-6)


def test_embed_length_mismatch(params):
    with pytest.raises(ShapeError):
        embed(params, SelectionUnit(np.ones(5)))


def test_seed_maps_layout():
    n_vec = np.array([1.0, 2.0])
    e_vec = np.array([3.0, 4.0, 5.0])
    seeds = seed_maps(Tensor(n_vec), Tensor(e_vec))
    assert seeds.shape == (1, 6, 1, 1)
    for i in range(2):
        for j in range(3):
            assert seeds.data[0, i * 3 + j, 0, 0] == pytest.approx(n_vec[i] * e_vec[j])


def test_seed_maps_zero_noise():
    seeds = seed_maps(Tensor(np.zeros(2)), Tensor(np.ones(3)))
    np.testing.assert_array_equal(seeds.data, np.zeros((1, 6, 1, 1)))


def test_selector_guidance_shapes(params):
    e = embed(params, one_hot(CFG, 1))
    maps = selector_guidance(params, e)
    assert len(maps) == CFG.scales
    for s, m in enumerate(maps, start=1):
        assert m.shape == (1, CFG.guidance_channels, 4 * 2**s, 4 * 2**s)


def test_selector_guidance_zero_embedding_zero_biases():
    p = init_params(CFG, seed=0)
    p.tensors["selector.proj_bias"] = Tensor(
        np.zeros_like(p.tensors["selector.proj_bias"].data), requires_grad=True
    )
    maps = selector_guidance(p, Tensor(np.zeros(CFG.embed_dim, dtype=np.float32)))
    for m in maps:
        np.testing.assert_array_equal(m.data, np.zeros_like(m.data))


@pytest.mark.parametrize("use_selector", [True, False])
def test_generate_output_shape_and_range(params, use_selector):
    img = generate(params, one_hot(CFG, 2), noise(), use_selector=use_selector)
    assert img.shape == (3, 32, 32)
    assert np.all(img.data >= -1.0) and np.all(img.data <= 1.0)


def test_generate_is_pure(params):
    a = generate(params, one_hot(CFG, 1), noise(5))
    b = generate(params, one_hot(CFG, 1), noise(5))
    np.testing.assert_array_equal(a.data, b.data)


@given(st.integers(1, 5), st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 3))
@settings(max_examples=12, deadline=None)
def test_batch_rows_equal_single_images(params, n, seed, use_selector, k):
    # the batch runs the same per-sample arithmetic, so rows match bitwise
    draws = np.random.default_rng(seed).uniform(-1, 1, (n, CFG.noise_dim))
    batch = generate(params, one_hot(CFG, k), draws, use_selector=use_selector).data
    assert batch.shape == (n, 3, CFG.output_size, CFG.output_size)
    for i in range(n):
        single = generate(params, one_hot(CFG, k), draws[i], use_selector=use_selector).data
        np.testing.assert_array_equal(batch[i], single)


def test_batch_gradients_equal_summed_single_gradients():
    p = init_params(CFG, seed=3)
    draws = np.random.default_rng(1).uniform(-1, 1, (3, CFG.noise_dim))
    leaves = p.parameters()
    batched = backward(generate(p, one_hot(CFG, 2), draws).sum(), leaves)
    singles = [backward(generate(p, one_hot(CFG, 2), row).sum(), leaves) for row in draws]
    for name, grad, *rows in zip(p.tensors, batched, *singles):
        summed = sum(rows)
        scale = max(np.max(np.abs(summed)), 1e-30)
        assert np.max(np.abs(grad - summed)) <= 1e-5 * scale, name


def test_generate_rejects_malformed_noise(params):
    for shape in [(CFG.noise_dim + 1,), (2, CFG.noise_dim - 1), (1, 1, CFG.noise_dim), (0, CFG.noise_dim)]:
        with pytest.raises(ShapeError):
            generate(params, one_hot(CFG, 1), np.zeros(shape))


def test_generate_depends_on_noise_and_selection(params):
    base = generate(params, one_hot(CFG, 1), noise(1)).data
    other_noise = generate(params, one_hot(CFG, 1), noise(2)).data
    other_texture = generate(params, one_hot(CFG, 2), noise(1)).data
    assert not np.array_equal(base, other_noise)
    assert not np.array_equal(base, other_texture)


def test_one_hot_equivalence_bit_exact(params):
    for k in range(1, 4):
        via_interp = generate(params, weighted_selection(3, [(k, 1.0)]), noise(3))
        via_one_hot = generate(params, one_hot(CFG, k), noise(3))
        np.testing.assert_array_equal(via_interp.data, via_one_hot.data)


def test_weighted_selection_validation():
    sel = weighted_selection(3, [(1, 0.3), (3, 0.7)])
    np.testing.assert_allclose(sel.weights, [0.3, 0.0, 0.7])
    assert weighted_selection(3, []).weights.sum() == 0.0
    with pytest.raises(ValueError, match="out of range"):
        weighted_selection(3, [(4, 1.0)])
    with pytest.raises(ValueError, match="out of range"):
        weighted_selection(3, [(0, 1.0)])
    with pytest.raises(ValueError, match="listed twice"):
        weighted_selection(3, [(1, 0.5), (1, 0.5)])
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            weighted_selection(3, [(1, bad)])


def test_empty_selection_still_generates(params):
    img = generate(params, weighted_selection(3, []), noise())
    assert img.shape == (3, 32, 32)


def test_gradient_reaches_every_parameter(params):
    from texsyn import autodiff as ad

    img = generate(params, one_hot(CFG, 1), noise(9))
    grads = backward(ad.mul(img, img).sum(), params.parameters())
    for name, grad in zip(params.tensors, grads):
        assert np.any(grad != 0), f"no gradient reached {name}"


def test_without_selector_guidance_params_get_no_gradient(params):
    img = generate(params, one_hot(CFG, 1), noise(9), use_selector=False)
    grads = dict(zip(params.tensors, backward(img.sum(), params.parameters())))
    assert not np.any(grads["selector.proj"] != 0)
    assert np.any(grads["seed.kernel"] != 0)


def test_model_roundtrip_bit_exact(params, tmp_path):
    path = str(tmp_path / "model.bin")
    save_model(params, path)
    loaded = load_model(path)
    assert loaded.config == CFG
    a = generate(params, one_hot(CFG, 2), noise(4)).data
    b = generate(loaded, one_hot(CFG, 2), noise(4))
    np.testing.assert_array_equal(a, b.data)
    assert not b.requires_grad  # served models hold no graph


def test_model_file_size_matches_parameter_count(params, tmp_path):
    import os

    path = str(tmp_path / "model.bin")
    save_model(params, path)
    n_params = sum(t.size for t in params.tensors.values())
    size = os.path.getsize(path)
    # 4 bytes per weight plus per-tensor name/shape records and file header
    assert 4 * n_params < size < 4 * n_params + 4096


def test_model_corrupt_magic_rejected(params, tmp_path):
    path = str(tmp_path / "model.bin")
    save_model(params, path)
    blob = bytearray(open(path, "rb").read())
    blob[0] ^= 0xFF
    open(path, "wb").write(bytes(blob))
    with pytest.raises(WeightFormatError):
        load_model(path)


def test_model_shape_mismatch_rejected(params, tmp_path):
    from texsyn import serialize

    path = str(tmp_path / "model.bin")
    save_model(params, path)
    tensors = serialize.load_tensors(path)
    tensors["rgb.bias"] = np.zeros(5, dtype=np.float32)
    serialize.save_tensors(path, tensors)
    with pytest.raises(WeightFormatError, match="rgb.bias"):
        load_model(path)


def test_selection_unit_rejects_negative_weights_and_other_shapes():
    for bad in (-0.5, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            SelectionUnit(np.array([0.5, bad]))
        with pytest.raises(ValueError, match="finite and nonnegative"):
            SelectionUnit(np.array([[0.5, 0.5], [0.5, bad]]))
    for shape in [(), (2, 2, 2), (0, 2)]:
        with pytest.raises(ShapeError):
            SelectionUnit(np.ones(shape))
    assert SelectionUnit(np.ones((2, 3))).weights.shape == (2, 3)


@pytest.fixture(scope="module")
def params64():
    from helpers import randomized

    return randomized(init_params(CFG, seed=42), np.float64, seed=1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@given(st.integers(1, 5), st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=10, deadline=None)
def test_per_row_selection_rows_equal_single_calls(params, params64, dtype, n, seed, use_selector):
    """Row i of a render with one selection row per noise row equals the
    single call with row i's noise and selection: bit for bit in float32,
    within 1e-12 of the largest magnitude in float64.

    The single call's [1, k] @ [k, m] products (embedding, selector
    projection, seed expansion) run as BLAS matrix-vector products and the
    batch's as one matrix-matrix product.  In float64 the two kernels add in
    different orders; in float32 they agree at these shapes (not at every
    shape: with 4 textures the embedding rows differ in the last bit)."""
    p = params if dtype == np.float32 else params64
    g = np.random.default_rng(seed)
    weights = g.uniform(0, 1, (n, CFG.textures))
    draws = g.uniform(-1, 1, (n, CFG.noise_dim))
    batch = generate(p, SelectionUnit(weights), draws, use_selector=use_selector).data
    assert batch.shape == (n, 3, CFG.output_size, CFG.output_size) and batch.dtype == dtype
    for i in range(n):
        single = generate(p, SelectionUnit(weights[i]), draws[i], use_selector=use_selector).data
        if dtype == np.float32:
            np.testing.assert_array_equal(batch[i], single)
        else:
            assert np.max(np.abs(batch[i] - single)) <= 1e-12 * np.max(np.abs(single))


@pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-10)], ids=["float32", "float64"])
@pytest.mark.parametrize("use_selector", [True, False])
def test_per_row_selection_gradients_equal_summed_single_gradients(params, params64, dtype, tol, use_selector):
    p = params if dtype == np.float32 else params64
    g = np.random.default_rng(2)
    weights = g.uniform(0, 1, (3, CFG.textures))
    draws = g.uniform(-1, 1, (3, CFG.noise_dim))
    leaves = p.parameters()
    batched = backward(generate(p, SelectionUnit(weights), draws, use_selector=use_selector).sum(), leaves)
    singles = [
        backward(generate(p, SelectionUnit(w), z, use_selector=use_selector).sum(), leaves)
        for w, z in zip(weights, draws)
    ]
    for name, grad, *rows in zip(p.tensors, batched, *singles):
        summed = sum(rows)
        scale = max(np.max(np.abs(summed)), 1e-30)
        assert np.max(np.abs(grad - summed)) <= tol * scale, name


def test_per_row_selection_shape_errors(params):
    draws = np.zeros((3, CFG.noise_dim))
    for rows in (2, 4):
        with pytest.raises(ShapeError, match="rows"):
            generate(params, SelectionUnit(np.ones((rows, CFG.textures))), draws)
    with pytest.raises(ShapeError, match="rows"):
        generate(params, SelectionUnit(np.ones((3, CFG.textures))), draws[0])
    for width in (CFG.textures - 1, CFG.textures + 1):
        for shape in [(width,), (1, width), (3, width)]:
            with pytest.raises(ShapeError):
                generate(params, SelectionUnit(np.ones(shape)), draws)
    # a single row [1, M] is shared by the batch like (M,)
    shared = generate(params, SelectionUnit(np.ones((1, CFG.textures))), draws).data
    np.testing.assert_array_equal(shared, generate(params, SelectionUnit(np.ones(CFG.textures)), draws).data)


@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-10), (np.float32, 1e-5)], ids=["float64", "float32"])
@pytest.mark.parametrize("use_selector", [True, False])
def test_generate_and_gradients_equal_the_upsample_concat_reference(dtype, tol, use_selector):
    """The phase-kernel generator equals upsample -> concat -> conv2d, forward and every parameter gradient."""
    from helpers import assert_close_relative, randomized, reference_generate
    from texsyn import autodiff as ad

    p = randomized(init_params(CFG, seed=5), dtype, seed=6)
    g = np.random.default_rng(7)
    draws = g.uniform(-1, 1, (3, CFG.noise_dim))
    weights = Tensor(g.standard_normal((3, 3, CFG.output_size, CFG.output_size)), dtype=dtype)
    selection = weighted_selection(3, [(1, 0.3), (3, 0.7)])
    outs, grads = [], []
    for forward in (generate, reference_generate):
        img = forward(p, selection, draws, use_selector=use_selector)
        outs.append(img.data)
        grads.append(backward(ad.mul(img, weights).sum(), p.parameters()))
    assert_close_relative(outs[0], outs[1], tol)
    for name, got, want in zip(p.tensors, *grads):
        assert_close_relative(got, want, tol)
        if name.startswith("selector.") and not use_selector:
            assert not np.any(got != 0), name
