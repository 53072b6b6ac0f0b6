"""Feature-extractor checks: determinism, frozen weights, tap geometry."""

import numpy as np
import pytest

from texsyn import serialize
from texsyn.autodiff import CHECK_DTYPE, ShapeError, Tensor, backward
from texsyn.extractor import ExtractorConfig, build_extractor, extract
from texsyn.losses import DIVERSITY_TAP, TEXTURE_TAPS

ALL_TAPS = TEXTURE_TAPS + (DIVERSITY_TAP,)


@pytest.fixture(scope="module")
def ext():
    return build_extractor(ExtractorConfig(seed=11))


def rand_image(h=32, w=32, seed=0):
    g = np.random.default_rng(seed)
    return g.uniform(-1, 1, size=(1, 3, h, w)).astype(np.float32)


def test_same_seed_identical_weights():
    a = build_extractor(ExtractorConfig(seed=5))
    b = build_extractor(ExtractorConfig(seed=5))
    assert a.signature() == b.signature()
    for name in a.weights:
        np.testing.assert_array_equal(a.weights[name], b.weights[name])


def test_different_seed_different_weights():
    a = build_extractor(ExtractorConfig(seed=5))
    b = build_extractor(ExtractorConfig(seed=6))
    assert a.signature() != b.signature()


def test_tap_spatial_sizes(ext):
    feats = extract(ext, Tensor(rand_image()), ALL_TAPS)
    sizes = {name: feats[name].shape for name in ALL_TAPS}
    assert sizes["conv1_1"] == (1, 8, 32, 32)
    assert sizes["conv2_1"] == (1, 16, 16, 16)
    assert sizes["conv3_1"] == (1, 32, 8, 8)
    assert sizes["conv4_1"] == (1, 64, 4, 4)
    assert sizes["conv4_2"] == (1, 64, 4, 4)
    assert sizes["conv5_1"] == (1, 64, 2, 2)


def test_zero_image_zero_taps(ext):
    feats = extract(ext, Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32)), ALL_TAPS)
    for name, t in feats.items():
        np.testing.assert_array_equal(t.data, np.zeros_like(t.data))


def test_extract_is_pure(ext):
    img = Tensor(rand_image())
    a = extract(ext, img, ["conv4_2"])["conv4_2"].data
    b = extract(ext, img, ["conv4_2"])["conv4_2"].data
    np.testing.assert_array_equal(a, b)


def test_unknown_tap_rejected(ext):
    with pytest.raises(ValueError):
        extract(ext, Tensor(rand_image()), ["conv9_1"])
    with pytest.raises(ValueError):
        extract(ext, Tensor(rand_image()), ["pool3"])


def test_indivisible_size_rejected(ext):
    with pytest.raises(ShapeError):
        extract(ext, Tensor(rand_image(24, 24)), ["conv1_1"])


def test_wrong_channel_count_rejected(ext):
    with pytest.raises(ShapeError):
        extract(ext, Tensor(np.zeros((1, 4, 32, 32), dtype=np.float32)), ["conv1_1"])
    # rank 3 (one image without its batch axis) is rejected like any other rank
    for shape in ((3, 32, 32), (1, 1, 3, 32, 32)):
        with pytest.raises(ShapeError, match=r"\[N,3,H,W\]"):
            extract(ext, Tensor(np.zeros(shape, dtype=np.float32)), ["conv1_1"])


def test_weights_frozen_through_backward(ext):
    before = ext.signature()
    img = Tensor(rand_image(), requires_grad=True)
    feats = extract(ext, img, ["conv4_1"])
    (grad,) = backward(feats["conv4_1"].sum(), [img])
    assert ext.signature() == before
    assert np.any(grad != 0)


def test_gradient_wrt_image_matches_finite_differences(ext):
    # small input keeps the finite-difference sweep cheap
    cfg = ExtractorConfig(stage_channels=(4, 6, 8), convs_per_stage=(1, 1, 1), seed=3)
    small = build_extractor(cfg)
    img = np.random.default_rng(4).uniform(-1, 1, size=(1, 3, 8, 8))
    t = Tensor(img, requires_grad=True, dtype=CHECK_DTYPE)
    (grad,) = backward(extract(small, t, ["conv3_1"])["conv3_1"].sum(), [t])

    def value(x):
        return float(
            extract(small, Tensor(x, dtype=CHECK_DTYPE), ["conv3_1"])["conv3_1"]
            .sum()
            .data
        )

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
    num = num.reshape(img.shape)
    err = np.max(np.abs(grad - num) / np.maximum(1.0, np.abs(num)))
    assert err < 1e-3


def test_weight_file_roundtrip(ext, tmp_path):
    path = str(tmp_path / "extractor.bin")
    serialize.save_tensors(path, ext.weights)
    loaded = build_extractor(ExtractorConfig(seed=11, weight_file=path))
    assert loaded.signature() == ext.signature()
    img = Tensor(rand_image())
    a = extract(ext, img, ["conv5_1"])["conv5_1"].data
    b = extract(loaded, img, ["conv5_1"])["conv5_1"].data
    np.testing.assert_array_equal(a, b)


def test_malformed_weight_file_names_expected_shape(ext, tmp_path):
    path = str(tmp_path / "bad.bin")
    weights = dict(ext.weights)
    weights["conv1_1.kernel"] = np.zeros((2, 2), dtype=np.float32)
    serialize.save_tensors(path, weights)
    with pytest.raises(serialize.WeightFormatError, match=r"conv1_1.kernel.*\(8, 3, 3, 3\)"):
        build_extractor(ExtractorConfig(weight_file=path))

    weights = dict(ext.weights)
    del weights["conv5_1.bias"]
    serialize.save_tensors(path, weights)
    with pytest.raises(serialize.WeightFormatError, match="conv5_1.bias"):
        build_extractor(ExtractorConfig(weight_file=path))


def test_bad_config_rejected(ext):
    with pytest.raises(ValueError):
        ExtractorConfig(stage_channels=(8, 16), convs_per_stage=(1,))
    image = Tensor(rand_image())
    with pytest.raises(ValueError, match="duplicate tap"):
        extract(ext, image, ("conv1_1", "conv1_1"))
    with pytest.raises(ValueError, match="does not resolve"):
        extract(ext, image, ("conv1_2",))  # stage 1 has a single conv
