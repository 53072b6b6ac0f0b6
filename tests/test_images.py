"""PNG codec and pixel/tensor conversion checks.

The decoder is exercised against a small independent encoder written in
this test file, which can emit any filter type and color type, so decode
paths never validate themselves against the package's own writer alone.
"""

import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import mutated
from texsyn.images import (
    ImageBuffer,
    PngError,
    _box_axis,
    _unfilter,
    denormalize,
    load_image,
    normalize,
    resize_box,
    save_image,
)


def reference_png(pixels: np.ndarray, color_type: int, filter_type=0) -> bytes:
    """Minimal independent PNG writer.

    ``filter_type`` is one filter for every row, a sequence of one filter
    per row, or ``"adaptive"``: each row takes the filter whose residuals,
    read as signed bytes, have the least absolute sum, as photo encoders
    choose them.
    """
    h, w, ch = pixels.shape
    sig = b"\x89PNG\r\n\x1a\n"
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    if isinstance(filter_type, int):
        filter_type = [filter_type] * h

    def chunk(ctype, data):
        return struct.pack(">I", len(data)) + ctype + data + struct.pack(
            ">I", zlib.crc32(ctype + data)
        )

    raw = bytearray()
    prev = np.zeros(w * ch, dtype=np.int32)
    for y in range(h):
        line = pixels[y].reshape(-1).astype(np.int32)
        left = np.concatenate([np.zeros(ch, np.int32), line[:-ch]])
        up_left = np.concatenate([np.zeros(ch, np.int32), prev[:-ch]])
        p = left + prev - up_left
        pa, pb, pc = np.abs(p - left), np.abs(p - prev), np.abs(p - up_left)
        paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, prev, up_left))
        residuals = [line, line - left, line - prev, line - (left + prev) // 2, line - paeth]
        residuals = [(r & 0xFF).astype(np.uint8) for r in residuals]
        if filter_type == "adaptive":
            f = 1 + int(np.argmin([np.abs(r.view(np.int8).astype(int)).sum() for r in residuals[1:]]))
        else:
            f = filter_type[y]
        raw.append(f)
        raw += residuals[f].tobytes()
        prev = line
    return sig + chunk(b"IHDR", ihdr) + chunk(b"IDAT", zlib.compress(bytes(raw))) + chunk(b"IEND", b"")


def png_filters(blob: bytes) -> list:
    """The filter type of every row of a one-IDAT RGB PNG."""
    width, height = struct.unpack(">II", blob[16:24])
    at = blob.index(b"IDAT")
    (length,) = struct.unpack(">I", blob[at - 4 : at])
    raw = zlib.decompress(blob[at + 4 : at + 4 + length])
    return list(raw[:: 3 * width + 1])


def random_rgb(h=13, w=9, seed=0):
    return np.random.default_rng(seed).integers(0, 256, (h, w, 3), dtype=np.uint8)


# ---------------------------------------------------------------------------
# decoding


@pytest.mark.parametrize("filter_type", [0, 1, 2, 3, 4])
def test_decode_rgb_all_filters(tmp_path, filter_type):
    pixels = random_rgb(seed=filter_type)
    path = str(tmp_path / "img.png")
    open(path, "wb").write(reference_png(pixels, color_type=2, filter_type=filter_type))
    buf = load_image(path)
    np.testing.assert_array_equal(buf.data, pixels)


def test_decode_grayscale_expands_channels(tmp_path):
    gray = np.random.default_rng(1).integers(0, 256, (5, 7, 1), dtype=np.uint8)
    path = str(tmp_path / "gray.png")
    open(path, "wb").write(reference_png(gray, color_type=0, filter_type=2))
    buf = load_image(path)
    assert buf.data.shape == (5, 7, 3)
    for c in range(3):
        np.testing.assert_array_equal(buf.data[:, :, c], gray[:, :, 0])


def test_decode_rgba_drops_alpha(tmp_path):
    g = np.random.default_rng(2)
    rgba = g.integers(0, 256, (6, 4, 4), dtype=np.uint8)
    path = str(tmp_path / "rgba.png")
    open(path, "wb").write(reference_png(rgba, color_type=6, filter_type=1))
    buf = load_image(path)
    np.testing.assert_array_equal(buf.data, rgba[:, :, :3])


def test_decode_gray_alpha(tmp_path):
    g = np.random.default_rng(3)
    ga = g.integers(0, 256, (4, 4, 2), dtype=np.uint8)
    path = str(tmp_path / "ga.png")
    open(path, "wb").write(reference_png(ga, color_type=4, filter_type=3))
    buf = load_image(path)
    for c in range(3):
        np.testing.assert_array_equal(buf.data[:, :, c], ga[:, :, 0])


def test_roundtrip_save_load(tmp_path):
    pixels = random_rgb(32, 32, seed=5)
    path = str(tmp_path / "rt.png")
    save_image(ImageBuffer(pixels), path)
    np.testing.assert_array_equal(load_image(path).data, pixels)


def test_ancillary_chunks_skipped(tmp_path):
    pixels = random_rgb(3, 3, seed=6)
    blob = reference_png(pixels, color_type=2)
    # splice a tEXt chunk between IHDR and IDAT
    text = b"comment\x00hello"
    extra = struct.pack(">I", len(text)) + b"tEXt" + text + struct.pack(
        ">I", zlib.crc32(b"tEXt" + text)
    )
    ihdr_end = 8 + 8 + 13 + 4
    path = str(tmp_path / "txt.png")
    open(path, "wb").write(blob[:ihdr_end] + extra + blob[ihdr_end:])
    np.testing.assert_array_equal(load_image(path).data, pixels)


# ---------------------------------------------------------------------------
# error reporting


def err_offset(path):
    with pytest.raises(PngError) as info:
        load_image(path)
    return info.value.offset, str(info.value)


def test_bad_signature(tmp_path):
    path = str(tmp_path / "bad.png")
    open(path, "wb").write(b"JFIF" + b"\x00" * 100)
    offset, msg = err_offset(path)
    assert offset == 0 and "signature" in msg


def test_truncated_file_reports_offset(tmp_path):
    blob = reference_png(random_rgb(4, 4), color_type=2)
    path = str(tmp_path / "trunc.png")
    open(path, "wb").write(blob[: len(blob) - 10])
    offset, msg = err_offset(path)
    assert offset > 8
    assert "byte offset" in msg


def test_crc_corruption_reports_offset(tmp_path):
    blob = bytearray(reference_png(random_rgb(4, 4), color_type=2))
    blob[20] ^= 0xFF  # inside IHDR payload
    path = str(tmp_path / "crc.png")
    open(path, "wb").write(bytes(blob))
    offset, msg = err_offset(path)
    assert "CRC" in msg and offset > 0


def test_unsupported_bit_depth(tmp_path):
    pixels = random_rgb(2, 2)
    blob = bytearray(reference_png(pixels, color_type=2))
    blob[24] = 16  # bit-depth byte inside IHDR
    # fix the CRC so the depth check itself is reached
    ihdr = bytes(blob[12:16]) + bytes(blob[16:29])
    blob[29:33] = struct.pack(">I", zlib.crc32(ihdr))
    path = str(tmp_path / "deep.png")
    open(path, "wb").write(bytes(blob))
    offset, msg = err_offset(path)
    assert "bit depth" in msg


def test_corrupt_idat_reports_offset(tmp_path):
    blob = bytearray(reference_png(random_rgb(4, 4), color_type=2))
    idat_at = blob.find(b"IDAT")
    blob[idat_at + 6] ^= 0xFF  # corrupt compressed payload
    payload_len = struct.unpack(">I", blob[idat_at - 4 : idat_at])[0]
    body = bytes(blob[idat_at : idat_at + 4 + payload_len])
    blob[idat_at + 4 + payload_len : idat_at + 8 + payload_len] = struct.pack(
        ">I", zlib.crc32(body)
    )
    path = str(tmp_path / "idat.png")
    open(path, "wb").write(bytes(blob))
    offset, msg = err_offset(path)
    assert "corrupt image data" in msg


def png_with_idat(width, height, idat):
    def chunk(ctype, data):
        return struct.pack(">I", len(data)) + ctype + data + struct.pack(
            ">I", zlib.crc32(ctype + data)
        )

    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    sig = b"\x89PNG\r\n\x1a\n"
    return sig + chunk(b"IHDR", ihdr) + chunk(b"IDAT", idat) + chunk(b"IEND", b"")


def test_decompression_bomb_rejected_in_bounded_memory(tmp_path):
    import tracemalloc

    # 64 MiB of zeros deflate to about 64 KB; the header promises 1x1 RGB
    deflater = zlib.compressobj(9)
    zeros = bytes(1 << 20)
    idat = b"".join(deflater.compress(zeros) for _ in range(64)) + deflater.flush()
    path = str(tmp_path / "bomb.png")
    open(path, "wb").write(png_with_idat(1, 1, idat))
    assert os.path.getsize(path) < 70_000
    tracemalloc.start()
    try:
        with pytest.raises(PngError, match="inflate"):
            load_image(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_header_sizes_past_the_inflate_limit_raise_png_error(tmp_path):
    # (3·w + 1)·h overflows the C ssize_t limit that zlib takes
    path = str(tmp_path / "huge.png")
    open(path, "wb").write(png_with_idat(0x3E000000, 0xB1000004, zlib.compress(bytes(7))))
    with pytest.raises(PngError, match="inflate"):
        load_image(path)


def test_truncated_image_stream_rejected(tmp_path):
    raw = bytes(1 + 2 * 3) * 2  # two filter-0 rows of a 2x2 RGB image
    path = str(tmp_path / "cut.png")
    open(path, "wb").write(png_with_idat(2, 2, zlib.compress(raw)[:-4]))  # no checksum
    with pytest.raises(PngError, match="inflate"):
        load_image(path)
    open(path, "wb").write(png_with_idat(2, 2, zlib.compress(raw)))
    assert load_image(path).data.shape == (2, 2, 3)


def test_missing_iend(tmp_path):
    blob = reference_png(random_rgb(2, 2), color_type=2)
    path = str(tmp_path / "noend.png")
    open(path, "wb").write(blob[: len(blob) - 12])
    with pytest.raises(PngError):
        load_image(path)


def per_byte_paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def per_byte_unfilter(raw: bytes, height: int, stride: int, bpp: int) -> np.ndarray:
    """The decoder's earlier unfilter, one numpy byte at a time: the oracle."""
    out = np.zeros((height, stride), dtype=np.uint8)
    pos = 0
    for y in range(height):
        ftype = raw[pos]
        pos += 1
        line = np.frombuffer(raw, dtype=np.uint8, count=stride, offset=pos).copy()
        pos += stride
        prev = out[y - 1] if y else np.zeros(stride, dtype=np.uint8)
        if ftype == 0:
            out[y] = line
        elif ftype == 1:
            for i in range(stride):
                left = out[y, i - bpp] if i >= bpp else 0
                out[y, i] = (int(line[i]) + int(left)) & 0xFF
        elif ftype == 2:
            out[y] = line + prev
        elif ftype == 3:
            for i in range(stride):
                left = int(out[y, i - bpp]) if i >= bpp else 0
                out[y, i] = (int(line[i]) + (left + int(prev[i])) // 2) & 0xFF
        elif ftype == 4:
            for i in range(stride):
                left = int(out[y, i - bpp]) if i >= bpp else 0
                up_left = int(prev[i - bpp]) if i >= bpp else 0
                out[y, i] = (int(line[i]) + per_byte_paeth(left, int(prev[i]), up_left)) & 0xFF
        else:
            raise ValueError(f"unknown filter type {ftype}")
    return out


def random_stream(filters, stride, seed) -> bytes:
    """Rows of random filtered bytes, each led by its filter type."""
    rng = np.random.default_rng(seed)
    return b"".join(bytes([f]) + rng.integers(0, 256, stride, dtype=np.uint8).tobytes() for f in filters)


@given(
    st.sampled_from([0, 2, 4, 6]),
    st.integers(1, 40),
    st.integers(1, 40),
    st.lists(st.integers(0, 4), min_size=40, max_size=40),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_unfilter_equals_the_per_byte_decoder(color_type, width, height, filters, seed):
    bpp = {0: 1, 2: 3, 4: 2, 6: 4}[color_type]
    stride = width * bpp
    raw = random_stream(filters[:height], stride, seed)
    want = per_byte_unfilter(raw, height, stride, bpp)
    np.testing.assert_array_equal(_unfilter(raw, height, stride, bpp), want)


@pytest.mark.parametrize("width, height", [(1, 300), (300, 1), (1, 1)])
@pytest.mark.parametrize("bpp", [1, 3, 4])
def test_unfilter_single_row_and_single_column(width, height, bpp):
    stride = width * bpp
    raw = random_stream([y % 5 for y in range(height)], stride, seed=width + 7 * height + bpp)
    np.testing.assert_array_equal(_unfilter(raw, height, stride, bpp), per_byte_unfilter(raw, height, stride, bpp))


def test_decode_256x256_with_rows_cycling_through_every_filter(tmp_path):
    pixels = random_rgb(256, 256, seed=8)
    filters = [y % 5 for y in range(256)]
    path = str(tmp_path / "cycle.png")
    blob = reference_png(pixels, color_type=2, filter_type=filters)
    assert png_filters(blob) == filters
    open(path, "wb").write(blob)
    np.testing.assert_array_equal(load_image(path).data, pixels)


def test_unknown_filter_type_names_its_row(tmp_path):
    raw = b"\x00" + bytes(6) + b"\x05" + bytes(6)  # rows 0 and 1 of a 2x2 RGB image
    path = str(tmp_path / "filter5.png")
    open(path, "wb").write(png_with_idat(2, 2, zlib.compress(raw)))
    with pytest.raises(PngError, match="filter type 5 in row 1") as info:
        load_image(path)
    assert info.value.offset == 7


@pytest.mark.parametrize(
    "filters, bpp, bad_row",
    [([3, 4, 3, 4, 7, 2], 3, 4), ([4, 3, 9, 1, 255, 0], 4, 2)],
    ids=["after-average-and-paeth", "first-of-two"],
)
def test_unknown_filter_type_is_reported_at_its_row(filters, bpp, bad_row):
    stride = 5 * bpp
    raw = random_stream(filters, stride, seed=9)
    with pytest.raises(PngError, match=f"filter type {filters[bad_row]} in row {bad_row} of") as info:
        _unfilter(raw, len(filters), stride, bpp)
    assert info.value.offset == bad_row * (stride + 1)


def test_decode_memory_stays_within_five_times_the_pixels(tmp_path):
    import tracemalloc

    # four bands with grain, so the adaptive encoder picks every filter
    y, x = np.mgrid[0:256, 0:256]
    c = np.arange(3)
    bands = [
        128 + 80 * np.sin(x[..., None] / 5.0 + c),  # vertical stripes: Up
        128 + 80 * np.sin(y[..., None] / 5.0 + c),  # horizontal stripes: Sub
        128 + 60 * np.sin(x[..., None] / 23.0) * np.cos(y[..., None] / 31.0 + c),  # Average
        128 + 50 * np.sin((x + y)[..., None] / 11.0) + 50 * np.sin((x - y)[..., None] / 13.0),  # Paeth
    ]
    shade = np.choose((y // 64)[..., None], bands)
    grain = np.random.default_rng(11).normal(0, 2, (256, 256, 3))
    pixels = np.clip(shade + grain, 0, 255).astype(np.uint8)
    blob = reference_png(pixels, color_type=2, filter_type="adaptive")
    assert {1, 2, 3, 4} <= set(png_filters(blob))
    path = str(tmp_path / "photo.png")
    open(path, "wb").write(blob)
    load_image(path)  # lazy numpy set-up stays out of the traced window
    tracemalloc.start()
    try:
        image = load_image(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(image.data, pixels)
    assert peak <= 5 * pixels.nbytes


VALID_PNG = reference_png(
    np.random.default_rng(0).integers(0, 256, (4, 5, 3), dtype=np.uint8), color_type=2, filter_type=4
)
MIXED_FILTER_PNG = reference_png(
    np.random.default_rng(1).integers(0, 256, (7, 6, 3), dtype=np.uint8),
    color_type=2,
    filter_type=[3, 4, 1, 4, 2, 3, 0],
)


def with_fixed_crcs(blob: bytes) -> bytes:
    """``blob`` with the CRC of every whole chunk recomputed, so that a
    mutation reaches the checks behind the CRC check."""
    out = bytearray(blob)
    off = 8
    while off + 8 <= len(out):
        (length,) = struct.unpack(">I", out[off : off + 4])
        end = off + 8 + length
        if end + 4 > len(out):
            break
        out[end : end + 4] = struct.pack(">I", zlib.crc32(out[off + 4 : end]))
        off = end + 4
    return bytes(out)


@given(st.one_of(mutated(VALID_PNG), mutated(MIXED_FILTER_PNG)), st.booleans())
@settings(max_examples=300, deadline=None)
def test_mutated_pngs_load_or_raise_png_error(tmp_path_factory, blob, fix_crcs):
    path = tmp_path_factory.getbasetemp() / "fuzz.png"
    path.write_bytes(with_fixed_crcs(blob) if fix_crcs else blob)
    try:
        image = load_image(str(path))
    except PngError:
        return
    assert image.data.dtype == np.uint8 and image.data.ndim == 3


# ---------------------------------------------------------------------------
# normalize / denormalize


def test_normalize_endpoints_and_midpoint():
    buf = ImageBuffer(np.array([[[0, 128, 255]]], dtype=np.uint8))
    t = normalize(buf)
    assert t.shape == (3, 1, 1)
    assert t.data[0, 0, 0] == pytest.approx(-1.0)
    assert t.data[1, 0, 0] == pytest.approx(2 * 128 / 255 - 1, abs=1e-6)  # 0.00392...
    assert t.data[2, 0, 0] == pytest.approx(1.0)


def test_roundtrip_exhaustive_all_byte_values():
    values = np.arange(256, dtype=np.uint8)
    buf = ImageBuffer(np.stack([values, values, values], axis=-1).reshape(16, 16, 3))
    back = denormalize(normalize(buf))
    np.testing.assert_array_equal(back.data, buf.data)


def test_denormalize_clamps_out_of_range():
    arr = np.array([[[-2.0]], [[0.0]], [[2.0]]])
    buf = denormalize(arr)
    assert buf.data[0, 0, 0] == 0
    assert buf.data[0, 0, 2] == 255


def test_denormalize_round_half_up():
    # x chosen so ((x+1)/2)*255 = 100.5 exactly; half rounds up to 101
    x = 2 * (100.5 / 255.0) - 1.0
    buf = denormalize(np.full((3, 1, 1), x))
    assert buf.data[0, 0, 0] == 101


def test_quantization_error_bound():
    g = np.random.default_rng(0)
    arr = g.uniform(-1, 1, (3, 8, 8))
    back = normalize(denormalize(arr)).data
    assert np.max(np.abs(back - arr)) <= 1 / 255 + 1e-9


# ---------------------------------------------------------------------------
# resize


def test_resize_box_downscale_exact_average():
    pixels = np.arange(4 * 4 * 3, dtype=np.uint8).reshape(4, 4, 3)
    out = resize_box(ImageBuffer(pixels), 2, 2)
    want = pixels.astype(np.float64).reshape(2, 2, 2, 2, 3).mean(axis=(1, 3))
    np.testing.assert_array_equal(out.data, np.floor(want + 0.5).astype(np.uint8))


def test_resize_box_identity():
    pixels = random_rgb(8, 8)
    out = resize_box(ImageBuffer(pixels), 8, 8)
    np.testing.assert_array_equal(out.data, pixels)


def test_resize_box_upscale_and_constant_preservation():
    pixels = np.full((3, 5, 3), 77, dtype=np.uint8)
    out = resize_box(ImageBuffer(pixels), 16, 16)
    assert out.data.shape == (16, 16, 3)
    assert np.all(out.data == 77)


def test_resize_box_fractional_boxes():
    pixels = np.zeros((3, 3, 3), dtype=np.uint8)
    pixels[:, :, 0] = [[0, 90, 180], [30, 120, 210], [60, 150, 240]]
    out = resize_box(ImageBuffer(pixels), 2, 2)
    # each 1.5x1.5 source box: mean with fractional edge weights,
    # separable per axis, so corner weights multiply
    assert out.data.shape == (2, 2, 3)
    want00 = (0 * 1.0 + 90 * 0.5 + 30 * 0.5 + 120 * 0.25) / 2.25
    assert out.data[0, 0, 0] == int(np.floor(want00 + 0.5))


def box_weights(source: int, target: int) -> np.ndarray:
    """Exact box-integral weights [target, source]: output pixel i averages
    the source over [i·source/target, (i+1)·source/target]; in units of
    1/target, its overlap with source pixel j is an integer."""
    i = np.arange(target)[:, None]
    j = np.arange(source)[None, :]
    overlap = np.minimum((j + 1) * target, (i + 1) * source) - np.maximum(j * target, i * source)
    return np.clip(overlap, 0, None) / source


@given(st.integers(1, 1024), st.integers(1, 256), st.integers(0, 1), st.integers(0, 2**32 - 1))
@example(21, 19, 0, 0)
@example(25, 11, 1, 0)
@example(29, 7, 0, 0)
@settings(max_examples=60, deadline=None)
def test_resize_box_axis_equals_the_exact_box_integral(source, target, axis, seed):
    shape = [3, 3]
    shape[axis] = source
    pixels = np.random.default_rng(seed).integers(0, 256, (*shape, 3)).astype(np.uint8)
    values = pixels.astype(np.float64)
    want = np.moveaxis(np.tensordot(box_weights(source, target), np.moveaxis(values, axis, 0), axes=1), 0, axis)
    np.testing.assert_allclose(_box_axis(values, target, axis), want, rtol=0, atol=1e-9)
    size = [3, 3]
    size[axis] = target
    out = resize_box(ImageBuffer(pixels), size[1], size[0])
    assert out.data.shape == (*size, 3)
    assert np.abs(out.data.astype(np.float64) - want).max() <= 0.5 + 1e-9


def test_buffer_validation():
    with pytest.raises(ValueError):
        ImageBuffer(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        ImageBuffer(np.zeros((4, 4, 3), dtype=np.float32))
