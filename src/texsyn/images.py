"""PNG image I/O and pixel/tensor conversion.

The codec is self-contained on top of zlib: it reads 8-bit grayscale,
RGB, and their alpha variants (alpha is dropped, grayscale replicated to
three channels) and writes 8-bit RGB.  Parse failures report the byte
offset where the file stopped making sense, so truncation and corruption
are distinguishable.  Row filters are undone one anti-diagonal of pixels at
a time (see ``_unfilter``), H + W - 1 numpy steps for an HxW image, with
no per-byte Python loop.

Pixels map to tensors by x = 2*(p/255) - 1, so 0 -> -1.0 and 255 -> +1.0.
The inverse clamps to [-1, 1] and quantizes with round-half-up; the
roundtrip is exact for every 8-bit value.
"""

from __future__ import annotations

import struct
import sys
import zlib
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor

_SIGNATURE = b"\x89PNG\r\n\x1a\n"


class PngError(ValueError):
    """Malformed PNG; the message names the failing byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass
class ImageBuffer:
    """8-bit RGB pixels, row-major [height, width, 3]."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
            raise ValueError(
                f"image buffer must be uint8 [H,W,3], got {arr.dtype} {arr.shape}"
            )
        self.data = arr

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


# channels per PNG color type we accept (all at bit depth 8)
_TYPE_CHANNELS = {0: 1, 2: 3, 4: 2, 6: 4}


def load_image(path: str) -> ImageBuffer:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != _SIGNATURE:
        raise PngError("not a PNG file: bad signature", 0)

    off = 8
    header = None
    idat = bytearray()
    idat_offset = None
    seen_end = False
    while off < len(blob):
        if off + 8 > len(blob):
            raise PngError("truncated chunk header", off)
        (length,) = struct.unpack(">I", blob[off : off + 4])
        ctype = blob[off + 4 : off + 8]
        data_start = off + 8
        data_end = data_start + length
        if data_end + 4 > len(blob):
            raise PngError(f"truncated {ctype!r} chunk", off)
        data = blob[data_start:data_end]
        (crc,) = struct.unpack(">I", blob[data_end : data_end + 4])
        if zlib.crc32(ctype + data) != crc:
            raise PngError(f"CRC mismatch in {ctype!r} chunk", data_end)
        if ctype == b"IHDR":
            if length != 13:
                raise PngError(f"IHDR length {length} != 13", off)
            header = struct.unpack(">IIBBBBB", data)
        elif ctype == b"IDAT":
            if header is None:
                raise PngError("IDAT before IHDR", off)
            if idat_offset is None:
                idat_offset = off
            idat += data
        elif ctype == b"IEND":
            seen_end = True
            off = data_end + 4
            break
        # ancillary chunks are skipped
        off = data_end + 4
    if header is None:
        raise PngError("missing IHDR chunk", off)
    if not seen_end:
        raise PngError("missing IEND chunk", off)

    width, height, depth, color_type, compression, filt, interlace = header
    if width == 0 or height == 0:
        raise PngError(f"invalid dimensions {width}x{height}", 16)
    if depth != 8:
        raise PngError(f"unsupported bit depth {depth}, need 8", 24)
    if color_type not in _TYPE_CHANNELS:
        raise PngError(f"unsupported color type {color_type}", 25)
    if compression != 0 or filt != 0:
        raise PngError("unsupported compression/filter method", 26)
    if interlace != 0:
        raise PngError("interlaced PNG not supported", 28)

    if idat_offset is None:
        raise PngError("no IDAT chunk", off)
    channels = _TYPE_CHANNELS[color_type]
    stride = width * channels
    expected = (stride + 1) * height
    # inflate at most one byte past the expected size, so a small file
    # cannot expand to an unbounded buffer before the length check; zlib
    # takes the limit as a C ssize_t, which header sizes can overflow
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(idat, min(expected + 1, sys.maxsize))
    except zlib.error as e:
        raise PngError(f"corrupt image data: {e}", idat_offset) from None
    if len(raw) != expected or not inflater.eof:
        raise PngError(f"image data does not inflate to {expected} bytes", idat_offset)
    pixels = _unfilter(raw, height, stride, channels)
    pixels = pixels.reshape(height, width, channels)

    if color_type == 0:
        rgb = np.repeat(pixels, 3, axis=2)
    elif color_type == 2:
        rgb = pixels
    elif color_type == 4:
        rgb = np.repeat(pixels[:, :, :1], 3, axis=2)
    else:  # RGBA
        rgb = pixels[:, :, :3]
    return ImageBuffer(np.ascontiguousarray(rgb))


def _unfilter(raw: bytes, height: int, stride: int, bpp: int) -> np.ndarray:
    """Undo the per-row filters of a decompressed stream of (1 + stride)-byte rows.

    Decodes one anti-diagonal t = y + x of pixels per step.  Every filter
    predicts a byte from at most its left (y, x-1), up (y-1, x) and
    up-left (y-1, x-1) neighbours, which lie on diagonals t-1 and t-2, so
    all rows that diagonal t crosses decode at once, each by its own
    filter type.  Types 0-3 predict ``(wa*left + wb*up) >> s`` with 0/1
    weights per row; the Paeth predictor is computed only on diagonals that
    cross a Paeth row.

    Cost: W + H - 1 steps for a W-pixel-wide image of H rows, about six
    numpy operations on min(W, H) rows each, and a dozen more on Paeth
    diagonals.  Diagonals t-1 and t-2 live channel-major in two
    [bpp, 1 + H] buffers; column 0 stands for row -1 and stays zero, and
    so does every x = -1 entry, which no step has written yet when it is
    read.  Each output byte is stored once, through a strided view of the
    diagonals.  Every filter type is checked before decoding, so the first
    bad row is the one named.
    """
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    types = rows[:, 0]
    bad = np.flatnonzero(types > 4)
    if bad.size:
        y = int(bad[0])
        raise PngError(
            f"unknown filter type {types[y]} in row {y} of the decompressed stream",
            y * (stride + 1),
        )
    width = stride // bpp
    steps = width + height - 1
    out = np.empty((height, stride), dtype=np.uint8)
    # [diagonal t, channel, row y] views of the output and of the filtered
    # bytes; every (t, y) with 0 <= t - y < width lies inside the buffer
    diag_out = np.lib.stride_tricks.as_strided(
        out, shape=(steps, bpp, height), strides=(bpp, 1, stride - bpp)
    )
    diag_raw = np.lib.stride_tricks.as_strided(
        rows.reshape(-1)[1:], shape=(steps, bpp, height), strides=(bpp, 1, stride + 1 - bpp)
    )
    wa = np.isin(types, (1, 3)).astype(np.int16)
    wb = np.isin(types, (2, 3)).astype(np.int16)
    shift = (types == 3).astype(np.int16)
    paeth = types == 4
    paeth_before = np.concatenate(([0], np.cumsum(paeth)))
    prev, prev2 = np.zeros((2, bpp, height + 1), dtype=np.uint8)
    # predictions run on a window of a fixed number of rows that holds the
    # rows diagonal t crosses: numpy keeps freed buffers under 1 KB per byte
    # size, so temporaries sized per diagonal would each pin a cache entry
    span = min(height, width)
    for t in range(steps):
        y0, y1 = max(0, t - width + 1), min(height, t + 1)
        w0 = min(y0, height - span)
        w1 = w0 + span
        left, up, up_left = prev[:, w0 + 1 : w1 + 1], prev[:, w0:w1], prev2[:, w0:w1]
        predicted = (wa[w0:w1] * left + wb[w0:w1] * up) >> shift[w0:w1]
        if paeth_before[y1] > paeth_before[y0]:
            da = np.subtract(left, up_left, dtype=np.int16)
            db = np.subtract(up, up_left, dtype=np.int16)
            pa, pb, pc = np.abs(db), np.abs(da), np.abs(da + db)
            nearest = np.where(pa <= np.minimum(pb, pc), left, np.where(pb <= pc, up, up_left))
            predicted = np.where(paeth[w0:w1], nearest, predicted)
        # only rows y0..y1-1 are stored: entries for x = -1 must stay zero
        current = prev2[:, y0 + 1 : y1 + 1]  # diagonal t - 2 is read for the last time
        np.add(diag_raw[t, :, y0:y1], predicted[:, y0 - w0 : y1 - w0], out=current, casting="unsafe")
        diag_out[t, :, y0:y1] = current
        prev, prev2 = prev2, prev
    return out


def save_image(buffer: ImageBuffer, path: str) -> None:
    """Write 8-bit RGB, unfiltered scanlines, atomically."""
    from .serialize import atomic_write_bytes

    h, w = buffer.height, buffer.width
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    rows = bytearray()
    for y in range(h):
        rows += b"\x00" + buffer.data[y].tobytes()
    idat = zlib.compress(bytes(rows), 9)

    def chunk(ctype: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data))
            + ctype
            + data
            + struct.pack(">I", zlib.crc32(ctype + data))
        )

    blob = _SIGNATURE + chunk(b"IHDR", ihdr) + chunk(b"IDAT", idat) + chunk(b"IEND", b"")
    atomic_write_bytes(path, blob)


def normalize(buffer: ImageBuffer) -> Tensor:
    """[H,W,3] uint8 -> Tensor [3,H,W] in [-1,1]."""
    arr = buffer.data.astype(np.float32) / 255.0
    return Tensor(np.ascontiguousarray(arr.transpose(2, 0, 1)) * 2.0 - 1.0)


def denormalize(tensor) -> ImageBuffer:
    """Tensor or array [3,H,W] -> clamped, round-half-up 8-bit image."""
    arr = tensor.data if isinstance(tensor, Tensor) else np.asarray(tensor)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise ValueError(f"expected [3,H,W], got shape {arr.shape}")
    clamped = np.clip(arr.astype(np.float64), -1.0, 1.0)
    quantized = np.floor((clamped + 1.0) / 2.0 * 255.0 + 0.5)
    return ImageBuffer(quantized.astype(np.uint8).transpose(1, 2, 0))


def resize_box(buffer: ImageBuffer, width: int, height: int) -> ImageBuffer:
    """Area-averaging resize; each output pixel averages its source box."""
    if width < 1 or height < 1:
        raise ValueError(f"invalid target size {width}x{height}")
    src = buffer.data.astype(np.float64)
    resized = _box_axis(_box_axis(src, height, axis=0), width, axis=1)
    return ImageBuffer(np.floor(resized + 0.5).astype(np.uint8))


def _box_axis(arr: np.ndarray, target: int, axis: int) -> np.ndarray:
    """Average fractional source boxes along one axis."""
    source = arr.shape[axis]
    if source == target:
        return arr
    moved = np.moveaxis(arr, axis, 0)
    out = np.zeros((target,) + moved.shape[1:], dtype=np.float64)
    scale = source / target
    for i in range(target):
        # (i + 1) * scale can round past the source edge
        lo, hi = i * scale, min((i + 1) * scale, source)
        first, last = int(np.floor(lo)), int(np.ceil(hi))
        weights = np.ones(last - first)
        weights[0] -= lo - first
        weights[-1] -= last - hi
        segment = moved[first:last]
        out[i] = np.tensordot(weights, segment, axes=(0, 0)) / weights.sum()
    return np.moveaxis(out, 0, axis)
