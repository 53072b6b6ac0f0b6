"""The benchmark's own PNG codec, independent of texsyn.images.

The encoder writes 8-bit RGB with a filter chosen per row from types 1-4
(Sub, Up, Average, Paeth) by the minimum-sum-of-absolute-residuals rule
that photo encoders use, and splits the deflate stream over several IDAT
chunks.  texsyn's own writer only emits filter type 0, so without these
files the decoder's per-byte unfilter loops would never run.

The decoder reads what either writer produces (8-bit RGB, filters 0-4)
and is used to check the program's PNG output against the benchmark's own
numpy computations.

Run ``python3 bench/pngcodec.py`` from the repository root for the
self-test: encode, decode with this module and with texsyn, and compare
the pixel arrays exactly.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

SIGNATURE = b"\x89PNG\r\n\x1a\n"
IDAT_CHUNK = 8192  # bytes of deflate stream per IDAT chunk


def _chunk(ctype: bytes, data: bytes) -> bytes:
    crc = zlib.crc32(ctype + data)
    return struct.pack(">I", len(data)) + ctype + data + struct.pack(">I", crc)


def _paeth_predict(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    p = a + b - c
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    return np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))


def filter_rows(pixels: np.ndarray) -> tuple:
    """Filtered scanlines and the chosen filter type of each row."""
    h, w, ch = pixels.shape
    x = pixels.reshape(h, w * ch).astype(np.int16)
    left = np.zeros_like(x)
    left[:, ch:] = x[:, :-ch]
    up = np.zeros_like(x)
    up[1:] = x[:-1]
    up_left = np.zeros_like(x)
    up_left[1:, ch:] = x[:-1, :-ch]
    candidates = np.stack(
        [
            x - left,
            x - up,
            x - (left + up) // 2,
            x - _paeth_predict(left, up, up_left),
        ]
    ).astype(np.uint8)  # [4, h, stride], residuals mod 256
    cost = np.abs(candidates.view(np.int8).astype(np.int32)).sum(axis=2)
    choice = cost.argmin(axis=0)  # [h], 0..3 -> filter types 1..4
    rows = candidates[choice, np.arange(h)]
    return rows, choice + 1


def encode(pixels: np.ndarray) -> bytes:
    """8-bit RGB [H,W,3] -> PNG bytes with adaptive filters 1-4."""
    if pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError(f"expected uint8 [H,W,3], got {pixels.dtype} {pixels.shape}")
    h, w, _ = pixels.shape
    rows, types = filter_rows(pixels)
    raw = np.concatenate([types.astype(np.uint8)[:, None], rows], axis=1).tobytes()
    stream = zlib.compress(raw, 6)
    blob = bytearray(SIGNATURE)
    blob += _chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0))
    for start in range(0, len(stream), IDAT_CHUNK):
        blob += _chunk(b"IDAT", stream[start : start + IDAT_CHUNK])
    blob += _chunk(b"IEND", b"")
    return bytes(blob)


def decode(blob: bytes) -> np.ndarray:
    """PNG bytes (8-bit RGB, not interlaced) -> uint8 [H,W,3]."""
    if blob[:8] != SIGNATURE:
        raise ValueError("not a PNG signature")
    off, header, idat = 8, None, bytearray()
    while off < len(blob):
        (length,) = struct.unpack(">I", blob[off : off + 4])
        ctype = blob[off + 4 : off + 8]
        data = blob[off + 8 : off + 8 + length]
        (crc,) = struct.unpack(">I", blob[off + 8 + length : off + 12 + length])
        if zlib.crc32(ctype + data) != crc:
            raise ValueError(f"CRC mismatch in {ctype!r}")
        if ctype == b"IHDR":
            header = struct.unpack(">IIBBBBB", data)
        elif ctype == b"IDAT":
            idat += data
        elif ctype == b"IEND":
            break
        off += 12 + length
    if header is None:
        raise ValueError("no IHDR")
    w, h, depth, color, _, _, interlace = header
    if (depth, color, interlace) != (8, 2, 0):
        raise ValueError(f"unsupported PNG header {header}")
    ch, stride = 3, w * 3
    raw = np.frombuffer(zlib.decompress(bytes(idat)), dtype=np.uint8)
    if raw.size != h * (stride + 1):
        raise ValueError(f"image data has {raw.size} bytes, expected {h * (stride + 1)}")
    lines = raw.reshape(h, stride + 1)
    out = np.zeros((h, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.int64)
    for y in range(h):
        ftype, line = lines[y, 0], lines[y, 1:].astype(np.int64)
        if ftype == 0:
            cur = line
        elif ftype == 1:
            cur = line.reshape(w, ch).cumsum(axis=0).reshape(stride) & 0xFF
        elif ftype == 2:
            cur = (line + prev) & 0xFF
        elif ftype in (3, 4):
            cur = _unfilter_sequential(line.tolist(), prev.tolist(), ch, ftype)
        else:
            raise ValueError(f"unknown filter type {ftype} in row {y}")
        out[y] = cur
        prev = np.asarray(cur, dtype=np.int64)
    return out.reshape(h, w, ch)


def _unfilter_sequential(line: list, prev: list, bpp: int, ftype: int) -> np.ndarray:
    cur = [0] * len(line)
    for i, value in enumerate(line):
        a = cur[i - bpp] if i >= bpp else 0
        b = prev[i]
        if ftype == 3:
            pred = (a + b) // 2
        else:
            c = prev[i - bpp] if i >= bpp else 0
            p = a + b - c
            pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
            pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
        cur[i] = (value + pred) & 0xFF
    return np.asarray(cur, dtype=np.int64)


def self_test(images: list, path: str, load_image) -> list:
    """Problems found when ``images`` round-trip through both decoders.

    ``path`` is where each encoded file is written; ``load_image`` is
    texsyn's reader.  Also confirms that the encoder chose every filter
    type 1-4 somewhere in ``images``, so the program's decoder met each.
    """
    problems, used = [], set()
    for n, pixels in enumerate(images):
        blob = encode(pixels)
        used |= set(filter_rows(pixels)[1].tolist())
        if not np.array_equal(decode(blob), pixels):
            problems.append(f"image {n}: own decoder does not return the encoded pixels")
        with open(path, "wb") as f:
            f.write(blob)
        if not np.array_equal(load_image(path).data, pixels):
            problems.append(f"image {n}: texsyn load_image does not return the encoded pixels")
    if {1, 2, 3, 4} - used:
        problems.append(f"encoder never chose filter types {sorted({1, 2, 3, 4} - used)}")
    return problems


if __name__ == "__main__":
    import os
    import sys

    sys.dont_write_bytecode = True
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, here)
    from inputs import exemplar_image, photo_image  # noqa: E402
    from texsyn.images import load_image  # noqa: E402

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "selftest.png")
    found = []
    for seed in range(3):
        images = [exemplar_image(k, seed) for k in (1, 2, 3)] + [photo_image(seed)]
        found += [f"seed {seed}: {p}" for p in self_test(images, path, load_image)]
    os.unlink(path)
    for problem in found:
        print(problem)
    print("pngcodec self-test:", "FAIL" if found else "ok")
    sys.exit(1 if found else 0)
