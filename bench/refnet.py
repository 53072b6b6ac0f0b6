"""Reference computations made apart from the program, in float64 numpy.

- ``read_txw1`` parses a texsyn model file from its documented layout.
- ``generator_forward`` re-derives a synthesis image from the model file's
  tensors, to check what ``texsyn synth`` wrote.
- ``FeatureNet`` is the yardstick for ``texture_distance``: a small random
  conv net with its own widths and seed, so a change to texsyn's loss
  network cannot move the metric.
"""

from __future__ import annotations

import struct

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

NOISE_STREAM_ID = 3  # texsyn.rng.STREAMS["noise"]; ids there are never renumbered


def read_txw1(path: str) -> dict:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != b"TXW1":
        raise ValueError("not a TXW1 file")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != 1:
        raise ValueError(f"TXW1 version {version}")
    off, out = 12, {}
    for _ in range(count):
        (n,) = struct.unpack_from("<H", blob, off)
        name = blob[off + 2 : off + 2 + n].decode()
        off += 2 + n
        rank = blob[off]
        dims = struct.unpack_from(f"<{rank}I", blob, off + 1)
        off += 1 + 4 * rank
        size = int(np.prod(dims)) if rank else 1
        out[name] = np.frombuffer(blob, "<f4", size, off).reshape(dims).astype(np.float64)
        off += 4 * size
    if off != len(blob):
        raise ValueError("trailing bytes in TXW1 file")
    return out


def conv3x3(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Zero-padded 3x3 cross-correlation of [C,H,W] with [O,C,3,3]."""
    win = sliding_window_view(np.pad(x, ((0, 0), (1, 1), (1, 1))), (3, 3), axis=(1, 2))
    out = np.einsum("chwij,ocij->ohw", win, kernel, optimize=True)
    return out if bias is None else out + bias[:, None, None]


def _leaky(x: np.ndarray) -> np.ndarray:
    return np.where(x >= 0, x, 0.2 * x)


def _up2(x: np.ndarray) -> np.ndarray:
    return x.repeat(2, axis=1).repeat(2, axis=2)


def noise_vector(seed: int, noise_dim: int, index: int) -> np.ndarray:
    """The index-th noise draw of texsyn's per-seed noise stream."""
    seq = np.random.SeedSequence([int(seed), NOISE_STREAM_ID])
    gen = np.random.Generator(np.random.PCG64(seq))
    draws = gen.uniform(-1.0, 1.0, size=(index + 1) * noise_dim)
    return draws[index * noise_dim :]


def generator_forward(t: dict, selection: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """One [3,S,S] image in [-1,1] from a synthesis model file's tensors."""
    # header: textures, embed_dim, noise_dim, base_size, scales, guidance, widths...
    base, scales, guidance = (int(v) for v in t["synthesis.config"][3:6])
    e = selection @ t["embedding"]
    seed_maps = np.outer(noise, e).reshape(-1)
    x = _leaky(np.tensordot(seed_maps, t["seed.kernel"], axes=(0, 0)))
    g = e @ t["selector.proj"] + t["selector.proj_bias"]
    g = _leaky(g.reshape(guidance, base, base))
    for s in range(1, scales + 1):
        g = _leaky(conv3x3(_up2(g), t[f"selector.scale{s}.kernel"], t[f"selector.scale{s}.bias"]))
        x = np.concatenate([_up2(x), g])
        x = _leaky(conv3x3(x, t[f"scale{s}.kernel"], t[f"scale{s}.bias"]))
    return np.tanh(conv3x3(x, t["rgb.kernel"], t["rgb.bias"]))


def to_pixels(image: np.ndarray) -> np.ndarray:
    """[3,H,W] in [-1,1] -> uint8 [H,W,3], round half up."""
    q = np.floor((np.clip(image, -1.0, 1.0) + 1.0) / 2.0 * 255.0 + 0.5)
    return q.astype(np.uint8).transpose(1, 2, 0)


def to_float(pixels: np.ndarray) -> np.ndarray:
    """uint8 [H,W,3] -> [3,H,W] in [-1,1]."""
    return pixels.transpose(2, 0, 1).astype(np.float64) / 127.5 - 1.0


class FeatureNet:
    """Three 3x3 conv + ReLU stages, 2x2 average pooling between them."""

    WIDTHS = (12, 24, 32)
    SEED = 1703

    def __init__(self):
        rng = np.random.default_rng(self.SEED)
        self.kernels = []
        c_in = 3
        for c_out in self.WIDTHS:
            std = np.sqrt(2.0 / (c_in * 9))
            self.kernels.append(rng.standard_normal((c_out, c_in, 3, 3)) * std)
            c_in = c_out

    def grams(self, image: np.ndarray) -> list:
        """Centered Gram matrix of each stage for one [3,H,W] image."""
        x, out = image, []
        for stage, kernel in enumerate(self.kernels):
            if stage:
                c, h, w = x.shape
                x = x.reshape(c, h // 2, 2, w // 2, 2).mean(axis=(2, 4))
            x = np.maximum(conv3x3(x, kernel), 0.0)
            f = x.reshape(x.shape[0], -1)
            f = f - f.mean()
            out.append(f @ f.T / f.shape[1])
        return out

    def distance(self, image: np.ndarray, reference_grams: list) -> float:
        """Mean absolute Gram difference, summed over stages."""
        return float(
            sum(np.abs(g - r).mean() for g, r in zip(self.grams(image), reference_grams))
        )


def sample_spread(images: list) -> float:
    """Mean per-pixel L1 distance over all pairs of [3,H,W] images."""
    pairs = [
        np.abs(images[i] - images[j]).mean()
        for i in range(len(images))
        for j in range(i + 1, len(images))
    ]
    return float(np.mean(pairs))
