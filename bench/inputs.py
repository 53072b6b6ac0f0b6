"""Procedural inputs, all derived from the workload seed.

Every image is 256x256 8-bit RGB and photo-like: a pattern under a smooth
illumination gradient plus per-pixel sensor grain, so the adaptive PNG
encoder picks all four filter types.  For the exemplars the seed moves
phases and positions only; orientations, periods, contrasts and grain
are fixed, so every seed gives another crop of the same stationary
texture.  Periods are at least 48 pixels, so the 8x box resize to the
32x32 generator size keeps them (6+ pixels) instead of aliasing them away.

- exemplar 1: two crossed sinusoidal gratings at 45 degrees (a weave)
- exemplar 2: soft cells around a jittered 4x4 grid of centres
- exemplar 3: horizontal stripes with a sinusoidal ripple
- photo: a sky-to-ground ramp with soft discs and a rectangle, used as
  transfer content
"""

from __future__ import annotations

import numpy as np

SIZE = 256


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([20170303, int(seed), *tags])


def _finish(rgb: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Apply illumination and grain; rgb is float [H,W,3] in [0,1]."""
    y, x = np.mgrid[0:SIZE, 0:SIZE] / SIZE
    angle = rng.uniform(0, 2 * np.pi)
    light = 0.9 + 0.1 * (np.cos(angle) * x + np.sin(angle) * y)
    rgb = rgb * light[:, :, None] + 0.008 * rng.standard_normal(rgb.shape)
    return np.clip(np.floor(rgb * 255.0 + 0.5), 0, 255).astype(np.uint8)


def exemplar_image(k: int, seed: int) -> np.ndarray:
    """Exemplar texture k (1-based, 1..3) for this seed."""
    rng = _rng(seed, k)
    y, x = np.mgrid[0:SIZE, 0:SIZE].astype(np.float64)
    if k == 1:
        u, v = (x + y) / np.sqrt(2), (x - y) / np.sqrt(2)
        base = np.sin(2 * np.pi * u / 64 + rng.uniform(0, 6.3)) * np.sin(
            2 * np.pi * v / 64 + rng.uniform(0, 6.3)
        )
        palette = np.array([0.75, 0.5, 0.3])
        rgb = 0.5 + 0.4 * base[:, :, None] * palette + 0.1 * (1 - palette)
    elif k == 2:
        grid = (np.arange(4) * 64 + 32)[:, None] + np.zeros((1, 4))
        centres = np.stack([grid, grid.T], axis=2).reshape(16, 2)
        centres = (centres + rng.uniform(0, 64, size=2) + rng.uniform(-12, 12, size=(16, 2))) % SIZE
        d = np.full((SIZE, SIZE), np.inf)
        for cy, cx in centres:
            dy = np.minimum(np.abs(y - cy), SIZE - np.abs(y - cy))
            dx = np.minimum(np.abs(x - cx), SIZE - np.abs(x - cx))
            d = np.minimum(d, np.hypot(dy, dx))
        shade = np.clip(d / 36.0, 0, 1)
        rgb = np.stack([0.3 + 0.5 * shade, 0.55 - 0.25 * shade, 0.2 + 0.3 * shade], axis=2)
    elif k == 3:
        ripple = 8.0 * np.sin(2 * np.pi * x / 128 + rng.uniform(0, 6.3))
        base = np.sin(2 * np.pi * (y + ripple) / 48 + rng.uniform(0, 6.3))
        rgb = np.stack([0.45 + 0.3 * base, 0.45 + 0.3 * base, 0.6 - 0.2 * base], axis=2)
    else:
        raise ValueError(f"no exemplar {k}")
    return _finish(rgb, rng)


def photo_image(seed: int) -> np.ndarray:
    """A photo-like content scene: large structures, fine grain."""
    rng = _rng(seed, 100)
    y, x = np.mgrid[0:SIZE, 0:SIZE] / SIZE
    horizon = rng.uniform(0.4, 0.6)
    sky = np.stack([0.5 + 0.3 * y, 0.6 + 0.3 * y, 0.9 - 0.1 * y], axis=2)
    ground = np.stack([0.35 + 0.2 * x, 0.5 - 0.1 * y, 0.25 + 0.0 * x], axis=2)
    rgb = np.where((y < horizon)[:, :, None], sky, ground)
    for _ in range(3):
        cy, cx = rng.uniform(0.2, 0.8, size=2)
        r = rng.uniform(0.08, 0.16)
        disc = np.exp(-(((y - cy) ** 2 + (x - cx) ** 2) / r**2) ** 2)
        rgb = rgb * (1 - disc[:, :, None]) + disc[:, :, None] * rng.uniform(0.1, 0.9, size=3)
    top, left = rng.uniform(0.55, 0.75), rng.uniform(0.1, 0.6)
    box = (y > top) & (y < top + 0.15) & (x > left) & (x < left + 0.25)
    rgb = np.where(box[:, :, None], np.array([0.7, 0.3, 0.25]), rgb)
    return _finish(rgb, rng)
