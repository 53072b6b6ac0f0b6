"""Deterministic synthetic exemplar textures for tests, one loss oracle,
a byte-mutation strategy for fuzzing file loaders, a saved-loss-log reader
and a recorder of the gradients ``Adam.step`` is given.

Three sinusoidal gratings from a single pattern family, differing in
orientation and per-channel phase palette.  Sharing one family makes the
textures compete for generator capacity, so multi-texture training
exercises real interference instead of fitting three disjoint patterns.
Desk-scale stand-ins for photographic texture swatches.
"""

import numpy as np
from hypothesis import strategies as st

from texsyn import autodiff as ad
from texsyn.images import ImageBuffer, save_image
from texsyn.losses import derangement
from texsyn.optim import Adam


def _grating(direction, phases, size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:size, 0:size]
    t = (direction[1] * x + direction[0] * y) * (2 * np.pi / 8.0)
    img = np.stack([0.5 + 0.5 * np.sin(t + p) for p in phases], axis=2)
    img += 0.06 * rng.standard_normal(img.shape)
    return np.clip(img * 255.0, 0, 255).astype(np.uint8)


def diagonal(size: int = 32, seed: int = 0) -> np.ndarray:
    return _grating((1, 1), (0.0, 2.1, 4.2), size, seed)


def antidiagonal(size: int = 32, seed: int = 1) -> np.ndarray:
    return _grating((1, -1), (1.0, 3.1, 5.2), size, seed)


def horizontal(size: int = 32, seed: int = 2) -> np.ndarray:
    return _grating((1, 0), (2.0, 4.1, 0.2), size, seed)


GENERATORS = (diagonal, antidiagonal, horizontal)


def exemplar_arrays(count: int, size: int = 32) -> list:
    """The first `count` synthetic textures at the given size."""
    return [GENERATORS[i % 3](size, seed=i) for i in range(count)]


ADAM_STEP = Adam.step


def record_steps(monkeypatch) -> list:
    """From now on, every ``Adam.step`` call also appends its gradient list
    to the returned list; a later call starts a new list."""
    steps = []

    def recording_step(self, grads):
        steps.append(grads)
        return ADAM_STEP(self, grads)

    monkeypatch.setattr(Adam, "step", recording_step)
    return steps


def read_loss_log(path) -> tuple:
    """A saved loss log's header line, and its rows parsed back as (iter, id, *losses)."""
    with open(path) as f:
        header, *lines = f.read().splitlines()
    rows = []
    for line in lines:
        it, texture, *losses = line.split(",")
        rows.append((int(it), int(texture), *map(float, losses)))
    return header, rows


def write_exemplars(directory, count: int, size: int = 32) -> list:
    """Save exemplars as PNGs under `directory`; returns their paths."""
    paths = []
    for i, arr in enumerate(exemplar_arrays(count, size), start=1):
        path = str(directory / f"exemplar{i}.png")
        save_image(ImageBuffer(arr), path)
        paths.append(path)
    return paths


def smooth_scene(size: int = 32, seed: int = 3) -> np.ndarray:
    """Diagonal luminance ramp with one soft bright disc per channel.

    Content stand-in for transfer tests: every structure spans many
    pixels, so a small decoder can reproduce it and the content loss has
    a clean optimum, unlike the high-frequency training exemplars.
    """
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:size, 0:size] / max(size - 1, 1)
    base = 0.25 + 0.3 * x + 0.2 * y
    chans = []
    for _ in range(3):
        cy, cx = rng.uniform(0.25, 0.75, 2)
        r2 = (y - cy) ** 2 + (x - cx) ** 2
        chans.append(base + 0.35 * np.exp(-r2 / 0.08))
    img = np.stack(chans, axis=2)
    return np.clip(img * 255.0, 0, 255).astype(np.uint8)


def cloud_texture(size: int = 32, seed: int = 4, cycles=(1.0, 2.0)) -> np.ndarray:
    """Per-channel mixture of a few low-frequency sinusoids.

    Style stand-in for transfer tests: the Gram statistics of a texture
    this smooth settle within a few hundred steps.
    """
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:size, 0:size] / size
    chans = []
    for _ in range(3):
        field = np.zeros((size, size))
        for f in cycles:
            theta = rng.uniform(0.0, 2.0 * np.pi)
            fx, fy = f * np.cos(theta), f * np.sin(theta)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            field += rng.uniform(0.3, 0.6) * np.sin(
                2 * np.pi * (fx * x + fy * y) + phase
            )
        chans.append(0.5 + 0.5 * field / len(cycles))
    img = np.stack(chans, axis=2)
    return np.clip(img * 255.0, 0, 255).astype(np.uint8)


def per_sample_diversity(maps: list, rng: np.random.Generator):
    """The diversity loss over a list of [1,C,H,W] maps, one L1 term per pair:
    the per-sample form that ``losses.diversity_loss`` batches."""
    n = len(maps)
    sigma = derangement(n, rng)
    total = None
    for i in range(n):
        term = ad.l1_norm(ad.sub(maps[i], maps[sigma[i]]))
        total = term if total is None else ad.add(total, term)
    return ad.scale(total, 1.0 / (n * int(np.prod(maps[0].shape[2:]))))


@st.composite
def mutated(draw, valid: bytes) -> bytes:
    """``valid`` after one to three overwrites, insertions or truncations."""
    blob = bytearray(valid)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("overwrite", "insert", "truncate")))
        at = draw(st.integers(0, len(blob)))
        if kind == "truncate":
            del blob[at:]
            continue
        chunk = draw(st.binary(min_size=1, max_size=8))
        blob[at : at + (len(chunk) if kind == "overwrite" else 0)] = chunk
    return bytes(blob)
