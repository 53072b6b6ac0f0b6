"""Deterministic synthetic exemplar textures for tests, one loss oracle,
the networks' upsample-concatenate-convolve forms as references, a
byte-mutation strategy for fuzzing file loaders, a saved-loss-log reader
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
from texsyn import generator as gn
from texsyn import transfer as tf
from texsyn.autodiff import Tensor
from texsyn.images import ImageBuffer, save_image
from texsyn.losses import derangement
from texsyn.optim import Adam
from texsyn.serialize import ParamSet


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


def assert_close_relative(got, want, tol):
    """Every entry within tol of the largest magnitude of want."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= tol * max(float(np.max(np.abs(want))), 1e-30)


def randomized(params: ParamSet, dtype, seed: int) -> ParamSet:
    """``params`` in ``dtype``, each tensor (the zero biases too) plus 0.1·N(0, 1) noise."""
    g = np.random.default_rng(seed)
    return ParamSet.of(
        params.config,
        {n: (t.data + 0.1 * g.standard_normal(t.shape)).astype(dtype) for n, t in params.tensors.items()},
    )


def upsample_nearest(x: Tensor) -> Tensor:
    """2x nearest upsampling of [N,C,h,w]: np.repeat forward, 2x2 block sums backward."""
    n, c, h, w = x.shape

    def grad_fn(g):
        return (g.reshape(n, c, h, 2, w, 2).sum(axis=(3, 5)),)

    return ad._result(x.data.repeat(2, axis=2).repeat(2, axis=3), (x,), grad_fn, "upsample_nearest")


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """[N,Ca,H,W] and [N,Cb,H,W] joined along channels; backward splits g."""
    ca = a.shape[1]

    def grad_fn(g):
        return g[:, :ca], g[:, ca:]

    return ad._result(np.concatenate([a.data, b.data], axis=1), (a, b), grad_fn, "concat_channels")


def reference_generate(params: ParamSet, selection, noise: np.ndarray, use_selector: bool = True) -> Tensor:
    """``generator.generate`` of noise [N, noise_dim] as upsample, concat and
    full-resolution conv2d, each guidance map repeated over the batch and
    zero maps in its place without the selector: [N,3,S,S]."""
    c, t = params.config, params.tensors
    noise = Tensor(noise, dtype=t["embedding"].dtype)
    batch = noise.shape[0]
    e = gn.embed(params, selection)
    x = ad.leaky_relu(ad.full_conv2d(gn.seed_maps(noise, e), t["seed.kernel"]))
    g = ad.matmul(ad.reshape(e, (1, c.embed_dim)), t["selector.proj"])
    g = ad.add(g, ad.reshape(t["selector.proj_bias"], (1,) + t["selector.proj_bias"].shape))
    g = ad.leaky_relu(ad.reshape(g, (1, c.guidance_channels, c.base_size, c.base_size)))
    for s in range(1, c.scales + 1):
        x = upsample_nearest(x)
        if use_selector:
            g = ad.conv2d(upsample_nearest(g), t[f"selector.scale{s}.kernel"], t[f"selector.scale{s}.bias"], pad=1)
            g = ad.leaky_relu(g)
            guide = g
        else:
            guide = Tensor(np.zeros((1, c.guidance_channels) + x.shape[2:]), dtype=x.dtype)
        x = concat_channels(x, ad.repeat_batch(guide, batch))
        x = ad.leaky_relu(ad.conv2d(x, t[f"scale{s}.kernel"], t[f"scale{s}.bias"], pad=1))
    return ad.tanh(ad.conv2d(x, t["rgb.kernel"], t["rgb.bias"], pad=1))


def reference_transfer(params: ParamSet, content: Tensor, selection, rng, samples: int) -> Tensor:
    """``transfer.transfer(..., samples=n)`` with the noise maps concatenated
    to the repeated encoder output, and its decoder as upsample then
    full-resolution conv2d: [n,3,H,W]."""
    c, t = params.config, params.tensors
    h, w = content.shape[1:]
    s = c.stride
    noise = np.stack(
        [tf.sample_noise_maps(c, (h // s, w // s), selection.weights, rng) for _ in range(samples)]
    )
    x = ad.reshape(content, (1,) + content.shape)
    for i in range(1, len(c.enc_widths) + 1):
        x = ad.leaky_relu(ad.conv2d(x, t[f"enc{i}.kernel"], t[f"enc{i}.bias"], stride=2, pad=1))
    x = concat_channels(ad.repeat_batch(x, samples), Tensor(noise, dtype=x.dtype))
    for i in range(1, len(c.dec_widths) + 1):
        if i > 1:
            x = upsample_nearest(x)
        x = ad.leaky_relu(ad.conv2d(x, t[f"dec{i}.kernel"], t[f"dec{i}.bias"], pad=1))
    return ad.tanh(ad.conv2d(x, t["rgb.kernel"], t["rgb.bias"], pad=1))


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
