"""Training loop, curriculum schedule, and the pixel-space oracle.

The schedule introduces textures one at a time: during phase t (one phase
lasts K iterations) the ids 1..t are cycled round-robin, so a new texture
always trains alongside everything learned so far.  Once all M textures
are in, sampling switches to uniform random.  The trainer minimizes

    alpha * texture loss + beta * diversity loss

with one texture id per iteration shared by the whole batch.  ``fit`` is
the loop itself and ``batch_losses`` the two loss terms; the transfer
trainer and the composite gradient check run the same ones.

pixel_optimize performs the same texture-loss minimization directly on
image pixels, with no generator involved.  It is the slow reference the
feed-forward path is measured against.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import rng as _rng
from .autodiff import NonFiniteError, Tensor
from .extractor import Extractor, build_extractor, extract
from .generator import (
    SynthesisConfig,
    generate,
    init_params,
    one_hot,
    sample_noise,
    save_model,
)
from .losses import (
    DIVERSITY_TAP,
    TEXTURE_TAPS,
    centered_gram,
    diversity_loss,
    texture_loss,
    total_loss,
)
from .optim import Adam
from .serialize import LossLog, ParamSet


class TrainingError(RuntimeError):
    """Training aborted; the cause names the first non-finite tensor."""


@dataclass
class Schedule:
    mode: str  # "incremental" or "random"
    K: int  # iterations per curriculum phase
    M: int  # texture count
    rng: np.random.Generator  # consumed only by random draws

    def __post_init__(self):
        if self.mode not in ("incremental", "random"):
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.K < 1 or self.M < 1:
            raise ValueError(f"K and M must be >= 1, got K={self.K}, M={self.M}")


def schedule_texture(iteration: int, schedule: Schedule) -> int:
    """Texture id (1-based) to train at this iteration."""
    if iteration < 0:
        raise ValueError(f"iteration must be >= 0, got {iteration}")
    k, m = schedule.K, schedule.M
    if schedule.mode == "incremental" and iteration < m * k:
        phase = iteration // k + 1  # textures 1..phase are in play
        return (iteration - (phase - 1) * k) % phase + 1
    return int(schedule.rng.integers(1, m + 1))


@dataclass
class LoopConfig:
    """Knobs the texture and the transfer trainer share."""

    seed: int
    K: int = 100  # iterations per curriculum phase
    iterations: int | None = None  # default 3*M*K: curriculum plus random phase
    batch_size: int = 4
    lr: float = 1e-3
    alpha: float = 1.0  # texture (style) loss coefficient
    beta: float = -1.0  # diversity coefficient
    diversity_tap: str = DIVERSITY_TAP
    mode: str = "incremental"

    def __post_init__(self):
        if self.beta != 0.0 and self.batch_size < 2:
            raise ValueError(
                f"batch size {self.batch_size} too small: "
                "the diversity term needs pairs (use beta=0 for batch of 1)"
            )
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.iterations is not None and self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")

    def total_iterations(self, m: int) -> int:
        return self.iterations if self.iterations is not None else 3 * m * self.K


@dataclass
class TrainConfig(LoopConfig):
    texture_taps: tuple = TEXTURE_TAPS
    use_selector: bool = True  # off = guidance-ablation training
    checkpoint_every: int = 0  # 0 disables checkpoints
    checkpoint_dir: str | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if self.checkpoint_every and not self.checkpoint_dir:
            raise ValueError("checkpoint_every set but no checkpoint_dir")


def fit(
    config: LoopConfig,
    m: int,
    pick,
    step,
    log: LossLog,
    log_every: int = 0,
    checkpoint_every: int = 0,
    save=None,
) -> LossLog:
    """The training loop of both trainers; returns the filled log.

    Each iteration ``pick(iteration, schedule)`` names the id (1..m) to
    train, and ``step(id)`` runs one optimization step and returns the
    losses of the log's columns after the id.  A non-finite value aborts
    with TrainingError.  ``save(done)`` writes a checkpoint every
    ``checkpoint_every`` iterations.  Each trainer passes the
    ``schedule_texture`` its own module holds, so replacing that name
    (the benchmark times iterations this way) reaches the loop.
    """
    schedule = Schedule(
        mode=config.mode, K=config.K, M=m, rng=_rng.stream(config.seed, "schedule")
    )
    iterations = config.total_iterations(m)
    for iteration in range(iterations):
        k = pick(iteration, schedule)
        try:
            losses = step(k)
        except NonFiniteError as e:
            raise TrainingError(
                f"aborted at iteration {iteration} on {log.columns[1]} {k}: {e}"
            ) from e
        log.append(iteration, k, *losses)
        if log_every and (iteration + 1) % log_every == 0:
            named = " ".join(f"{c} {v:.4f}" for c, v in zip(log.columns[2:], losses))
            print(f"iter {iteration + 1}/{iterations} {log.columns[1]} {k} {named}", flush=True)
        if checkpoint_every and (iteration + 1) % checkpoint_every == 0:
            save(iteration + 1)
    return log


def precompute_targets(extractor: Extractor, exemplars: list, taps, size=None) -> list:
    """One {tap: centered Gram [C,C]} per exemplar; texture k's is entry k-1."""
    targets = []
    for k, image in enumerate(exemplars, start=1):
        arr = image.data if isinstance(image, Tensor) else np.asarray(image)
        if arr.ndim != 3 or arr.shape[0] != 3:
            raise ValueError(f"exemplar {k} has shape {arr.shape}, expected (3,S,S)")
        if size is not None and arr.shape[1:] != (size, size):
            raise ValueError(
                f"exemplar {k} is {arr.shape[1]}x{arr.shape[2]}, expected {size}x{size}"
            )
        feats = extract(extractor, Tensor(arr[None]), taps)
        targets.append({tap: centered_gram(feats[tap]).data[0] for tap in taps})
    return targets


def batch_losses(
    config: LoopConfig,
    extractor: Extractor,
    target: dict,
    render,
    taps,
    rng: np.random.Generator,
) -> tuple:
    """The objective of one batch: ``render(config.batch_size)`` images [N,3,S,S].

    Returns (mean texture loss against ``target``, diversity loss over
    deranged pairs, the batch's ``config.diversity_tap`` maps [N,C,H,W]).
    When beta is nonzero the diversity tap joins ``taps``; when it is 0 the
    diversity loss is a zero scalar and the maps are None unless ``taps``
    names the tap.
    """
    taps = tuple(taps)
    if config.beta != 0.0 and config.diversity_tap not in taps:
        taps = taps + (config.diversity_tap,)
    feats = extract(extractor, render(config.batch_size), taps)
    l_texture = ad.scale(texture_loss(target, feats), 1.0 / config.batch_size)
    maps = feats.get(config.diversity_tap)
    if config.beta == 0.0:
        return l_texture, Tensor(np.zeros((), dtype=l_texture.dtype)), maps
    return l_texture, diversity_loss(maps, rng), maps


def train_step(
    params: ParamSet,
    extractor: Extractor,
    targets: list,
    texture_id: int,
    config: TrainConfig,
    optimizer: Adam,
    noise_rng: np.random.Generator,
    derangement_rng: np.random.Generator,
) -> tuple:
    """One optimization step; mutates params, returns (texture, diversity, total) losses."""
    selection = one_hot(params.config, texture_id)

    def render(n):
        noise = np.stack([sample_noise(params.config, noise_rng) for _ in range(n)])
        return generate(params, selection, noise, use_selector=config.use_selector)

    l_texture, l_diversity, _ = batch_losses(
        config, extractor, targets[texture_id - 1], render, config.texture_taps, derangement_rng
    )
    loss = total_loss(l_texture, l_diversity, config.alpha, config.beta)

    optimizer.step(ad.backward(loss, optimizer.params))
    return float(l_texture.data), float(l_diversity.data), float(loss.data)


def train(
    exemplars: list,
    config: TrainConfig,
    synth_config: SynthesisConfig | None = None,
    extractor: Extractor | None = None,
    log_every: int = 0,
) -> tuple:
    """Full curriculum run over M exemplars; returns (params, LossLog)."""
    m = len(exemplars)
    if m < 1:
        raise ValueError("need at least one exemplar")
    if synth_config is None:
        synth_config = SynthesisConfig(textures=m)
    if synth_config.textures != m:
        raise ValueError(
            f"config expects {synth_config.textures} textures, got {m} exemplars"
        )
    if extractor is None:
        # the loss network is a fixture, not part of the experiment seed
        extractor = build_extractor()

    targets = precompute_targets(
        extractor, exemplars, taps=config.texture_taps, size=synth_config.output_size
    )
    params = init_params(synth_config, config.seed)
    optimizer = Adam(params.parameters(), lr=config.lr)
    noise_rng = _rng.stream(config.seed, "noise")
    derangement_rng = _rng.stream(config.seed, "derangement")

    def step(texture_id):
        return train_step(
            params, extractor, targets, texture_id, config, optimizer, noise_rng, derangement_rng
        )

    def save(done):
        save_model(params, os.path.join(config.checkpoint_dir, f"checkpoint_{done}.model"))

    log = fit(
        config, m, schedule_texture, step, LossLog(), log_every,
        checkpoint_every=config.checkpoint_every, save=save,
    )
    return params, log


def pixel_optimize(
    extractor: Extractor, target: dict, init: np.ndarray, steps: int, lr: float
) -> tuple:
    """Minimize the texture loss against ``target`` ({tap: Gram}) over raw
    pixels; returns (image, losses).

    The losses list has steps+1 entries: the loss at init, then after each
    update.  An exemplar's own pixels are a fixed point: the loss gradient
    there is exactly zero, so optimization leaves them untouched.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    arr = init.data if isinstance(init, Tensor) else np.asarray(init)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise ValueError(f"init image has shape {arr.shape}, expected (3,S,S)")
    pixels = Tensor(arr[None].copy(), requires_grad=True)
    optimizer = Adam([pixels], lr=lr)
    taps = tuple(target)
    losses = []
    for _ in range(steps):
        feats = extract(extractor, pixels, taps)
        loss = texture_loss(target, feats)
        losses.append(float(loss.data))
        optimizer.step(ad.backward(loss, optimizer.params))
    feats = extract(extractor, pixels, taps)
    losses.append(float(texture_loss(target, feats).data))
    return pixels.data[0].copy(), losses
