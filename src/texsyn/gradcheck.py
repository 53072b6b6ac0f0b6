"""Systematic finite-difference verification of every gradient path.

Each differentiable primitive is checked on repeated random inputs in
64-bit mode against central differences (tolerance 1e-4), and the whole
pipeline (generator through extractor through ``trainer.batch_losses``,
the objective both trainers minimize) is checked end to end at 1e-3.
Kinked functions (relu family, absolute values) get inputs nudged away
from their kinks, where finite differences are meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import trainer
from .autodiff import CHECK_DTYPE, Tensor
from .extractor import ExtractorConfig, build_extractor
from .generator import SynthesisConfig, generate, init_params, one_hot
from .losses import centered_gram, total_loss

PRIMITIVE_TOL = 1e-4
COMPOSITE_TOL = 1e-3
# In float64 a 1e-6 central step keeps truncation and roundoff error below
# 1e-9 while shrinking the window in which an activation kink can sit
# between the two probes and corrupt the difference quotient.
STEP = 1e-6


@dataclass
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def _central_diff(fn, arrays, index, h=STEP):
    base = [a.copy() for a in arrays]
    flat = base[index].reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        hi = fn(*base)
        flat[i] = keep - h
        lo = fn(*base)
        flat[i] = keep
        grad[i] = (hi - lo) / (2 * h)
    return grad.reshape(base[index].shape)


def _max_rel_err(build, arrays) -> float:
    """build(*tensors) -> scalar Tensor; FD-checks the gradient of each input."""
    tensors = [Tensor(a, requires_grad=True, dtype=CHECK_DTYPE) for a in arrays]
    grads = ad.backward(build(*tensors), tensors)

    def value(*arrs):
        return float(build(*[Tensor(a, dtype=CHECK_DTYPE) for a in arrs]).data)

    worst = 0.0
    for i, grad in enumerate(grads):
        num = _central_diff(value, arrays, i)
        err = np.max(np.abs(grad - num) / np.maximum(1.0, np.abs(num)))
        worst = max(worst, float(err))
    return worst


def _away_from_kinks(arr, margin=0.05):
    """Push values off zero so subgradient points are never probed."""
    return arr + np.sign(arr) * margin + (arr == 0) * margin


def _primitive_cases(rng):
    def arr(*shape):
        return rng.standard_normal(shape)

    def karr(*shape):
        return _away_from_kinks(rng.standard_normal(shape))

    return {
        "add": lambda: (lambda a, b: ad.add(a, b).sum(), [arr(3, 4), arr(3, 4)]),
        "sub": lambda: (lambda a, b: ad.sub(a, b).sum(), [arr(3, 4), arr(3, 4)]),
        "mul": lambda: (lambda a, b: ad.mul(a, b).sum(), [arr(3, 4), arr(3, 4)]),
        "scale": lambda: (lambda a: ad.scale(a, -1.7).sum(), [arr(4, 4)]),
        "relu": lambda: (lambda a: ad.relu(a).sum(), [karr(4, 5)]),
        "leaky_relu": lambda: (lambda a: ad.leaky_relu(a).sum(), [karr(4, 5)]),
        "tanh": lambda: (lambda a: ad.tanh(a).sum(), [arr(4, 5)]),
        "reshape": lambda: (lambda a: ad.reshape(a, (8, 2)).sum(), [arr(4, 4)]),
        "sum": lambda: (lambda a: a.sum(), [arr(3, 3)]),
        "l1_norm": lambda: (lambda a: ad.l1_norm(a), [karr(4, 4)]),
        "matmul": lambda: (lambda a, b: ad.matmul(a, b).sum(), [arr(3, 4), arr(4, 2)]),
        # weighted sums, so the Gram's backward sees an asymmetric adjoint
        # and each copy or picked row its own weight
        "batch_gram": lambda: (
            lambda a, w: ad.mul(ad.batch_gram(a), w).sum(),
            [arr(2, 3, 4), arr(2, 3, 3)],
        ),
        "center": lambda: (lambda a, w: ad.mul(ad.center(a), w).sum(), [arr(2, 3, 4), arr(2, 3, 4)]),
        "repeat_batch": lambda: (
            lambda a, w: ad.mul(ad.repeat_batch(a, 3), w).sum(),
            [arr(1, 2, 3), arr(3, 2, 3)],
        ),
        "take_rows": lambda: (
            lambda a, w: ad.mul(ad.take_rows(a, [2, 0, 2, 1]), w).sum(),
            [arr(3, 2, 2), arr(4, 2, 2)],
        ),
        "slice_channels": lambda: (
            lambda a, w: ad.mul(ad.slice_channels(a, 1, 3), w).sum(),
            [arr(2, 4, 2, 2), arr(2, 2, 2, 2)],
        ),
        "avg_pool2": lambda: (lambda a: ad.avg_pool2(a).sum(), [arr(1, 2, 4, 4)]),
        "conv2d": lambda: (
            lambda x, k, b: ad.conv2d(x, k, b, stride=1, pad=1).sum(),
            [arr(2, 2, 5, 5), arr(3, 2, 3, 3), arr(3)],
        ),
        # fewer outputs than inputs: conv2d multiplies first, then shifts
        "conv2d_narrow": lambda: (
            lambda x, k, b: ad.conv2d(x, k, b, stride=1, pad=1).sum(),
            [arr(2, 4, 5, 5), arr(2, 4, 3, 3), arr(2)],
        ),
        "conv2d_strided": lambda: (
            lambda x, k: ad.conv2d(x, k, stride=2, pad=1).sum(),
            [arr(1, 2, 6, 6), arr(2, 2, 3, 3)],
        ),
        # weighted, so every output phase carries its own adjoint
        "upsample_conv2d": lambda: (
            lambda x, k, b, w: ad.mul(ad.upsample_conv2d(x, k, b), w).sum(),
            [arr(2, 2, 3, 3), arr(3, 2, 3, 3), arr(3), arr(2, 3, 6, 6)],
        ),
        "full_conv2d": lambda: (
            lambda x, k: ad.full_conv2d(x, k).sum(),
            [arr(4, 3, 1, 1), arr(3, 2, 4, 4)],
        ),
    }


def _require_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def check_primitives(trials: int, seed: int) -> list:
    _require_trials(trials)
    rng = np.random.default_rng(seed)
    cases = _primitive_cases(rng)
    results = []
    for name, make in cases.items():
        worst = 0.0
        for _ in range(trials):
            build, arrays = make()
            worst = max(worst, _max_rel_err(build, arrays))
        results.append(CheckResult(name, worst, PRIMITIVE_TOL))
    return results


def _composite_setup(seed: int):
    """A miniature end-to-end pipeline small enough to FD every weight."""
    synth = SynthesisConfig(
        textures=2,
        embed_dim=2,
        noise_dim=2,
        base_size=2,
        scales=1,
        widths=(4, 4),
        guidance_channels=2,
    )
    extractor = build_extractor(
        ExtractorConfig(stage_channels=(4, 6), convs_per_stage=(1, 1), seed=seed + 1)
    )
    loop = trainer.LoopConfig(seed=seed, batch_size=2, diversity_tap="conv2_1")
    params = init_params(synth, seed)
    rng = np.random.default_rng(seed + 2)
    noises = rng.uniform(-1, 1, (2, synth.noise_dim))
    goal = centered_gram(Tensor(rng.standard_normal((1, 4, 4, 4)), dtype=CHECK_DTYPE)).data[0]
    goal2 = centered_gram(Tensor(rng.standard_normal((1, 6, 2, 2)), dtype=CHECK_DTYPE)).data[0]
    target = {"conv1_1": goal, "conv2_1": goal2}
    sigma_rng_seed = seed + 3
    names = list(params.tensors)
    arrays = [params.tensors[n].data.astype(np.float64) for n in names]

    def build(*tensors):
        p = type(params)(config=synth, tensors=dict(zip(names, tensors)))

        def render(n):
            return generate(p, one_hot(synth, 1), Tensor(noises[:n], dtype=tensors[0].dtype))

        l_tex, l_div, _ = trainer.batch_losses(
            loop, extractor, target, render, ("conv1_1",), np.random.default_rng(sigma_rng_seed)
        )
        return total_loss(l_tex, l_div, loop.alpha, loop.beta)

    return build, arrays


def check_composite(trials: int, seed: int) -> CheckResult:
    _require_trials(trials)
    worst = 0.0
    for t in range(trials):
        build, arrays = _composite_setup(seed + 10 * t)
        worst = max(worst, _max_rel_err(build, arrays))
    return CheckResult("generator-to-loss composite", worst, COMPOSITE_TOL)


def run_all(trials: int, seed: int) -> list:
    return check_primitives(trials, seed) + [check_composite(trials, seed)]
