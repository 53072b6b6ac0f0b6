"""The gradient checker must bless correct gradients and flag wrong ones."""

import inspect

import numpy as np
import pytest

import texsyn.autodiff as ad
from texsyn.autodiff import CHECK_DTYPE, Tensor
from texsyn.gradcheck import (
    COMPOSITE_TOL,
    PRIMITIVE_TOL,
    CheckResult,
    _central_diff,
    _max_rel_err,
    check_composite,
    check_primitives,
    run_all,
)


def _differentiable_ops() -> set:
    """Every public ``autodiff`` function that returns a Tensor, plus ``Tensor.sum``."""
    ops = {"sum"}
    for name, fn in vars(ad).items():
        if name.startswith("_") or not inspect.isfunction(fn):
            continue
        if inspect.get_annotations(fn, eval_str=True).get("return") is Tensor:
            ops.add(name)
    return ops


# Differentiable operations the checker is required to cover: an op added to
# autodiff without a gradcheck case fails
# test_primitives_all_pass_and_cover_every_op.
REQUIRED_OPS = _differentiable_ops()


def test_required_ops_follow_the_module(monkeypatch):
    assert {"conv2d", "upsample_conv2d", "slice_channels", "sum"} <= REQUIRED_OPS
    assert "backward" not in REQUIRED_OPS  # returns gradients, not a Tensor

    def twice(x: Tensor) -> Tensor:
        return ad.scale(x, 2.0)

    monkeypatch.setattr(ad, "twice", twice, raising=False)
    assert "twice" in _differentiable_ops()


def test_central_diff_matches_polynomial():
    x = np.array([1.0, -2.0, 3.0])

    def f(a):
        return float((a ** 2).sum())

    got = _central_diff(f, [x], 0)
    assert np.allclose(got, 2 * x, atol=1e-6)


def test_central_diff_selects_argument():
    a = np.array([1.0, 2.0])
    b = np.array([3.0, 4.0])

    def f(x, y):
        return float(x @ y)

    assert np.allclose(_central_diff(f, [a, b], 0), b, atol=1e-6)
    assert np.allclose(_central_diff(f, [a, b], 1), a, atol=1e-6)


def test_max_rel_err_small_for_correct_gradient():
    rng = np.random.default_rng(0)
    arrays = [rng.standard_normal((3, 3))]
    err = _max_rel_err(lambda a: ad.tanh(a).sum(), arrays)
    assert err < 1e-8


def test_max_rel_err_catches_sabotaged_gradient():
    def bad_tanh(x):
        # forward is fine; backward silently drops the 1 - tanh^2 factor
        return ad._result(np.tanh(x.data), (x,), lambda g: (g,), "tanh")

    rng = np.random.default_rng(1)
    arrays = [rng.standard_normal((3, 3)) + 1.0]
    err = _max_rel_err(lambda a: bad_tanh(a).sum(), arrays)
    assert err > 0.1


def test_primitives_all_pass_and_cover_every_op():
    results = check_primitives(trials=3, seed=0)
    names = {r.name for r in results}
    covered = {n.removesuffix("_strided") for n in names}
    assert REQUIRED_OPS <= covered
    for r in results:
        assert r.tolerance == PRIMITIVE_TOL
        assert r.passed, f"{r.name}: max rel err {r.max_rel_err}"


def test_composite_passes():
    r = check_composite(trials=2, seed=0)
    assert r.tolerance == COMPOSITE_TOL
    assert r.passed, f"composite: max rel err {r.max_rel_err}"


def test_composite_checks_the_trainers_objective(monkeypatch):
    # the composite loss is trainer.batch_losses, so a fault there fails it
    from texsyn import trainer

    real = trainer.batch_losses

    def wrong(*args):
        # the value still holds the diversity term, the gradient does not
        l_texture, l_diversity, maps = real(*args)
        return l_texture, Tensor(l_diversity.data), maps

    monkeypatch.setattr(trainer, "batch_losses", wrong)
    assert not check_composite(trials=1, seed=0).passed


def test_run_all_ends_with_composite():
    results = run_all(trials=1, seed=3)
    assert len(results) == len(check_primitives(trials=1, seed=3)) + 1
    assert results[-1].name == "generator-to-loss composite"
    names = [r.name for r in results]
    assert len(names) == len(set(names))


def test_check_result_passed_semantics():
    assert CheckResult("x", 1e-5, 1e-4).passed
    assert not CheckResult("x", 1e-4, 1e-4).passed
    assert not CheckResult("x", 2e-4, 1e-4).passed
