"""Schedule exactness, optimizer behavior, training-loop mechanics."""

import os
import subprocess
import sys

import numpy as np
import pytest

import texsyn
from texsyn import autodiff as ad
from texsyn import rng as _rng
from texsyn.autodiff import Tensor
from texsyn.extractor import ExtractorConfig, build_extractor, extract
from texsyn.generator import SynthesisConfig, generate, init_params, one_hot, sample_noise
from texsyn.losses import texture_loss, total_loss
from texsyn.optim import Adam
from texsyn.serialize import ParamSet
from helpers import per_sample_diversity, read_loss_log, record_steps, write_exemplars
from texsyn.trainer import (
    LossLog,
    Schedule,
    TrainConfig,
    TrainingError,
    batch_losses,
    pixel_optimize,
    precompute_targets,
    schedule_texture,
    train,
    train_step,
)


def make_schedule(mode="incremental", k=3, m=3, seed=0):
    return Schedule(mode=mode, K=k, M=m, rng=np.random.default_rng(seed))


SMALL = SynthesisConfig(textures=2, widths=(12, 12, 8), scales=2, guidance_channels=4)
EXT = build_extractor(ExtractorConfig(seed=0))


def exemplar(seed, size=16):
    g = np.random.default_rng(seed)
    base = g.uniform(-1, 1, size=(3, size, size)).astype(np.float32)
    return np.clip(base, -1, 1)


# ---------------------------------------------------------------------------
# schedule


def test_schedule_emission_k3_m3_through_switch():
    sched = make_schedule()
    want_deterministic = [1, 1, 1, 1, 2, 1, 1, 2, 3]
    got = [schedule_texture(i, sched) for i in range(9)]
    assert got == want_deterministic
    for i in range(9, 13):  # past M*K the draws are random but in range
        assert 1 <= schedule_texture(i, sched) <= 3


def test_schedule_texture_first_appearance():
    # texture t enters in phase t, which starts at iteration (t-1)*K; the
    # round-robin within the phase reaches the new id t-1 slots later
    k, m = 5, 4
    sched = make_schedule(k=k, m=m)
    first_seen = {}
    for i in range(k * m):
        t = schedule_texture(i, sched)
        first_seen.setdefault(t, i)
    for t in range(1, m + 1):
        assert first_seen[t] == (t - 1) * k + (t - 1)
        assert first_seen[t] >= (t - 1) * k


def test_schedule_never_emits_future_texture():
    k, m = 4, 5
    sched = make_schedule(k=k, m=m)
    for i in range(k * m):
        phase = i // k + 1
        assert schedule_texture(i, sched) <= phase


def test_schedule_random_phase_uniform():
    k, m = 3, 3
    sched = make_schedule(k=k, m=m, seed=1)
    draws = 100_000
    counts = np.zeros(m + 1)
    for i in range(k * m, k * m + draws):
        counts[schedule_texture(i, sched)] += 1
    for t in range(1, m + 1):
        assert abs(counts[t] / draws - 1 / m) < 0.01


def test_schedule_random_mode_uniform_from_start():
    sched = make_schedule(mode="random", k=3, m=4, seed=2)
    draws = 50_000
    counts = np.zeros(5)
    for i in range(draws):
        counts[schedule_texture(i, sched)] += 1
    for t in range(1, 5):
        assert abs(counts[t] / draws - 0.25) < 0.01


def test_schedule_m1_modes_agree():
    inc = make_schedule(mode="incremental", k=3, m=1, seed=3)
    rnd = make_schedule(mode="random", k=3, m=1, seed=3)
    for i in range(20):
        assert schedule_texture(i, inc) == schedule_texture(i, rnd) == 1


def test_schedule_validation():
    with pytest.raises(ValueError):
        make_schedule(mode="alternating")
    with pytest.raises(ValueError):
        make_schedule(k=0)
    with pytest.raises(ValueError):
        schedule_texture(-1, make_schedule())


# ---------------------------------------------------------------------------
# optimizer


def test_adam_lr_zero_leaves_params_bit_exact():
    p = Tensor(np.array([1.0, -2.0, 3.0], dtype=np.float32), requires_grad=True)
    before = p.data.copy()
    opt = Adam([p], lr=0.0)
    opt.step([np.array([1.0, 1.0, 1.0], dtype=np.float32)])
    assert p.data.tobytes() == before.tobytes()


def test_adam_zero_gradient_leaves_params_unchanged():
    p = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
    before = p.data.copy()
    opt = Adam([p], lr=1e-3)
    opt.step([np.zeros(2, dtype=np.float32)])
    assert p.data.tobytes() == before.tobytes()


def test_adam_descends_a_quadratic():
    from texsyn import autodiff as ad

    p = Tensor(np.array([5.0, -3.0]), requires_grad=True, dtype=np.float64)
    opt = Adam([p], lr=0.1)
    for _ in range(300):
        opt.step(ad.backward(ad.mul(p, p).sum(), [p]))
    assert np.all(np.abs(p.data) < 0.05)


def test_adam_first_step_magnitude_is_lr():
    # bias correction makes the very first update lr-sized per coordinate
    p = Tensor(np.zeros(3), requires_grad=True, dtype=np.float64)
    opt = Adam([p], lr=1e-3)
    opt.step([np.array([0.5, -2.0, 10.0])])
    np.testing.assert_allclose(np.abs(p.data), 1e-3, rtol=1e-6)


def test_adam_rejects_a_gradient_list_of_another_length():
    p = Tensor(np.ones(2), requires_grad=True, dtype=np.float64)
    q = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
    opt = Adam([p, q], lr=1e-3)
    for grads in ([np.ones(2)], [np.ones(2), np.ones(3), np.ones(3)]):
        with pytest.raises(ValueError, match="gradients for 2 parameters"):
            opt.step(grads)
    # nothing moved: no parameter, moment or step count
    assert opt.t == 0
    np.testing.assert_array_equal(p.data, np.ones(2))
    np.testing.assert_array_equal(q.data, np.ones(3))


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), -1e-3])
def test_adam_rejects_non_finite_or_negative_lr(lr):
    p = Tensor(np.zeros(2), requires_grad=True)
    with pytest.raises(ValueError, match="learning rate"):
        Adam([p], lr=lr)


def test_iteration_count_below_one_rejected():
    for iterations in (0, -3):
        with pytest.raises(ValueError, match="iterations"):
            TrainConfig(seed=0, iterations=iterations)
    assert TrainConfig(seed=0, iterations=None).total_iterations(2) == 3 * 2 * 100


# ---------------------------------------------------------------------------
# targets and pixel optimization


def test_precompute_targets_self_consistency():
    taps = ("conv1_1", "conv2_1")
    images = [exemplar(1), exemplar(2)]
    targets = precompute_targets(EXT, images, taps=taps)
    assert len(targets) == 2
    assert all(list(t) == list(taps) for t in targets)
    for img, target in zip(images, targets):
        feats = extract(EXT, Tensor(img[None]), taps)
        assert float(texture_loss(target, feats).data) < 1e-5


def test_precompute_targets_pure():
    taps = ("conv1_1",)
    a = precompute_targets(EXT, [exemplar(3)], taps=taps)[0]
    b = precompute_targets(EXT, [exemplar(3)], taps=taps)[0]
    np.testing.assert_array_equal(a["conv1_1"], b["conv1_1"])


def test_precompute_targets_size_check():
    with pytest.raises(ValueError):
        precompute_targets(EXT, [exemplar(1, size=16)], ("conv1_1",), size=32)
    with pytest.raises(ValueError):
        precompute_targets(EXT, [np.zeros((16, 16, 3), dtype=np.float32)], ("conv1_1",))


def test_pixel_optimize_exemplar_is_fixed_point():
    taps = ("conv1_1", "conv2_1")
    img = exemplar(5)
    target = precompute_targets(EXT, [img], taps=taps)[0]
    out, losses = pixel_optimize(EXT, target, img, steps=5, lr=1e-2)
    assert losses[0] < 1e-5
    assert losses[-1] <= losses[0] + 1e-7
    np.testing.assert_allclose(out, img, atol=1e-6)


def test_pixel_optimize_reduces_loss_from_random_init():
    taps = ("conv1_1", "conv2_1")
    target = precompute_targets(EXT, [exemplar(6)], taps=taps)[0]
    init = np.random.default_rng(0).uniform(-1, 1, (3, 16, 16)).astype(np.float32)
    out, losses = pixel_optimize(EXT, target, init, steps=60, lr=2e-2)
    assert losses[-1] < 0.5 * losses[0]
    assert out.shape == (3, 16, 16)


# ---------------------------------------------------------------------------
# loss log


def test_losslog_append_only():
    log = LossLog()
    log.append(0, 1, 1.0, 0.1, 0.9)
    log.append(1, 1, 0.9, 0.1, 0.8)
    with pytest.raises(ValueError):
        log.append(1, 1, 0.8, 0.1, 0.7)
    with pytest.raises(ValueError):
        log.append(0, 1, 0.8, 0.1, 0.7)


def test_losslog_csv_roundtrip(tmp_path):
    log = LossLog()
    log.append(0, 1, 1.25, 0.5, 0.75)
    log.append(1, 2, 1.0, 1 / 3, 2 / 3)
    path = str(tmp_path / "losses.csv")
    log.save(path)
    header, rows = read_loss_log(path)
    assert header == "iter,texture,l_texture,l_diversity,total"
    assert rows == log.rows


# ---------------------------------------------------------------------------
# train_step / train


def small_train_config(**kw):
    defaults = dict(seed=0, K=2, batch_size=2, iterations=4)
    defaults.update(kw)
    return TrainConfig(**defaults)


def small_exemplars():
    return [exemplar(11), exemplar(12)]


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(seed=0, batch_size=1)  # beta defaults to -1, needs pairs
    TrainConfig(seed=0, batch_size=1, beta=0.0)  # fine without diversity
    with pytest.raises(ValueError):
        TrainConfig(seed=0, checkpoint_every=5)


def test_train_step_lr_zero_keeps_params():
    cfg = small_train_config(lr=0.0)
    taps = ("conv1_1", "conv2_1")
    cfg = small_train_config(lr=0.0, texture_taps=taps)
    params = init_params(SMALL, seed=1)
    targets = precompute_targets(EXT, small_exemplars(), taps=taps)
    before = {n: t.data.copy() for n, t in params.tensors.items()}
    opt = Adam(params.parameters(), lr=0.0)
    train_step(
        params, EXT, targets, 1, cfg, opt,
        np.random.default_rng(0), np.random.default_rng(1),
    )
    for name, t in params.tensors.items():
        assert t.data.tobytes() == before[name].tobytes(), name


def test_train_step_beta_zero_batch_one_runs():
    taps = ("conv1_1",)
    cfg = small_train_config(beta=0.0, batch_size=1, texture_taps=taps)
    params = init_params(SMALL, seed=1)
    targets = precompute_targets(EXT, small_exemplars(), taps=taps)
    opt = Adam(params.parameters(), lr=cfg.lr)
    lt, ld, tot = train_step(
        params, EXT, targets, 2, cfg, opt,
        np.random.default_rng(0), np.random.default_rng(1),
    )
    assert ld == 0.0
    assert tot == pytest.approx(lt)


def test_train_reproducible_and_logged():
    taps = ("conv1_1", "conv2_1")
    cfg = small_train_config(texture_taps=taps)
    ex = small_exemplars()
    p1, log1 = train(ex, cfg, synth_config=SMALL, extractor=EXT)
    p2, log2 = train(ex, cfg, synth_config=SMALL, extractor=EXT)
    assert log1.rows == log2.rows
    assert len(log1.rows) == cfg.iterations
    assert [r[0] for r in log1.rows] == list(range(cfg.iterations))
    for name in p1.tensors:
        np.testing.assert_array_equal(p1.tensors[name].data, p2.tensors[name].data)


def test_train_extractor_stays_frozen():
    taps = ("conv1_1",)
    cfg = small_train_config(texture_taps=taps, beta=0.0, batch_size=1)
    before = EXT.signature()
    train(small_exemplars(), cfg, synth_config=SMALL, extractor=EXT)
    assert EXT.signature() == before


def test_train_writes_checkpoints(tmp_path):
    taps = ("conv1_1",)
    cfg = small_train_config(
        texture_taps=taps,
        beta=0.0,
        batch_size=1,
        iterations=4,
        checkpoint_every=2,
        checkpoint_dir=str(tmp_path),
    )
    from texsyn.generator import load_model

    train(small_exemplars(), cfg, synth_config=SMALL, extractor=EXT)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["checkpoint_2.model", "checkpoint_4.model"]
    load_model(str(tmp_path / "checkpoint_4.model"))


def reference_step(params, texture_id, target, cfg, noise_rng, derangement_rng) -> tuple:
    """The per-sample loop of train_step before batch_losses; returns its loss Tensors."""
    selection = one_hot(params.config, texture_id)
    taps = tuple(cfg.texture_taps)
    if cfg.beta != 0.0 and cfg.diversity_tap not in taps:
        taps = taps + (cfg.diversity_tap,)
    tex_sum, div_feats = None, []
    for _ in range(cfg.batch_size):
        noise = sample_noise(params.config, noise_rng)
        feats = extract(EXT, generate(params, selection, noise[None], use_selector=cfg.use_selector), taps)
        term = texture_loss(target, feats)
        tex_sum = term if tex_sum is None else ad.add(tex_sum, term)
        if cfg.beta != 0.0:
            div_feats.append(feats[cfg.diversity_tap])
    l_texture = ad.scale(tex_sum, 1.0 / cfg.batch_size)
    if cfg.beta == 0.0:
        l_diversity = Tensor(np.zeros((), dtype=l_texture.dtype))
    else:
        l_diversity = per_sample_diversity(div_feats, derangement_rng)
    return l_texture, l_diversity, total_loss(l_texture, l_diversity, cfg.alpha, cfg.beta)


def assert_agree(got: list, want: list, rtol: float) -> None:
    """Each value within ``rtol`` of the reference, relative to the largest
    magnitude of its tensor (a scalar loss: to itself)."""
    for g, w in zip(got, want):
        g, w = np.asarray(g, dtype=np.float64), np.asarray(w, dtype=np.float64)
        assert np.max(np.abs(g - w)) <= rtol * np.max(np.abs(w)), (g, w)


@pytest.mark.parametrize("beta", [-1.0, 0.0])
def test_batch_losses_equal_the_per_sample_loop(beta, monkeypatch):
    # The batch sums in another order than the per-sample loop, so the two
    # agree to rounding: 1e-5 in float32 (the training width) and 1e-10 in
    # float64, for the three losses and every parameter gradient.
    taps = ("conv1_1", "conv2_1")
    cfg = small_train_config(beta=beta, batch_size=4, texture_taps=taps, diversity_tap="conv3_1")
    for dtype, rtol in ((np.float32, 1e-5), (np.float64, 1e-10)):
        targets = precompute_targets(EXT, small_exemplars(), taps=taps)
        if dtype == np.float64:
            targets = [{tap: g.astype(dtype) for tap, g in t.items()} for t in targets]
        runs = []
        for way in ("reference", "batch_losses", "train_step"):
            fresh = init_params(SMALL, seed=1)
            params = ParamSet.of(SMALL, {n: t.data.astype(dtype) for n, t in fresh.tensors.items()})
            # this stream's derangement, a 4-cycle, is not fixed by relabeling
            # the batch, so the order of the diversity maps shows
            noise_rng, derangement_rng = np.random.default_rng(0), np.random.default_rng(2)
            if way == "reference":
                losses = reference_step(params, 2, targets[1], cfg, noise_rng, derangement_rng)
                grads = ad.backward(losses[2], params.parameters())
            elif way == "batch_losses":
                def render(n):
                    return generate(params, one_hot(SMALL, 2), np.stack([sample_noise(SMALL, noise_rng) for _ in range(n)]))

                l_tex, l_div, maps = batch_losses(cfg, EXT, targets[1], render, taps, derangement_rng)
                assert (maps is not None and maps.shape[0] == 4) == (beta != 0.0)
                losses = (l_tex, l_div, total_loss(l_tex, l_div, cfg.alpha, cfg.beta))
                grads = ad.backward(losses[2], params.parameters())
            else:
                opt = Adam(params.parameters(), lr=cfg.lr)
                steps = record_steps(monkeypatch)
                losses = train_step(params, EXT, targets, 2, cfg, opt, noise_rng, derangement_rng)
                (grads,) = steps
            values = [float(v.data) if isinstance(v, Tensor) else v for v in losses]
            runs.append((values, grads))
            assert all(g.dtype == dtype for g in grads)
        for values, grads in runs[1:]:
            assert_agree(values, runs[0][0], rtol)
            assert_agree(grads, runs[0][1], rtol)
        assert (runs[0][0][1] == 0.0) == (beta == 0.0)
        assert runs[1][0][1] == runs[2][0][1]


def test_train_rejects_mismatched_config():
    cfg = small_train_config()
    with pytest.raises(ValueError):
        train([exemplar(1)], cfg, synth_config=SMALL, extractor=EXT)


# ---------------------------------------------------------------------------
# failures and the hooks benchmarks patch


def test_train_names_iteration_of_non_finite_loss():
    cfg = small_train_config(texture_taps=("conv1_1",), alpha=float("nan"))
    with pytest.raises(TrainingError, match="aborted at iteration 0 on texture 1"):
        train(small_exemplars(), cfg, synth_config=SMALL, extractor=EXT)


def test_train_names_a_later_failing_iteration(monkeypatch):
    import texsyn.trainer as trainer
    from texsyn.autodiff import NonFiniteError

    real = trainer.train_step
    calls = []

    def fail_third(*args):
        calls.append(args[3])
        if len(calls) == 3:
            raise NonFiniteError("non-finite values in output of 'scale'")
        return real(*args)

    monkeypatch.setattr(trainer, "train_step", fail_third)
    cfg = small_train_config(texture_taps=("conv1_1",), beta=0.0, batch_size=1)
    with pytest.raises(TrainingError) as info:
        train(small_exemplars(), cfg, synth_config=SMALL, extractor=EXT)
    assert len(calls) == 3
    assert str(info.value).startswith(f"aborted at iteration 2 on texture {calls[2]}: ")


def test_train_calls_hooks_through_its_own_module(monkeypatch, tmp_path):
    # benchmarks patch trainer.schedule_texture and trainer.save_model
    import os

    import texsyn.trainer as trainer
    import texsyn.transfer as tf

    picks, saves = [], []
    real_pick, real_save = trainer.schedule_texture, trainer.save_model

    def pick(iteration, schedule):
        picks.append(iteration)
        return real_pick(iteration, schedule)

    def save(params, path):
        saves.append(os.path.basename(path))
        real_save(params, path)

    monkeypatch.setattr(trainer, "schedule_texture", pick)
    monkeypatch.setattr(tf, "schedule_texture", lambda it, s: picks.append("transfer"))
    monkeypatch.setattr(trainer, "save_model", save)
    cfg = small_train_config(
        texture_taps=("conv1_1",), beta=0.0, batch_size=1, checkpoint_every=2,
        checkpoint_dir=str(tmp_path),
    )
    train(small_exemplars(), cfg, synth_config=SMALL, extractor=EXT)
    assert picks == [0, 1, 2, 3]
    assert saves == ["checkpoint_2.model", "checkpoint_4.model"]
    assert sorted(os.listdir(tmp_path)) == saves


# A desk-size ``texsyn train`` in a fresh interpreter, with BLAS at the
# thread count set in its environment; prints the model file's sha256.
TRAIN_AND_HASH = """
import hashlib, sys
from texsyn.cli import main
assert main(sys.argv[2:]) == 0
with open(sys.argv[1], "rb") as f:
    print(hashlib.sha256(f.read()).hexdigest())
"""


def test_texture_training_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """12 iterations at the default 32x32 sizes write the same model at 1 and 2 threads."""
    paths = write_exemplars(tmp_path, 3)
    digests = []
    for threads in ("1", "2"):
        model = str(tmp_path / f"threads{threads}.model")
        env = dict(
            os.environ,
            OPENBLAS_NUM_THREADS=threads,
            PYTHONPATH=os.path.dirname(os.path.dirname(texsyn.__file__)),
        )
        done = subprocess.run(
            [
                sys.executable, "-c", TRAIN_AND_HASH, model, "train", "--seed", "7",
                "--set", f"paths.exemplars={','.join(paths)}",
                "--set", "train.K=3", "--set", "train.iterations=12",
                "--set", f"paths.model={model}",
                "--set", f"paths.log={tmp_path / f'threads{threads}.csv'}",
            ],
            env=env, capture_output=True, text=True, check=True,
        )
        digests.append(done.stdout.split()[-1])
    assert digests[0] == digests[1]
