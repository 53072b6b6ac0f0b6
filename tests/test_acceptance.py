"""Acceptance suite: twelve binding criteria, one test (and pass/fail line) each.

Heavy training runs are shared through a module-scoped cache so each
configuration is trained exactly once per session.  Thresholds and scales
appear exactly as pinned; nothing here is tuned per-seed.
"""

import hashlib
import itertools
import time

import numpy as np
import pytest

from helpers import cloud_texture, exemplar_arrays, smooth_scene, write_exemplars
from texsyn.autodiff import CHECK_DTYPE, Tensor
from texsyn.extractor import build_extractor, extract
from texsyn.generator import generate, one_hot, sample_noise
from texsyn.gradcheck import COMPOSITE_TOL, PRIMITIVE_TOL, run_all
from texsyn.images import ImageBuffer, load_image, normalize, resize_box
from texsyn.losses import TEXTURE_TAPS, centered_gram, derangement, diversity_loss, gram
from texsyn.rng import stream
from texsyn.trainer import (
    Schedule,
    TrainConfig,
    pixel_optimize,
    precompute_targets,
    schedule_texture,
    train,
)
from texsyn.transfer import TransferConfig, train_transfer, transfer
from texsyn.generator import SelectionUnit

DESK_SIZE = 32
DESK_K = 100
DESK_BATCH = 4
DESK_M = 3


@pytest.fixture(scope="module")
def desk_extractor():
    return build_extractor()


@pytest.fixture(scope="module")
def desk_exemplars():
    return [normalize(ImageBuffer(a)) for a in exemplar_arrays(DESK_M, DESK_SIZE)]


@pytest.fixture(scope="module")
def desk_cache():
    return {}


def desk_run(cache, exemplars, extractor, mode="incremental", beta=-1.0,
             selector=True, seed=0):
    """Train once per distinct configuration; returns (params, log, seconds)."""
    key = (mode, beta, selector, seed)
    if key not in cache:
        config = TrainConfig(
            seed=seed, K=DESK_K, batch_size=DESK_BATCH, mode=mode,
            beta=beta, use_selector=selector,
        )
        t0 = time.perf_counter()
        params, log = train(exemplars, config, extractor=extractor)
        cache[key] = (params, log, time.perf_counter() - t0)
    return cache[key]


def final_texture_loss(log, window=100):
    """Per-texture mean loss over the final window, averaged over textures.

    Convergence is judged texture by texture, so each texture gets equal
    weight; a raw window mean would instead be noised by which textures
    the random phase happened to sample inside the window.
    """
    rows = log.rows[-window:]
    per_texture = {}
    for _, texture, l_texture, _, _ in rows:
        per_texture.setdefault(texture, []).append(l_texture)
    return float(np.mean([np.mean(v) for v in per_texture.values()]))


def gram_loops(values: np.ndarray, center: bool) -> np.ndarray:
    c, h, w = values.shape
    f = values - values.mean() if center else values
    out = np.zeros((c, c))
    for i in range(c):
        for j in range(c):
            acc = 0.0
            for y in range(h):
                for x in range(w):
                    acc += float(f[i, y, x]) * float(f[j, y, x])
            out[i, j] = acc / (h * w)
    return out


def test_criterion_01_gradient_integrity():
    t0 = time.perf_counter()
    results = run_all(trials=10, seed=0)
    elapsed = time.perf_counter() - t0
    composite = results[-1]
    assert composite.name == "generator-to-loss composite"
    assert composite.tolerance == COMPOSITE_TOL and composite.passed, (
        f"composite rel err {composite.max_rel_err:.3e}"
    )
    for r in results[:-1]:
        assert r.tolerance == PRIMITIVE_TOL
        assert r.passed, f"{r.name} rel err {r.max_rel_err:.3e}"
    assert elapsed < 120.0, f"gradient checks took {elapsed:.0f}s"
    print(f"criterion 1: {len(results)} checks pass in {elapsed:.0f}s")


def test_criterion_02_gram_oracles():
    rng = np.random.default_rng(0)
    for c, h, w in itertools.product(range(1, 9), repeat=3):
        values = rng.standard_normal((1, c, h, w))
        t = Tensor(values, dtype=CHECK_DTYPE)
        plain = gram(t).data[0]
        centered = centered_gram(t).data[0]
        assert np.max(np.abs(plain - gram_loops(values[0], center=False))) <= 1e-6
        assert np.max(np.abs(centered - gram_loops(values[0], center=True))) <= 1e-6
        shifted_then_grammed = gram(
            Tensor(values - values.mean(), dtype=CHECK_DTYPE)
        ).data[0]
        assert np.max(np.abs(centered - shifted_then_grammed)) <= 1e-6
    values = rng.standard_normal((1, 8, 8, 8))
    reference = centered_gram(Tensor(values, dtype=CHECK_DTYPE)).data
    for shift in (1.0, -7.5, 100.0, 1e3, -1e3):
        moved = centered_gram(Tensor(values + shift, dtype=CHECK_DTYPE)).data
        assert np.max(np.abs(moved - reference)) <= 1e-4, f"shift {shift}"
    print("criterion 2: gram oracles, identity, and shift invariance hold")


def test_criterion_03_diversity_semantics():
    rng = np.random.default_rng(1)
    batch = Tensor(np.full((4, 2, 3, 3), 0.7))  # four identical [2,3,3] maps
    assert float(diversity_loss(batch, rng).data) == 0.0

    draw_rng = stream(0, "derangement")
    for i in range(10**5):
        n = 2 + i % 5
        sigma = derangement(n, draw_rng)
        assert not np.any(sigma == np.arange(n))

    counts = {(1, 2, 0): 0, (2, 0, 1): 0}
    freq_rng = stream(1, "derangement")
    draws = 10**5
    for _ in range(draws):
        counts[tuple(derangement(3, freq_rng))] += 1
    for perm, count in counts.items():
        assert abs(count / draws - 0.5) <= 0.02, f"{perm}: {count / draws:.3f}"
    print("criterion 3: diversity zero-point, derangement validity, uniformity hold")


def test_criterion_04_schedule_exactness():
    sched = Schedule(mode="incremental", K=3, M=3, rng=stream(0, "schedule"))
    emitted = [schedule_texture(i, sched) for i in range(13)]
    assert emitted[:9] == [1, 1, 1, 1, 2, 1, 1, 2, 3]
    assert all(1 <= t <= 3 for t in emitted[9:])
    again = Schedule(mode="incremental", K=3, M=3, rng=stream(0, "schedule"))
    assert [schedule_texture(i, again) for i in range(13)] == emitted

    freq = Schedule(mode="incremental", K=3, M=3, rng=stream(2, "schedule"))
    draws = 10**5
    counts = np.zeros(4)
    for i in range(draws):
        counts[schedule_texture(9 + i, freq)] += 1
    for t in (1, 2, 3):
        assert abs(counts[t] / draws - 1 / 3) <= 0.01, f"texture {t}"
    print(f"criterion 4: emission {emitted[:9]} then uniform random phase")


def test_criterion_05_pixel_optimization_oracle(desk_extractor, desk_exemplars):
    t0 = time.perf_counter()
    target = precompute_targets(desk_extractor, [desk_exemplars[0]], TEXTURE_TAPS)[0]
    init = stream(0, "noise").uniform(-1, 1, (3, DESK_SIZE, DESK_SIZE))
    _, losses = pixel_optimize(desk_extractor, target, init.astype(np.float32), steps=500, lr=1e-2)
    ratio = losses[-1] / losses[0]
    assert ratio <= 0.10, f"loss only fell to {ratio:.1%} of initial"

    _, fixed = pixel_optimize(
        desk_extractor, target, desk_exemplars[0].data.copy(), steps=100, lr=1e-2
    )
    assert max(fixed) <= 1e-5, f"exemplar init rose to {max(fixed):.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"oracle took {elapsed:.0f}s"
    print(f"criterion 5: 500 steps reach {ratio:.1%} of initial loss in {elapsed:.0f}s")


def test_criterion_06_feed_forward_descent(desk_cache, desk_exemplars, desk_extractor):
    params, log, seconds = desk_run(desk_cache, desk_exemplars, desk_extractor, seed=0)
    assert seconds < 600.0, f"training took {seconds:.0f}s"
    for t in range(1, DESK_M + 1):
        rows = [r for r in log.rows if r[1] == t]
        intro_iter = (t - 1) * DESK_K + (t - 1)
        assert rows[0][0] == intro_iter
        intro = rows[0][2]
        final = float(np.mean([r[2] for r in rows[-10:]]))
        assert final <= 0.5 * intro, (
            f"texture {t}: intro {intro:.1f} -> final {final:.1f} "
            f"({final / intro:.1%}, needs <= 50%)"
        )
    print(f"criterion 6: all {DESK_M} textures halve their introduction loss "
          f"({seconds:.0f}s)")


def test_criterion_07_incremental_vs_random(desk_cache, desk_exemplars, desk_extractor):
    wins = 0
    details = []
    for seed in (0, 1, 2):
        _, inc_log, _ = desk_run(
            desk_cache, desk_exemplars, desk_extractor, mode="incremental", seed=seed
        )
        _, rand_log, _ = desk_run(
            desk_cache, desk_exemplars, desk_extractor, mode="random", seed=seed
        )
        inc, rand = final_texture_loss(inc_log), final_texture_loss(rand_log)
        details.append(f"seed {seed}: inc {inc:.2f} vs rand {rand:.2f}")
        wins += inc <= rand
    assert wins >= 2, "; ".join(details)
    print(f"criterion 7: incremental <= random in {wins}/3 pairs ({'; '.join(details)})")


def test_criterion_08_diversity_direction(desk_cache, desk_exemplars, desk_extractor):
    with_div, _, _ = desk_run(desk_cache, desk_exemplars, desk_extractor, seed=0)
    without, _, _ = desk_run(
        desk_cache, desk_exemplars, desk_extractor, beta=0.0, seed=0
    )
    noise_rng = stream(777, "noise")
    noises = [sample_noise(with_div.config, noise_rng) for _ in range(8)]

    def spread(params, texture):
        feats = [
            extract(
                desk_extractor,
                generate(params, one_hot(params.config, texture), nz[None]),
                ("conv4_2",),
            )["conv4_2"].data
            for nz in noises
        ]
        return float(np.mean([
            np.mean(np.abs(a - b)) for a, b in itertools.combinations(feats, 2)
        ]))

    pairs = []
    for t in range(1, DESK_M + 1):
        diverse, flat = spread(with_div, t), spread(without, t)
        assert diverse > flat, (
            f"texture {t}: beta=-1 spread {diverse:.5f} not > beta=0 {flat:.5f}"
        )
        pairs.append(f"({diverse:.5f}, {flat:.5f})")
    print("criterion 8: beta=-1 strictly widens sample spread for every texture; "
          f"(beta=-1, beta=0) spreads {', '.join(pairs)}")


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """A small trained model reachable through the command line."""
    from texsyn.cli import main

    tmp = tmp_path_factory.mktemp("cli")
    paths = write_exemplars(tmp, 2, size=16)
    cfg = tmp / "run.cfg"
    cfg.write_text(
        "synthesis.embed_dim = 4\nsynthesis.noise_dim = 3\n"
        "synthesis.scales = 2\nsynthesis.widths = 12, 12, 8\n"
        "synthesis.guidance_channels = 4\n"
        "extractor.stage_channels = 4, 8, 8\nextractor.convs_per_stage = 1, 1, 1\n"
        "train.texture_taps = conv1_1, conv2_1\ntrain.diversity_tap = conv3_1\n"
        "train.K = 4\ntrain.iterations = 24\ntrain.batch_size = 2\n"
        f"paths.exemplars = {', '.join(paths)}\n"
        f"paths.output_dir = {tmp}\n"
        f"paths.model = {tmp}/synthesis.model\n"
        f"paths.log = {tmp}/loss.csv\n"
    )
    assert main(["train", "--seed", "11", "--config", str(cfg)]) == 0
    return tmp, str(cfg), main


def test_criterion_09_interpolation_endpoints(cli_workspace):
    tmp, cfg, main = cli_workspace

    def digest(name):
        with open(tmp / name, "rb") as f:
            return hashlib.sha256(f.read()).hexdigest()

    assert main(["synth", "--seed", "6", "--config", cfg, "--texture", "1"]) == 0
    assert main(["synth", "--seed", "6", "--config", cfg, "--texture", "2"]) == 0
    assert main([
        "interpolate", "--seed", "6", "--config", cfg,
        "--from", "1", "--to", "2", "--steps", "8",
    ]) == 0
    assert digest("interp1to2_s6_0.png") == digest("tex1_s6_0.png")
    assert digest("interp1to2_s6_7.png") == digest("tex2_s6_0.png")
    for i in range(8):
        image = load_image(str(tmp / f"interp1to2_s6_{i}.png"))
        assert image.data.shape == (16, 16, 3)
    print("criterion 9: interpolation endpoints bit-identical to one-hot synthesis")


def test_criterion_10_selector_ablation(desk_cache, desk_exemplars, desk_extractor):
    wins = 0
    details = []
    for seed in (0, 1, 2):
        _, with_log, _ = desk_run(
            desk_cache, desk_exemplars, desk_extractor, selector=True, seed=seed
        )
        _, without_log, _ = desk_run(
            desk_cache, desk_exemplars, desk_extractor, selector=False, seed=seed
        )
        w, wo = final_texture_loss(with_log), final_texture_loss(without_log)
        details.append(f"seed {seed}: with {w:.2f} vs without {wo:.2f}")
        wins += w <= wo
    assert wins >= 2, "; ".join(details)
    print(f"criterion 10: selector wins {wins}/3 ({'; '.join(details)})")


def test_criterion_11_style_transfer_sanity(desk_extractor):
    # smooth content and low-frequency styles: this check targets the
    # transfer mechanism, not generator capacity
    styles = [
        normalize(ImageBuffer(cloud_texture(DESK_SIZE, seed=4, cycles=(1.0, 2.0)))),
        normalize(ImageBuffer(cloud_texture(DESK_SIZE, seed=5, cycles=(2.0, 3.0)))),
    ]
    content = normalize(ImageBuffer(smooth_scene(DESK_SIZE)))

    content_only = TransferConfig(
        seed=0, alpha=0.0, beta=0.0, content_weight=1.0, batch_size=1, iterations=900
    )
    _, log = train_transfer(styles, [content], content_only, extractor=desk_extractor)
    l_content = [row[5] for row in log.rows]
    ratio = float(np.mean(l_content[-10:])) / l_content[0]
    assert ratio <= 0.20, f"content loss only fell to {ratio:.1%}"

    full_config = TransferConfig(seed=0)
    params, full_log = train_transfer(
        styles, [content], full_config, extractor=desk_extractor
    )
    l_style = [row[2] for row in full_log.rows]
    first = float(np.mean(l_style[:10]))
    last = float(np.mean(l_style[-10:]))
    assert last <= 0.5 * first, f"style loss {first:.2f} -> {last:.2f}"

    buffer = ImageBuffer(smooth_scene(64))
    for size in (32, 48, 64):
        resized = normalize(resize_box(buffer, size, size))
        weights = np.zeros(params.config.styles)
        weights[0] = 1.0
        out = transfer(params, resized, SelectionUnit(weights), stream(5, "transfer-noise"))
        assert out.shape == (3, size, size)
    assert np.isfinite(out.data).all()
    print(f"criterion 11: content ratio {ratio:.1%}, style {first:.1f}->{last:.1f}, "
          "sizes track 32/48/64")


def test_criterion_12_bitwise_determinism(tmp_path):
    from texsyn.cli import main

    paths = write_exemplars(tmp_path, 2, size=16)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "synthesis.embed_dim = 4\nsynthesis.noise_dim = 3\n"
        "synthesis.scales = 2\nsynthesis.widths = 12, 12, 8\n"
        "synthesis.guidance_channels = 4\n"
        "extractor.stage_channels = 4, 8, 8\nextractor.convs_per_stage = 1, 1, 1\n"
        "train.texture_taps = conv1_1, conv2_1\ntrain.diversity_tap = conv3_1\n"
        "train.K = 4\ntrain.iterations = 24\ntrain.batch_size = 2\n"
        f"paths.exemplars = {', '.join(paths)}\n"
        f"paths.output_dir = {tmp_path}\n"
    )

    def run_once(tag):
        model = tmp_path / f"{tag}.model"
        log = tmp_path / f"{tag}.csv"
        assert main([
            "train", "--seed", "21", "--config", str(cfg),
            "--set", f"paths.model={model}", "--set", f"paths.log={log}",
        ]) == 0
        with open(model, "rb") as f:
            model_hash = hashlib.sha256(f.read()).hexdigest()
        with open(log, "rb") as f:
            log_hash = hashlib.sha256(f.read()).hexdigest()
        return model_hash, log_hash

    assert run_once("first") == run_once("second")
    print("criterion 12: identical seed+config give byte-identical model and log")
