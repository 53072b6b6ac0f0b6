"""End-to-end command-line behavior: artifacts, determinism, exit codes."""

import hashlib
import os

import numpy as np
import pytest

from helpers import read_loss_log, write_exemplars
from texsyn.cli import main
from texsyn.images import load_image

# A configuration small enough that a full training run takes seconds.
TINY_CFG = """
synthesis.embed_dim = 4
synthesis.noise_dim = 3
synthesis.base_size = 4
synthesis.scales = 2
synthesis.widths = 12, 12, 8
synthesis.guidance_channels = 4
extractor.stage_channels = 4, 8, 8
extractor.convs_per_stage = 1, 1, 1
train.texture_taps = conv1_1, conv2_1
train.diversity_tap = conv3_1
train.K = 2
train.iterations = 8
train.batch_size = 2
transfer.style_taps = conv1_1, conv2_1
transfer.diversity_tap = conv3_1
transfer.K = 2
transfer.iterations = 6
transfer.batch_size = 2
transfer.enc_widths = 6, 8
transfer.dec_widths = 8, 6, 6
"""


def sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


@pytest.fixture
def workspace(tmp_path):
    paths = write_exemplars(tmp_path, 2, size=16)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        TINY_CFG
        + f"paths.exemplars = {', '.join(paths)}\n"
        + f"paths.output_dir = {tmp_path}\n"
        + f"paths.model = {tmp_path}/synthesis.model\n"
        + f"paths.transfer_model = {tmp_path}/transfer.model\n"
        + f"paths.log = {tmp_path}/loss.csv\n"
        + f"paths.contents = {paths[0]}\n"
    )
    return tmp_path, str(cfg)


def run(*argv):
    return main(list(argv))


def test_train_then_synth_writes_expected_files(workspace, capsys):
    tmp, cfg = workspace
    assert run("train", "--seed", "5", "--config", cfg) == 0
    assert (tmp / "synthesis.model").exists()
    header, rows = read_loss_log(tmp / "loss.csv")
    assert header == "iter,texture,l_texture,l_diversity,total"
    assert len(rows) == 8

    assert run("synth", "--seed", "5", "--config", cfg, "--texture", "1", "--samples", "2") == 0
    for k in range(2):
        image = load_image(str(tmp / f"tex1_s5_{k}.png"))
        assert image.data.shape == (16, 16, 3)
    out = capsys.readouterr().out
    assert "tex1_s5_0.png" in out and "tex1_s5_1.png" in out


def test_training_is_deterministic_across_runs(workspace):
    tmp, cfg = workspace
    hashes = []
    for attempt in ("a", "b"):
        model = tmp / f"{attempt}.model"
        log = tmp / f"{attempt}.csv"
        code = run(
            "train", "--seed", "9", "--config", cfg,
            "--set", f"paths.model={model}", "--set", f"paths.log={log}",
        )
        assert code == 0
        hashes.append((sha(model), sha(log)))
    assert hashes[0] == hashes[1]


def test_seed_changes_the_artifacts(workspace):
    tmp, cfg = workspace
    for seed in ("1", "2"):
        assert run(
            "train", "--seed", seed, "--config", cfg,
            "--set", f"paths.model={tmp}/m{seed}.model",
            "--set", f"paths.log={tmp}/l{seed}.csv",
        ) == 0
    assert sha(tmp / "m1.model") != sha(tmp / "m2.model")


def test_synth_reruns_bit_identical(workspace):
    tmp, cfg = workspace
    assert run("train", "--seed", "3", "--config", cfg) == 0
    assert run("synth", "--seed", "7", "--config", cfg, "--texture", "2") == 0
    first = sha(tmp / "tex2_s7_0.png")
    assert run("synth", "--seed", "7", "--config", cfg, "--texture", "2") == 0
    assert sha(tmp / "tex2_s7_0.png") == first


def default_model(tmp):
    """A freshly initialized 32x32 synthesis model of default sizes at the workspace's path."""
    from texsyn.generator import SynthesisConfig, init_params, save_model

    params = init_params(SynthesisConfig(textures=2), 0)
    assert params.config.output_size == 32
    save_model(params, str(tmp / "synthesis.model"))


# a 32x32 model renders batches of at most 8192 // 32**2 = 8 rows
@pytest.mark.parametrize("samples, rows", [(1, [1]), (3, [3]), (17, [8, 8, 1])], ids=["1", "3", "17"])
def test_synth_renders_one_batch_equal_to_per_sample_calls(workspace, monkeypatch, samples, rows):
    from texsyn import cli
    from texsyn.generator import generate, load_model, one_hot, sample_noise
    from texsyn.images import denormalize, save_image
    from texsyn.rng import stream

    tmp, cfg = workspace
    default_model(tmp)
    batches = []

    def spy(params, selection, noise):
        batches.append(noise.shape)
        return generate(params, selection, noise)

    monkeypatch.setattr(cli, "generate", spy)
    assert run("synth", "--seed", "6", "--config", cfg, "--texture", "2", "--samples", str(samples)) == 0
    params = load_model(str(tmp / "synthesis.model"))
    assert batches == [(n, params.config.noise_dim) for n in rows]
    noise_rng = stream(6, "noise")
    for k in range(samples):
        single = generate(params, one_hot(params.config, 2), sample_noise(params.config, noise_rng))
        save_image(denormalize(single), str(tmp / f"single{k}.png"))
        assert sha(tmp / f"tex2_s6_{k}.png") == sha(tmp / f"single{k}.png")


# tracemalloc's peak of one CLI command, in a fresh interpreter: in the test
# process, memory gathered by earlier tests (numpy's lazily grown internals
# among it) lands inside the traced window or not depending on test order.
# The command first runs untraced with its last argument, the image count,
# set to ``warm_up``, so one-time costs (lazy imports of numpy.random and
# locale, first-use buffers) stay out of the measure.
MEASURE_PEAK = """
import sys, tracemalloc
from texsyn.cli import main
assert main(sys.argv[2:-1] + [sys.argv[1]]) == 0
tracemalloc.start()
code = main(sys.argv[2:])
print(code, tracemalloc.get_traced_memory()[1])
"""


def peak_of_command(warm_up: int, *argv) -> int:
    import subprocess
    import sys

    import texsyn

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(texsyn.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", MEASURE_PEAK, str(warm_up), *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    code, peak = done.stdout.split()[-2:]
    assert code == "0"
    return int(peak)


def test_synth_memory_stays_bounded_in_the_sample_count(workspace):
    tmp, cfg = workspace
    default_model(tmp)
    peak = peak_of_command(1, "synth", "--seed", "6", "--config", cfg, "--texture", "1", "--samples", "64")
    # one batch of all 64 rows peaks near 24 MB
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_interpolate_memory_stays_bounded_in_the_step_count(workspace):
    tmp, cfg = workspace
    default_model(tmp)
    peak = peak_of_command(
        2, "interpolate", "--seed", "6", "--config", cfg, "--from", "1", "--to", "2", "--steps", "256"
    )
    # holding all 256 images until the end peaks near 5 MB
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_synth_creates_the_output_directory_once(workspace, monkeypatch):
    tmp, cfg = workspace
    default_model(tmp)
    calls = []
    real = os.makedirs
    monkeypatch.setattr(os, "makedirs", lambda *a, **k: calls.append(a) or real(*a, **k))
    out = tmp / "out"
    assert run(
        "synth", "--seed", "6", "--config", cfg, "--texture", "1", "--samples", "20",
        "--set", f"paths.output_dir={out}",
    ) == 0
    assert calls == [(str(out),)]
    assert len(os.listdir(out)) == 20


def test_interpolate_renders_batches_equal_to_single_selection_calls(workspace, monkeypatch):
    from texsyn import cli
    from texsyn.generator import generate, load_model, sample_noise, weighted_selection
    from texsyn.images import denormalize, save_image
    from texsyn.rng import stream

    tmp, cfg = workspace
    default_model(tmp)
    batches = []

    def spy(params, selection, noise):
        batches.append((selection.weights.shape, noise.shape))
        return generate(params, selection, noise)

    monkeypatch.setattr(cli, "generate", spy)
    assert run("interpolate", "--seed", "6", "--config", cfg, "--from", "2", "--to", "1", "--steps", "17") == 0
    params = load_model(str(tmp / "synthesis.model"))
    m, n = params.config.textures, params.config.noise_dim
    # one selection row per image, in batches of at most 8 rows at 32x32
    assert batches == [((rows, m), (rows, n)) for rows in (8, 8, 1)]
    noise = sample_noise(params.config, stream(6, "noise"))
    for i in range(17):
        weight = 1.0 - i / 16
        single = generate(params, weighted_selection(m, [(2, weight), (1, 1.0 - weight)]), noise)
        save_image(denormalize(single), str(tmp / f"single{i}.png"))
        assert sha(tmp / f"interp2to1_s6_{i}.png") == sha(tmp / f"single{i}.png")


def test_interpolate_endpoints_match_one_hot_synthesis(workspace):
    tmp, cfg = workspace
    assert run("train", "--seed", "3", "--config", cfg) == 0
    assert run("synth", "--seed", "4", "--config", cfg, "--texture", "1") == 0
    assert run("synth", "--seed", "4", "--config", cfg, "--texture", "2") == 0
    assert run(
        "interpolate", "--seed", "4", "--config", cfg,
        "--from", "1", "--to", "2", "--steps", "3",
    ) == 0
    assert sha(tmp / "interp1to2_s4_0.png") == sha(tmp / "tex1_s4_0.png")
    assert sha(tmp / "interp1to2_s4_2.png") == sha(tmp / "tex2_s4_0.png")
    middle = load_image(str(tmp / "interp1to2_s4_1.png"))
    assert middle.data.shape == (16, 16, 3)


def test_oracle_writes_image_and_trace(workspace):
    tmp, cfg = workspace
    target = str(tmp / "exemplar1.png")
    assert run(
        "oracle", "--seed", "1", "--config", cfg,
        "--target", target, "--steps", "3",
    ) == 0
    assert load_image(str(tmp / "oracle.png")).data.shape == (16, 16, 3)
    lines = (tmp / "oracle_trace.csv").read_text().strip().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 1 + 3 + 1  # header, init, one per step
    losses = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(np.isfinite(losses))


def test_oracle_exemplar_init_stays_put(workspace):
    tmp, cfg = workspace
    target = str(tmp / "exemplar1.png")
    assert run(
        "oracle", "--seed", "1", "--config", cfg,
        "--target", target, "--init", target, "--steps", "2",
    ) == 0
    out = load_image(str(tmp / "oracle.png"))
    assert np.array_equal(out.data, load_image(target).data)


def test_transfer_training_and_stylization(workspace):
    tmp, cfg = workspace
    assert run("train", "--seed", "2", "--config", cfg, "--transfer") == 0
    assert (tmp / "transfer.model").exists()
    content = str(tmp / "exemplar2.png")
    assert run(
        "transfer", "--seed", "2", "--config", cfg,
        "--content", content, "--style", "1",
    ) == 0
    assert load_image(str(tmp / "styled1_s2.png")).data.shape == (16, 16, 3)
    assert run(
        "transfer", "--seed", "2", "--config", cfg,
        "--content", content, "--mix", "1:0.5,2:0.5",
    ) == 0
    assert (tmp / "styledmix_s2.png").exists()


def test_gradcheck_command_passes(capsys):
    assert run("gradcheck", "--seed", "0", "--trials", "1") == 0
    out = capsys.readouterr().out
    assert "generator-to-loss composite" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_gradcheck_trial_count_below_one_is_a_user_error(capsys, trials):
    assert run("gradcheck", "--seed", "0", "--trials", trials) == 1
    captured = capsys.readouterr()
    assert "trials must be >= 1" in captured.err
    assert "passed" not in captured.out


def test_negative_checkpoint_interval_is_a_user_error_writing_nothing(workspace, capsys):
    tmp, cfg = workspace
    before = sorted(os.listdir(tmp))
    code = run(
        "train", "--seed", "1", "--config", cfg,
        "--set", "train.checkpoint_every=-1", "--set", f"train.checkpoint_dir={tmp}",
    )
    assert code == 1
    assert "checkpoint_every must be >= 0" in capsys.readouterr().err
    assert sorted(os.listdir(tmp)) == before


def test_defaults_output_is_valid_config(tmp_path, capsys):
    assert run("defaults") == 0
    text = capsys.readouterr().out
    from texsyn.config import default_config, parse_config

    assert parse_config(text).values == default_config().values


def test_exit_codes_for_user_errors(workspace, capsys):
    tmp, cfg = workspace
    # missing config file
    assert run("synth", "--seed", "1", "--config", str(tmp / "no.cfg"), "--texture", "1") == 1
    # unknown config key
    assert run("train", "--seed", "1", "--config", cfg, "--set", "train.oops=1") == 1
    # missing model file
    assert run("synth", "--seed", "1", "--config", cfg, "--texture", "1") == 1
    # texture id out of range
    assert run("train", "--seed", "1", "--config", cfg) == 0
    assert run("synth", "--seed", "1", "--config", cfg, "--texture", "9") == 1
    # malformed PNG
    bad = tmp / "bad.png"
    bad.write_bytes(b"not a png at all")
    assert run("oracle", "--seed", "1", "--config", cfg, "--target", str(bad)) == 1
    err = capsys.readouterr().err
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--texture", "1", "--samples", "0"],
        ["synth", "--texture", "1", "--samples", "-2"],
        ["interpolate", "--from", "1", "--to", "1", "--steps", "3"],
        ["interpolate", "--from", "2", "--to", "2", "--steps", "2"],
        ["interpolate", "--from", "1", "--to", "9", "--steps", "3"],
    ],
)
def test_bad_image_request_is_a_user_error_writing_nothing(workspace, capsys, argv):
    tmp, cfg = workspace
    assert run("train", "--seed", "1", "--config", cfg) == 0
    before = sorted(os.listdir(tmp))
    assert run(argv[0], "--seed", "1", "--config", cfg, *argv[1:]) == 1
    assert sorted(os.listdir(tmp)) == before
    assert "error:" in capsys.readouterr().err


def test_consecutive_calls_parse_independently(workspace, capsys):
    from texsyn.cli import build_parser

    tmp, cfg = workspace
    default_model(tmp)
    (tmp / "other").mkdir()
    synth = ["synth", "--config", cfg, "--texture", "1"]
    assert run(*synth, "--seed", "1", "--set", f"paths.output_dir={tmp}/other") == 0
    assert run(*synth, "--seed", "2") == 0
    # the first call's --set did not carry over into the second
    assert os.listdir(tmp / "other") == ["tex1_s1_0.png"]
    assert (tmp / "tex1_s2_0.png").exists()
    assert build_parser() is build_parser()
    assert build_parser().parse_args(["synth", "--seed", "3", "--texture", "1"]).overrides == []
    # a usage error still exits 1 after a successful call, and a good call then succeeds
    assert run(*synth, "--seed", "x") == 1
    assert run("synth", "--texture", "1") == 1
    assert run(*synth, "--seed", "3") == 0
    capsys.readouterr()


def test_exit_code_for_missing_seed(workspace, capsys):
    _, cfg = workspace
    assert run("synth", "--config", cfg, "--texture", "1") == 1
    capsys.readouterr()


def test_no_partial_outputs_on_failure(workspace):
    tmp, cfg = workspace
    # training with a non-existent exemplar fails before writing anything
    assert run(
        "train", "--seed", "1", "--config", cfg,
        "--set", f"paths.exemplars={tmp}/ghost.png",
    ) == 1
    assert not (tmp / "synthesis.model").exists()
    assert not (tmp / "loss.csv").exists()


@pytest.mark.parametrize(
    "setting, extra",
    [
        ("train.texture_taps=conv1_1,conv1_1", []),
        ("train.texture_taps=conv4_1", []),  # the workspace extractor has 3 stages
        ("transfer.style_taps=conv1_2", ["--transfer", "--resize", "16"]),
    ],
)
def test_bad_loss_tap_fails_before_training(workspace, monkeypatch, capsys, setting, extra):
    import texsyn.trainer as trainer
    import texsyn.transfer as tf

    tmp, cfg = workspace
    for module in (trainer, tf):
        monkeypatch.setattr(module, "fit", lambda *a, **k: pytest.fail("training started"))
    assert run("train", "--seed", "1", "--config", cfg, "--set", setting, *extra) == 1
    assert "tap" in capsys.readouterr().err
    assert not (tmp / "synthesis.model").exists() and not (tmp / "loss.csv").exists()


@pytest.mark.parametrize("extra", [[], ["--transfer", "--resize", "16"]], ids=["train", "transfer"])
@pytest.mark.parametrize(
    "setting, message",
    [
        ("lr=nan", "learning rate"),
        ("lr=inf", "learning rate"),
        ("lr=-0.001", "learning rate"),
        ("iterations=-3", "iterations"),
        ("iterations=0", "iterations"),
    ],
)
def test_bad_learning_rate_or_iteration_count_fails_before_training(
    workspace, monkeypatch, capsys, setting, message, extra
):
    import texsyn.trainer as trainer
    import texsyn.transfer as tf

    tmp, cfg = workspace
    for module in (trainer, tf):
        monkeypatch.setattr(module, "fit", lambda *a, **k: pytest.fail("training started"))
    before = sorted(os.listdir(tmp))
    section = "transfer" if extra else "train"
    assert run("train", "--seed", "1", "--config", cfg, "--set", f"{section}.{setting}", *extra) == 1
    assert message in capsys.readouterr().err
    assert sorted(os.listdir(tmp)) == before


@pytest.mark.parametrize("lr", ["nan", "inf", "-0.001"])
def test_oracle_bad_learning_rate_fails_before_optimizing(workspace, monkeypatch, capsys, lr):
    import texsyn.trainer as trainer

    tmp, cfg = workspace
    monkeypatch.setattr(trainer, "texture_loss", lambda *a, **k: pytest.fail("optimization started"))
    before = sorted(os.listdir(tmp))
    target = str(tmp / "exemplar1.png")
    assert run("oracle", "--seed", "1", "--config", cfg, "--target", target, "--lr", lr) == 1
    assert "learning rate" in capsys.readouterr().err
    assert sorted(os.listdir(tmp)) == before


@pytest.mark.parametrize(
    "key, missing, extra",
    [
        ("paths.model", "gone/synthesis.model", []),
        ("paths.log", "gone/loss.csv", []),
        ("train.checkpoint_dir", "gone", ["--set", "train.checkpoint_every=2"]),
        ("paths.transfer_model", "gone/transfer.model", ["--transfer", "--resize", "16"]),
        ("paths.log", "gone/loss.csv", ["--transfer", "--resize", "16"]),
    ],
)
def test_train_checks_output_directories_before_training(
    workspace, monkeypatch, capsys, key, missing, extra
):
    import texsyn.cli as cli

    tmp, cfg = workspace
    calls = []
    monkeypatch.setattr(cli, "train", lambda *a, **k: calls.append("train"))
    monkeypatch.setattr(cli, "train_transfer", lambda *a, **k: calls.append("transfer"))
    code = run("train", "--seed", "1", "--config", cfg, "--set", f"{key}={tmp}/{missing}", *extra)
    assert code == 1
    assert calls == []
    err = capsys.readouterr().err
    assert key in err and "does not exist" in err


def untrained_models(tmp):
    """Freshly initialized synthesis and transfer models at the paths of the workspace."""
    from texsyn import config as cfg
    from texsyn.generator import init_params, save_model
    from texsyn.transfer import init_transfer_params, save_transfer_model

    run_config = cfg.parse_config(TINY_CFG)
    save_model(init_params(cfg.synthesis_config(run_config, 2), 0), str(tmp / "synthesis.model"))
    net = cfg.transfer_net_config(run_config, styles=2)
    save_transfer_model(init_transfer_params(net, 0), str(tmp / "transfer.model"))


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_oracle_step_count_below_one_writes_nothing(workspace, capsys, steps):
    tmp, cfg = workspace
    before = sorted(os.listdir(tmp))
    target = str(tmp / "exemplar1.png")
    assert run("oracle", "--seed", "1", "--config", cfg, "--target", target, "--steps", steps) == 1
    assert "steps must be >= 1" in capsys.readouterr().err
    assert sorted(os.listdir(tmp)) == before


@pytest.mark.parametrize(
    "setting",
    [
        "synthesis.base_size=0",
        "synthesis.guidance_channels=0",
        "synthesis.widths=12,0,8",
        "extractor.stage_channels=0,8,8",
        "extractor.convs_per_stage=1,0,1",
        "transfer.enc_widths=0,8",
        "transfer.dec_widths=8,6,-1",
    ],
)
def test_network_size_below_one_is_a_user_error_writing_nothing(workspace, capsys, setting):
    tmp, cfg = workspace
    extra = ["--transfer", "--resize", "16"] if setting.startswith("transfer.") else []
    before = sorted(os.listdir(tmp))
    assert run("train", "--seed", "1", "--config", cfg, "--set", setting, *extra) == 1
    assert "must be >= 1" in capsys.readouterr().err
    assert sorted(os.listdir(tmp)) == before


@pytest.mark.parametrize("mix", ["1:nan", "1:inf", "1:-inf"])
def test_non_finite_mix_weight_is_a_user_error(workspace, capsys, mix):
    tmp, cfg = workspace
    untrained_models(tmp)
    content = str(tmp / "exemplar1.png")
    assert run("transfer", "--seed", "1", "--config", cfg, "--content", content, "--mix", mix) == 1
    assert "finite and nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
@pytest.mark.parametrize(
    "model, argv",
    [
        ("synthesis.model", ["synth", "--texture", "1"]),
        ("transfer.model", ["transfer", "--style", "1", "--content", "exemplar1.png"]),
    ],
    ids=["synth", "transfer"],
)
def test_non_finite_model_header_is_a_user_error(workspace, capsys, value, model, argv):
    from texsyn import serialize

    tmp, cfg = workspace
    untrained_models(tmp)
    path = str(tmp / model)
    tensors = serialize.load_tensors(path)
    header = next(name for name in tensors if name.endswith(".config"))
    tensors[header][1] = value
    serialize.save_tensors(path, tensors)
    argv = [str(tmp / a) if a.endswith(".png") else a for a in argv]
    assert run(argv[0], "--seed", "1", "--config", cfg, *argv[1:]) == 1
    assert f"malformed '{header}' config header" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model, argv",
    [
        ("synthesis.model", ["synth", "--texture", "1"]),
        ("transfer.model", ["transfer", "--style", "1", "--content", "exemplar1.png"]),
    ],
    ids=["synth", "transfer"],
)
def test_non_finite_model_weight_is_a_user_error_writing_nothing(workspace, capsys, model, argv):
    from texsyn import serialize

    tmp, cfg = workspace
    untrained_models(tmp)
    path = str(tmp / model)
    tensors = serialize.load_tensors(path)
    bias = next(name for name in tensors if name.endswith(".bias"))
    tensors[bias][0] = np.nan
    serialize.save_tensors(path, tensors)
    before = sorted(os.listdir(tmp))
    argv = [str(tmp / a) if a.endswith(".png") else a for a in argv]
    assert run(argv[0], "--seed", "1", "--config", cfg, *argv[1:]) == 1
    assert f"tensor '{bias}' holds NaN or inf" in capsys.readouterr().err
    assert sorted(os.listdir(tmp)) == before


def test_non_finite_extractor_weight_file_is_a_user_error_writing_nothing(workspace, capsys):
    from texsyn import config, serialize
    from texsyn.extractor import build_extractor

    tmp, cfg = workspace
    weights = dict(build_extractor(config.extractor_config(config.parse_config(TINY_CFG))).weights)
    weights["conv2_1.kernel"] = weights["conv2_1.kernel"].copy()
    weights["conv2_1.kernel"][0, 0, 1, 1] = np.inf
    path = str(tmp / "extractor.bin")
    serialize.save_tensors(path, weights)
    before = sorted(os.listdir(tmp))
    target = str(tmp / "exemplar1.png")
    code = run(
        "oracle", "--seed", "1", "--config", cfg, "--target", target, "--steps", "2",
        "--set", f"extractor.weight_file={path}",
    )
    assert code == 1
    assert "tensor 'conv2_1.kernel' holds NaN or inf" in capsys.readouterr().err
    assert sorted(os.listdir(tmp)) == before


@pytest.mark.parametrize("extra", [[], ["--transfer", "--resize", "16"]])
def test_non_finite_training_exits_2(workspace, capsys, extra):
    tmp, cfg = workspace
    section = "transfer" if extra else "train"
    code = run("train", "--seed", "1", "--config", cfg, "--set", f"{section}.alpha=nan", *extra)
    assert code == 2
    assert "aborted at iteration 0" in capsys.readouterr().err
    assert not (tmp / "loss.csv").exists()
