"""Command-line entry points.

Six commands cover the whole workflow: ``train`` fits a synthesis model
(or, with ``--transfer``, a stylization network), ``synth`` samples a
trained model, ``interpolate`` sweeps the selection weights between two
textures, ``transfer`` stylizes a content image, ``oracle`` optimizes
raw pixels against one exemplar, and ``gradcheck`` reruns the full
finite-difference suite.

Every command takes ``--seed`` (mandatory: one integer reproduces the
run bit for bit), an optional ``--config`` file, and repeatable
``--set section.key=value`` overrides.  Exit codes: 0 success, 1 user
error (bad arguments, missing or malformed files), 2 internal error.
All outputs are written atomically, so a failed run leaves no partial
files.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import config as cfg
from .autodiff import NonFiniteError, Tensor
from .extractor import build_extractor
from .generator import (
    SelectionUnit,
    generate,
    load_model,
    one_hot,
    sample_noise,
    save_model,
)
from .images import denormalize, load_image, normalize, resize_box, save_image
from .rng import stream
from .serialize import atomic_write_bytes
from .trainer import TrainingError, pixel_optimize, precompute_targets, train
from .transfer import (
    interpolate_styles,
    load_transfer_model,
    save_transfer_model,
    train_transfer,
)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, required=True, help="master seed for the run")
    sub.add_argument("--config", help="run-config file (section.key = value lines)")
    sub.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key, e.g. --set train.K=50",
    )


def _run_config(args) -> cfg.RunConfig:
    run = cfg.load_config(args.config) if args.config else cfg.default_config()
    cfg.apply_overrides(run, args.overrides)
    return run


def _load_exemplars(paths, resize: int | None = None) -> list:
    if not paths:
        raise cfg.ConfigError("paths.exemplars is empty; nothing to train on")
    buffers = [load_image(p) for p in paths]
    if resize:
        buffers = [resize_box(b, resize, resize) for b in buffers]
    return [normalize(b) for b in buffers]


def _output_dir(run: cfg.RunConfig) -> str:
    """``paths.output_dir``, created if missing: once per command, not per file."""
    directory = run.get("paths.output_dir")
    os.makedirs(directory, exist_ok=True)
    return directory


def cmd_train(args) -> int:
    run = _run_config(args)
    model_key = "paths.transfer_model" if args.transfer else "paths.model"
    # a missing output directory fails the run before training, not after
    dirs = {k: os.path.dirname(os.path.abspath(run.get(k))) for k in (model_key, "paths.log")}
    checkpoint_dir = run.get("train.checkpoint_dir")
    if not args.transfer and run.get("train.checkpoint_every") and checkpoint_dir:
        dirs["train.checkpoint_dir"] = checkpoint_dir
    for key, directory in dirs.items():
        if not os.path.isdir(directory):
            raise cfg.ConfigError(f"{key}: directory {directory} does not exist")
    extractor = build_extractor(cfg.extractor_config(run))
    exemplar_paths = run.get("paths.exemplars")
    if args.transfer:
        if args.resize == 0:
            raise ValueError("transfer training needs an explicit --resize SIZE")
        exemplars = _load_exemplars(exemplar_paths, resize=args.resize)
        content_paths = run.get("paths.contents")
        if not content_paths:
            raise cfg.ConfigError("paths.contents is empty; transfer needs content images")
        contents = [normalize(load_image(p)) for p in content_paths]
        params, log = train_transfer(
            exemplars,
            contents,
            cfg.transfer_config(run, args.seed),
            net_config=cfg.transfer_net_config(run, styles=len(exemplars)),
            extractor=extractor,
            log_every=args.log_every,
        )
        save = save_transfer_model
    else:
        synth = cfg.synthesis_config(run, textures=len(exemplar_paths))
        resize = None
        if args.resize is not None:
            resize = args.resize or synth.output_size
        exemplars = _load_exemplars(exemplar_paths, resize=resize)
        params, log = train(
            exemplars,
            cfg.train_config(run, args.seed),
            synth_config=synth,
            extractor=extractor,
            log_every=args.log_every,
        )
        save = save_model
    model_path, log_path = run.get(model_key), run.get("paths.log")
    save(params, model_path)
    log.save(log_path)
    print(f"trained {len(exemplars)} textures; wrote {model_path} and {log_path}")
    return 0


def _write_images(directory: str, names: list, images) -> list:
    """Save each [3,S,S] image in [-1,1] under its file name; returns the paths."""
    written = []
    for name, image in zip(names, images):
        path = os.path.join(directory, name)
        save_image(denormalize(image), path)
        written.append(path)
    return written


def _batch_rows(params) -> int:
    """Images rendered before they are written: about 8k output pixels, so
    memory does not grow with the image count."""
    return max(1, 8192 // params.config.output_size**2)


def cmd_synth(args) -> int:
    if args.samples < 1:
        raise ValueError(f"need at least 1 sample, got {args.samples}")
    run = _run_config(args)
    params = load_model(run.get("paths.model"))
    selection = one_hot(params.config, args.texture)
    noise_rng = stream(args.seed, "noise")
    noise = np.stack([sample_noise(params.config, noise_rng) for _ in range(args.samples)])
    names = [f"tex{args.texture}_s{args.seed}_{k}.png" for k in range(args.samples)]
    # rows equal single-sample calls bit for bit
    rows = _batch_rows(params)
    directory, written = _output_dir(run), []
    for k in range(0, args.samples, rows):
        batch = generate(params, selection, noise[k : k + rows]).data
        written += _write_images(directory, names[k : k + rows], batch)
    print(f"wrote {len(written)} images: {', '.join(written)}")
    return 0


def cmd_interpolate(args) -> int:
    run = _run_config(args)
    params = load_model(run.get("paths.model"))
    a, b, steps = args.from_id, args.to_id, args.steps
    if steps < 2:
        raise ValueError(f"need at least 2 steps to span two textures, got {steps}")
    if a == b:
        raise ValueError(f"--from and --to both name texture {a}")
    m = params.config.textures
    for texture in (a, b):
        if not 1 <= texture <= m:
            raise ValueError(f"texture id {texture} out of range 1..{m}")
    # One shared noise draw: the first vector of the synth stream, so the
    # endpoint images are bit-identical to `synth --texture {a,b}` sample 0.
    noise = sample_noise(params.config, stream(args.seed, "noise"))
    rows = _batch_rows(params)
    directory, first = _output_dir(run), None
    for k in range(0, steps, rows):
        # image i weighs texture a by 1 - i/(steps-1) and b by the rest,
        # one selection row per image
        index = np.arange(k, min(k + rows, steps))
        weight = 1.0 - index / (steps - 1)
        weights = np.zeros((index.size, m))
        weights[:, a - 1], weights[:, b - 1] = weight, 1.0 - weight
        images = generate(params, SelectionUnit(weights), np.tile(noise, (index.size, 1))).data
        names = [f"interp{a}to{b}_s{args.seed}_{i}.png" for i in index]
        paths = _write_images(directory, names, images)
        first = first or paths[0]
    print(f"wrote {steps} images sweeping texture {a} to {b}: {first} ...")
    return 0


def _parse_mix(text: str) -> list:
    pairs = []
    for part in text.split(","):
        if ":" not in part:
            raise ValueError(f"bad mix entry {part!r}: expected style:weight")
        sid, weight = part.split(":", 1)
        pairs.append((int(sid), float(weight)))
    return pairs


def cmd_transfer(args) -> int:
    run = _run_config(args)
    params = load_transfer_model(run.get("paths.transfer_model"))
    content = load_image(args.content)
    if args.resize:
        content = resize_box(content, args.resize, args.resize)
    pairs = _parse_mix(args.mix) if args.mix else [(args.style, 1.0)]
    rng = stream(args.seed, "transfer-noise")
    image = interpolate_styles(params, normalize(content), pairs, rng)
    tag = "mix" if args.mix else str(args.style)
    path = os.path.join(_output_dir(run), f"styled{tag}_s{args.seed}.png")
    save_image(denormalize(image), path)
    print(f"wrote {path}")
    return 0


def cmd_oracle(args) -> int:
    run = _run_config(args)
    extractor = build_extractor(cfg.extractor_config(run))
    target_image = normalize(load_image(args.target))
    taps = run.get("train.texture_taps")
    target = precompute_targets(extractor, [target_image], taps)[0]
    if args.init:
        init = normalize(load_image(args.init)).data
    else:
        shape = target_image.shape
        init = stream(args.seed, "noise").uniform(-1.0, 1.0, shape).astype(np.float32)
    image, losses = pixel_optimize(
        extractor, target, init, steps=args.steps, lr=args.lr
    )
    directory = _output_dir(run)
    out = os.path.join(directory, args.out)
    save_image(denormalize(Tensor(image)), out)
    trace = os.path.join(directory, args.trace)
    lines = ["step,loss"] + [f"{i},{v!r}" for i, v in enumerate(losses)]
    atomic_write_bytes(trace, ("\n".join(lines) + "\n").encode())
    print(
        f"loss {losses[0]:.6g} -> {losses[-1]:.6g} "
        f"after {args.steps} steps; wrote {out} and {trace}"
    )
    return 0


def cmd_gradcheck(args) -> int:
    from .gradcheck import run_all

    results = run_all(trials=args.trials, seed=args.seed)
    failed = 0
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{r.name}: max rel err {r.max_rel_err:.3e} (tol {r.tolerance:g}) {status}")
        failed += not r.passed
    if failed:
        print(f"{failed} of {len(results)} gradient checks failed", file=sys.stderr)
        return 2
    print(f"all {len(results)} gradient checks passed")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    ``main`` call: parsing leaves it unchanged (``--set`` appends to a copy
    of its default list)."""
    parser = argparse.ArgumentParser(
        prog="texsyn",
        description="Multi-texture synthesis: train, sample, blend, stylize.",
        epilog="Config keys and defaults: python -m texsyn.cli defaults",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("train", help="fit a synthesis model to exemplar PNGs")
    _add_common(p)
    p.add_argument("--transfer", action="store_true", help="train the stylization network instead")
    p.add_argument(
        "--resize",
        type=int,
        nargs="?",
        const=0,
        default=None,
        metavar="SIZE",
        help="box-resize exemplars to SIZE (default: the generator's output size)",
    )
    p.add_argument("--log-every", type=int, default=0, help="print a loss line every N iterations")
    p.set_defaults(fn=cmd_train)

    p = commands.add_parser("synth", help="sample a trained model")
    _add_common(p)
    p.add_argument("--texture", type=int, required=True, help="texture id, 1-based")
    p.add_argument("--samples", type=int, default=1, help="number of noise samples")
    p.set_defaults(fn=cmd_synth)

    p = commands.add_parser("interpolate", help="sweep selection weight between two textures")
    _add_common(p)
    p.add_argument("--from", dest="from_id", type=int, required=True, help="start texture id")
    p.add_argument("--to", dest="to_id", type=int, required=True, help="end texture id")
    p.add_argument("--steps", type=int, default=8, help="number of images including endpoints")
    p.set_defaults(fn=cmd_interpolate)

    p = commands.add_parser("transfer", help="stylize a content image")
    _add_common(p)
    p.add_argument("--content", required=True, help="content PNG")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--style", type=int, help="style id, 1-based")
    group.add_argument("--mix", help="blend styles, e.g. 1:0.5,2:0.5")
    p.add_argument("--resize", type=int, metavar="SIZE", help="box-resize content to SIZE first")
    p.set_defaults(fn=cmd_transfer)

    p = commands.add_parser("oracle", help="optimize raw pixels against one exemplar")
    _add_common(p)
    p.add_argument("--target", required=True, help="exemplar PNG to match")
    p.add_argument("--init", help="starting image (default: seeded uniform noise)")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--out", default="oracle.png", help="output image name")
    p.add_argument("--trace", default="oracle_trace.csv", help="loss-trace CSV name")
    p.set_defaults(fn=cmd_oracle)

    p = commands.add_parser("gradcheck", help="finite-difference check of all gradients")
    _add_common(p)
    p.add_argument("--trials", type=int, default=10, help="random inputs per primitive")
    p.set_defaults(fn=cmd_gradcheck)

    p = commands.add_parser("defaults", help="print every config key with its default")
    p.set_defaults(fn=lambda args: print(cfg.document_defaults(), end="") or 0)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; that is a user error here
        return 0 if e.code in (0, None) else 1
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        # covers config, PNG, weight-format, and shape errors
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (TrainingError, NonFiniteError) as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - the CLI must never traceback
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
