"""The three workloads: what each sets up, runs per round, and checks.

A round is a fixed list of operations.  Rounds cycle through training
seeds 0 .. TRAIN_SEEDS-1 (round r trains with seed r % TRAIN_SEEDS), and
round r must reproduce round r - TRAIN_SEEDS bit for bit.  The workload
seed makes the input images; the training seeds are the same in every
run, because one training run's sample spread varies by about 22% from
seed to seed: the quality metrics take the median over the training
seeds, and runs compare like with like.  The harness in run.py times rounds until the
run length is used up (and at least one cycle of seeds is done), runs the
round checks after each round outside the timed phase, and counts every
operation of a round as failed when that round's checks fail.

- ``train-desk``: one ``trainer.train`` run per round; an operation is a
  training iteration, timed between consecutive schedule lookups (the
  first call of each iteration), so a checkpoint write counts toward the
  iteration that triggers it.
- ``sample-cli``: ``cli.main`` for ``synth`` on every texture and
  ``interpolate`` between neighbours; an operation is one invocation.
  Each set-up trains one model file with ``texsyn train``; round r
  samples model r % TRAIN_SEEDS.
- ``transfer-train``: one ``transfer.train_transfer`` run per round, then
  a two-iteration run on fixed inputs that reproduces a known fault; an
  operation is a training iteration of either, timed as in ``train-desk``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import time

import numpy as np

import inputs
import pngcodec
import refnet


def reference(pixels: np.ndarray, size: int) -> np.ndarray:
    """Block-mean downscale of uint8 [S,S,3] to [3,size,size] in [-1,1]."""
    s = pixels.shape[0] // size
    blocks = pixels.astype(np.float64).reshape(size, s, size, s, 3).mean(axis=(1, 3))
    return blocks.transpose(2, 0, 1) / 127.5 - 1.0


class Timestamps:
    """Wraps a function of a texsyn module to record when it is called."""

    def __init__(self, module, attr: str):
        original = getattr(module, attr)
        self.times = []

        def wrapper(*args, **kwargs):
            self.times.append(time.perf_counter())
            return original(*args, **kwargs)

        setattr(module, attr, wrapper)

    def durations(self, end: float) -> list:
        edges = self.times + [end]
        self.times = []
        return [b - a for a, b in zip(edges, edges[1:])]


def loss_rows_ok(rows: list, ids: range, what: str) -> list:
    """Finite rows, every id trained, and a descent of the round: summed
    over ids, the lowest texture (or style) loss in the second half of
    each id's rows is below that id's first row.

    A trainer that stalls can still pass this (the lowest of many noisy
    rows is likely below one of them); it shows in texture_distance.
    The sum, not each id alone: ids share one network and interleave, so
    an id whose first row comes after others were trained can start near
    its lowest loss.  Per id, the check failed for some workload seeds
    only (README, 'What "descends" means').
    """
    problems = []
    if not all(np.isfinite(v) for row in rows for v in row[2:]):
        problems.append(f"non-finite {what} loss row")
    first, lowest = 0.0, 0.0
    for k in ids:
        losses = [row[2] for row in rows if row[1] == k]
        if len(losses) < 4:
            problems.append(f"{what} {k} has {len(losses)} loss rows")
            continue
        first += losses[0]
        lowest += min(losses[len(losses) // 2 :])
    if not problems and not lowest < first:
        problems.append(f"{what} losses did not descend: lowest later {lowest:.4g}, first {first:.4g} (sums)")
    return problems


class Workload:
    name = ""
    ops_per_round = 0
    STATE_SETUPS = 1  # set-ups before the first round; their state is used
    SETUP_REPEATS = 5  # timed set-ups between rounds, for setup_s
    TRAIN_SEEDS = 4
    FAULT_OPS = 0  # operations per round that reproduce a known fault

    def __init__(self, seed: int, workdir: str, texsyn):
        self.seed = seed
        self.workdir = workdir
        self.ts = texsyn  # namespace of texsyn modules
        self.problems = []  # run-level: mark every operation failed
        self.round = 0  # index of the round being run or checked
        self.first = {}  # training-seed index -> that seed's first round output
        self.quality_images = []  # per round of the first seed cycle: per id, [images]

    @property
    def slot(self) -> int:
        return self.round % self.TRAIN_SEEDS

    def write_png(self, name: str, pixels: np.ndarray) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "wb") as f:
            f.write(pngcodec.encode(pixels))
        return path

    def check_decoded(self, buffers: list, sources: list) -> None:
        for n, (buf, src) in enumerate(zip(buffers, sources)):
            if not np.array_equal(buf.data, src):
                self.problems.append(f"load_image of input {n} differs from the encoded pixels")

    def check_repeat(self, output) -> list:
        """Compare with the earlier round of the same training seed."""
        if self.slot not in self.first:
            self.first[self.slot] = output
            return []
        if output != self.first[self.slot]:
            return [f"round differs from round {self.slot} (same training seed)"]
        return []

    def check_fault(self) -> list:
        """Checks of the round's known-fault reproduction; when they fail,
        only its FAULT_OPS operations count as failed."""
        return []

    def final_checks(self) -> None:
        """Once per run, after the timed phase; adds to ``self.problems``."""

    def quality(self, net: refnet.FeatureNet, references: list) -> tuple:
        """(texture_distance, sample_spread): per training seed the mean
        over ids and samples, then the median over the training seeds, so
        one unstable training run does not move the run's figure."""
        refs = [net.grams(r) for r in references]
        dists, spreads = [], []
        for per_id in self.quality_images:
            dists.append(np.mean([net.distance(x, refs[k]) for k, xs in enumerate(per_id) for x in xs]))
            spreads.append(np.mean([refnet.sample_spread(xs) for xs in per_id]))
        return float(np.median(dists)), float(np.median(spreads))


class TrainDesk(Workload):
    name = "train-desk"
    M, K, ITERATIONS, BATCH, CHECKPOINT_EVERY, SIZE = 3, 8, 48, 4, 12, 32
    TRAIN_SEEDS = 6
    ops_per_round = ITERATIONS
    SAMPLES = 4  # per texture, for the sample checks and quality metrics

    def make_inputs(self) -> None:
        self.sources = [inputs.exemplar_image(k, self.seed) for k in range(1, self.M + 1)]
        self.paths = [self.write_png(f"exemplar{k}.png", p) for k, p in enumerate(self.sources, 1)]
        self.ckpt_dir = os.path.join(self.workdir, "checkpoints")
        os.makedirs(self.ckpt_dir)

    def setup(self) -> None:
        im = self.ts.images
        self.buffers = [im.load_image(p) for p in self.paths]
        self.exemplars = [im.normalize(im.resize_box(b, self.SIZE, self.SIZE)) for b in self.buffers]
        self.extractor = self.ts.extractor.build_extractor(self.ts.extractor.ExtractorConfig(seed=0))

    def start(self) -> None:
        self.check_decoded(self.buffers, self.sources)
        self.boundaries = Timestamps(self.ts.trainer, "schedule_texture")
        save = self.ts.trainer.save_model

        def snapshot_save(params, path):
            self.saved.append((path, {n: t.data.copy() for n, t in params.tensors.items()}))
            return save(params, path)

        self.ts.trainer.save_model = snapshot_save

    def run_round(self) -> list:
        cfg = self.ts.trainer.TrainConfig(
            seed=self.slot,
            K=self.K,
            iterations=self.ITERATIONS,
            batch_size=self.BATCH,
            checkpoint_every=self.CHECKPOINT_EVERY,
            checkpoint_dir=self.ckpt_dir,
        )
        self.saved = []
        self.boundaries.times = []  # a round that raised leaves its stamps behind
        self.params, self.log = self.ts.trainer.train(self.exemplars, cfg, extractor=self.extractor)
        return self.boundaries.durations(time.perf_counter())

    def check_round(self) -> list:
        gen = self.ts.generator
        rows = self.log.rows
        if len(rows) != self.ITERATIONS:
            return [f"{len(rows)} loss rows for {self.ITERATIONS} iterations"]
        problems = []
        for it, row in enumerate(rows):
            if it < self.M * self.K:
                phase = it // self.K + 1
                expected = (it - (phase - 1) * self.K) % phase + 1
                if row[1] != expected:
                    problems.append(f"iteration {it} trained texture {row[1]}, curriculum says {expected}")
            elif not 1 <= row[1] <= self.M:
                problems.append(f"iteration {it} trained texture {row[1]}")
        problems += loss_rows_ok(rows, range(1, self.M + 1), "texture")
        problems += self.check_repeat(list(rows))
        if len(self.saved) != self.ITERATIONS // self.CHECKPOINT_EVERY:
            problems.append(f"{len(self.saved)} checkpoints written")
        for path, tensors in self.saved:
            loaded = gen.load_model(path).tensors
            if set(loaded) != set(tensors) or any(
                not np.array_equal(loaded[n].data, tensors[n]) for n in tensors
            ):
                problems.append(f"checkpoint {os.path.basename(path)} does not reload bit-identically")
        final = {n: t.data for n, t in self.params.tensors.items()}
        if self.saved and any(not np.array_equal(final[n], self.saved[-1][1][n]) for n in final):
            problems.append("last checkpoint differs from the returned parameters")
        rng = self.ts.rng.stream(self.slot, "bench-samples")
        samples = []
        for k in range(1, self.M + 1):
            selection = gen.one_hot(self.params.config, k)
            imgs = [
                gen.generate(self.params, selection, gen.sample_noise(self.params.config, rng)).data
                for _ in range(self.SAMPLES)
            ]
            if any(np.abs(x).max() > 1.0 for x in imgs):
                problems.append(f"texture {k} sample outside [-1,1]")
            if any(np.array_equal(a, b) for i, a in enumerate(imgs) for b in imgs[i + 1 :]):
                problems.append(f"texture {k}: different noise gave identical images")
            samples.append([x.astype(np.float64) for x in imgs])
        if self.round < self.TRAIN_SEEDS:
            self.quality_images.append(samples)
        return problems

    def quality(self, net: refnet.FeatureNet) -> tuple:
        return super().quality(net, [reference(src, self.SIZE) for src in self.sources])


class SampleCli(Workload):
    name = "sample-cli"
    M, SAMPLES, STEPS, SIZE = 3, 8, 8, 32
    CALLS = [("synth", k) for k in (1, 2, 3)] + [("interpolate", (1, 2)), ("interpolate", (2, 3))]
    ops_per_round = len(CALLS)
    TRAIN_SEEDS = 5
    STATE_SETUPS = TRAIN_SEEDS  # one model file each; later set-ups' go unused

    def make_inputs(self) -> None:
        self.sources = [inputs.exemplar_image(k, self.seed) for k in range(1, self.M + 1)]
        self.paths = [self.write_png(f"exemplar{k}.png", p) for k, p in enumerate(self.sources, 1)]
        self.models, self.setup_codes = [], []
        self.files = {}  # training-seed index -> {file name: PNG bytes}

    def cli(self, argv: list) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.ts.cli.main(argv)

    def setup(self) -> None:
        """`texsyn train` on the exemplars, resized to the generator size."""
        n = len(self.models)
        out = os.path.join(self.workdir, f"setup{n}")
        os.makedirs(out)
        model = os.path.join(out, "synthesis.model")
        argv = ["train", "--seed", str(n), "--resize"]
        for kv in (
            "paths.exemplars=" + ",".join(self.paths),
            "train.K=3",
            "train.iterations=9",
            f"paths.model={model}",
            f"paths.log={os.path.join(out, 'loss_log.csv')}",
        ):
            argv += ["--set", kv]
        self.setup_codes.append(self.cli(argv))
        self.models.append(model)

    def start(self) -> None:
        if any(self.setup_codes) or len(self.models) != self.STATE_SETUPS:
            self.problems.append(f"texsyn train exit codes {self.setup_codes}")

    def _argv(self, call, out: str) -> tuple:
        kind, arg = call
        s = self.slot  # the same noise draws in every run
        argv = [kind, "--seed", str(s), "--set", f"paths.model={self.models[self.slot]}",
                "--set", f"paths.output_dir={out}"]
        if kind == "synth":
            argv += ["--texture", str(arg), "--samples", str(self.SAMPLES)]
            names = [f"tex{arg}_s{s}_{j}.png" for j in range(self.SAMPLES)]
        else:
            a, b = arg
            argv += ["--from", str(a), "--to", str(b), "--steps", str(self.STEPS)]
            names = [f"interp{a}to{b}_s{s}_{i}.png" for i in range(self.STEPS)]
        return argv, names

    def run_round(self) -> list:
        self.outs, self.codes, durations = [], [], []
        for n, call in enumerate(self.CALLS):
            out = os.path.join(self.workdir, f"round{self.round}", f"call{n}")
            argv, _ = self._argv(call, out)
            t0 = time.perf_counter()
            self.codes.append(self.cli(argv))
            durations.append(time.perf_counter() - t0)
            self.outs.append(out)
        return durations

    def check_round(self) -> list:
        problems, files = [], {}
        for call, out, code in zip(self.CALLS, self.outs, self.codes):
            _, names = self._argv(call, out)
            if code != 0:
                problems.append(f"{call} exited {code}")
                continue
            listed = sorted(os.listdir(out))
            if listed != sorted(names):
                problems.append(f"{call} wrote {listed}, expected {sorted(names)}")
                continue
            for name in names:
                with open(os.path.join(out, name), "rb") as f:
                    files[name] = f.read()
        shutil.rmtree(os.path.join(self.workdir, f"round{self.round}"))
        if problems:
            return problems
        s = self.slot
        for a, b in ((1, 2), (2, 3)):
            first, last = files[f"interp{a}to{b}_s{s}_0.png"], files[f"interp{a}to{b}_s{s}_{self.STEPS - 1}.png"]
            if first != files[f"tex{a}_s{s}_0.png"] or last != files[f"tex{b}_s{s}_0.png"]:
                problems.append(f"interpolate {a}->{b} endpoints differ from synth sample 0")
        problems += self.check_repeat({n: hashlib.sha256(b).digest() for n, b in files.items()})
        if self.round < self.TRAIN_SEEDS:
            self.files[self.slot] = files
            self.quality_images.append(
                [
                    [refnet.to_float(pngcodec.decode(files[f"tex{k}_s{s}_{j}.png"])) for j in range(self.SAMPLES)]
                    for k in range(1, self.M + 1)
                ]
            )
        return problems

    def final_checks(self) -> None:
        """Every set-up's `texsyn train` exited 0, and every image of the
        first seed cycle matches the benchmark's own forward pass of the
        model file it came from."""
        if any(self.setup_codes):
            self.problems.append(f"texsyn train exit codes {self.setup_codes}")
        for s, files in self.files.items():
            t = refnet.read_txw1(self.models[s])
            noise_dim = int(t["synthesis.config"][2])
            for name, blob in files.items():
                index = int(name.rsplit("_", 1)[1][:-4])
                weights = np.zeros(self.M)
                if name.startswith("tex"):
                    weights[int(name[3 : name.index("_")]) - 1] = 1.0
                    noise = refnet.noise_vector(s, noise_dim, index)
                else:
                    w = 1.0 - index / (self.STEPS - 1)
                    weights[int(name[6]) - 1], weights[int(name[9]) - 1] = w, 1.0 - w
                    noise = refnet.noise_vector(s, noise_dim, 0)
                expected = refnet.to_pixels(refnet.generator_forward(t, weights, noise))
                diff = np.abs(pngcodec.decode(blob).astype(int) - expected.astype(int)).max()
                if diff > 1:
                    self.problems.append(f"model {s} {name} is {diff} levels from the reference forward pass")

    def quality(self, net: refnet.FeatureNet) -> tuple:
        return super().quality(net, [reference(src, self.SIZE) for src in self.sources])


class TransferTrain(Workload):
    """Each round also reproduces a known fault on fixed inputs: at the
    default lr, the first Adam step from training seed 1 multiplies the
    style loss (85 -> 1930 on the images of workload seed 3).  Those
    FAULT_OPS iterations fail in every round, whatever the workload seed;
    the other training seeds' first steps stay within 1.42x."""

    name = "transfer-train"
    STYLES, K, ITERATIONS, BATCH, SIZE = (2, 1), 8, 80, 4, 64
    TRAIN_SEEDS = 3
    SETUP_REPEATS = 9  # three round ends to spread them over, so more of them
    FAULT_INPUT_SEED, FAULT_TRAIN_SEED, FAULT_OPS, FAULT_GROWTH = 3, 1, 2, 2.0
    ops_per_round = ITERATIONS + FAULT_OPS
    SAMPLES = 4

    def sources_for(self, seed: int) -> list:
        """Style and content pixels.  The second content is the first one
        mirrored: the same image statistics, so a row's style loss does
        not swing with the content drawn."""
        photo = inputs.photo_image(seed)
        styles = [inputs.exemplar_image(k, seed) for k in self.STYLES]
        return styles + [photo, np.ascontiguousarray(photo[:, ::-1])]

    def make_inputs(self) -> None:
        self.sources = self.sources_for(self.seed)
        self.paths = [self.write_png(f"input{n}.png", p) for n, p in enumerate(self.sources)]
        im, n = self.ts.images, len(self.STYLES)
        fault = [im.normalize(im.resize_box(im.ImageBuffer(p), self.SIZE, self.SIZE))
                 for p in self.sources_for(self.FAULT_INPUT_SEED)]
        self.fault_styles, self.fault_contents = fault[:n], fault[n:]

    def setup(self) -> None:
        im = self.ts.images
        self.buffers = [im.load_image(p) for p in self.paths]
        small = [im.normalize(im.resize_box(b, self.SIZE, self.SIZE)) for b in self.buffers]
        n = len(self.STYLES)
        self.styles, self.contents = small[:n], small[n:]
        self.content_sizes = [
            im.normalize(im.resize_box(self.buffers[n], s, s)) for s in (64, 128, 256)
        ]
        self.extractor = self.ts.extractor.build_extractor(self.ts.extractor.ExtractorConfig(seed=0))

    def start(self) -> None:
        self.check_decoded(self.buffers, self.sources)
        self.boundaries = Timestamps(self.ts.transfer, "schedule_texture")

    def run_round(self) -> list:
        cfg = self.ts.transfer.TransferConfig(
            seed=self.slot, K=self.K, iterations=self.ITERATIONS, batch_size=self.BATCH
        )
        self.boundaries.times = []
        self.params, self.log = self.ts.transfer.train_transfer(
            self.styles, self.contents, cfg, extractor=self.extractor
        )
        durations = self.boundaries.durations(time.perf_counter())
        cfg = self.ts.transfer.TransferConfig(
            seed=self.FAULT_TRAIN_SEED, K=self.K, iterations=self.FAULT_OPS, batch_size=self.BATCH
        )
        _, self.fault_log = self.ts.transfer.train_transfer(
            self.fault_styles, self.fault_contents, cfg, extractor=self.extractor
        )
        return durations + self.boundaries.durations(time.perf_counter())

    def _one_hot(self, k: int):
        return self.ts.generator.SelectionUnit(np.eye(len(self.STYLES))[k - 1])

    def check_round(self) -> list:
        tf, stream = self.ts.transfer, self.ts.rng.stream
        rows = self.log.rows
        if len(rows) != self.ITERATIONS:
            return [f"{len(rows)} loss rows for {self.ITERATIONS} iterations"]
        problems = loss_rows_ok(rows, range(1, len(self.STYLES) + 1), "style")
        problems += self.check_repeat(list(rows))
        content = self.contents[0]
        for k in range(1, len(self.STYLES) + 1):
            mixed = tf.interpolate_styles(self.params, content, [(k, 1.0)], stream(self.seed, "bench-mix"))
            plain = tf.transfer(self.params, content, self._one_hot(k), stream(self.seed, "bench-mix"))
            if not np.array_equal(mixed.data, plain.data):
                problems.append(f"mix {k}:1.0 differs from one-hot style {k}")
        if self.round < self.TRAIN_SEEDS:
            rng = stream(self.slot, "bench-samples")
            self.quality_images.append(
                [
                    [tf.transfer(self.params, content, self._one_hot(k), rng).data.astype(np.float64)
                     for _ in range(self.SAMPLES)]
                    for k in range(1, len(self.STYLES) + 1)
                ]
            )
        return problems

    def check_fault(self) -> list:
        """No step may multiply the style loss by more than FAULT_GROWTH."""
        losses = [row[2] for row in self.fault_log.rows]
        growth = max(b / a for a, b in zip(losses, losses[1:]))
        if np.isfinite(growth) and growth <= self.FAULT_GROWTH:
            return []
        return [f"fixed-input run (images of seed {self.FAULT_INPUT_SEED}, training seed "
                f"{self.FAULT_TRAIN_SEED}): a step multiplied the style loss by {growth:.1f}: {losses}"]

    def final_checks(self) -> None:
        rng = self.ts.rng.stream(self.seed, "bench-sizes")
        for content in self.content_sizes:
            out = self.ts.transfer.transfer(self.params, content, self._one_hot(1), rng)
            if out.shape != content.shape or np.abs(out.data).max() > 1.0:
                self.problems.append(f"content {content.shape} gave output {out.shape}")

    def quality(self, net: refnet.FeatureNet) -> tuple:
        styles = self.sources[: len(self.STYLES)]
        return super().quality(net, [reference(src, self.SIZE) for src in styles])


WORKLOADS = {w.name: w for w in (TrainDesk, SampleCli, TransferTrain)}
