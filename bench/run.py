#!/usr/bin/env python3
"""texsyn benchmark: one workload per process, timed from outside.

    python3 bench/run.py --workload train-desk --seed 1 --seconds 20 --trace 0

Run from the repository root.  texsyn is imported from ``src/`` (nothing
is installed) with BLAS pinned to one thread, which also makes training
arithmetic repeat exactly.  All files go to ``.bench_out/`` under the
root; the per-run working directory there is removed at exit.

The run makes its inputs from ``--seed``, sets up once (sample-cli: once
per model), then runs whole rounds of the workload until ``--seconds`` of
round time are used and every training seed of the workload has had a
round, checks each round, and prints one JSON line: ``correct``,
``attempted``, ``failed`` and ``metrics``.  More set-ups, spread
between the rounds, give ``setup_s`` (their median).  A round that fails
its checks counts all its operations as failed; the operations that
reproduce a known fault (transfer-train) fail in every round, count in
``failed``, and leave ``correct`` true.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds, reports the per-layer metrics of the traced
rounds (per operation) plus ``trace.overhead`` (traced over untraced
median operation time), and writes every span to
``.bench_out/trace-<workload>-s<seed>.json``.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported anywhere
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")


def load_texsyn():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from texsyn import cli, extractor, generator, images, rng, trainer, transfer

    return SimpleNamespace(
        cli=cli, extractor=extractor, generator=generator, images=images,
        rng=rng, trainer=trainer, transfer=transfer,
    )


def run(workload_cls, seed: int, seconds: float, trace: bool, workdir: str) -> dict:
    import refnet
    from tracing import Tracer

    w = workload_cls(seed, workdir, load_texsyn())
    w.make_inputs()
    tracer = Tracer() if trace else None

    for _ in range(w.STATE_SETUPS):
        if tracer:
            tracer.install()
        w.setup()
        if tracer:
            tracer.uninstall()
    if tracer:
        load_ms = 1e3 * tracer.span_times()[0]["images.load_image"] / w.STATE_SETUPS
        setup_spans = list(tracer.spans)
        tracer.reset()
        if hasattr(w, "extractor"):
            tracer.register_extractor(w.extractor)
    w.start()

    # The timed set-ups are spread over the run: the host's speed changes
    # over seconds, and set-ups made back to back all land in one phase.
    setup_times = []

    def timed_setup():
        t0 = time.perf_counter()
        w.setup()
        setup_times.append(time.perf_counter() - t0)

    elapsed, rounds, attempted, failed = 0.0, 0, 0, 0
    known = 0  # failed operations of the known-fault reproduction
    plain_ops, traced_ops = [], []
    while elapsed < seconds or rounds < max(w.TRAIN_SEEDS, 2 if trace else 1):
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            durations = w.run_round()
            problems = []
        except Exception as e:  # noqa: BLE001 - a raising round counts as failed
            durations, problems = [], [f"round raised {type(e).__name__}: {e}"]
        dt = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        if not problems:
            try:
                problems = w.check_round()
            except Exception as e:  # noqa: BLE001
                problems = [f"check raised {type(e).__name__}: {e}"]
        if len(durations) != w.ops_per_round:
            problems.append(f"{len(durations)} operations timed, {w.ops_per_round} planned")
        fault = [] if problems else w.check_fault()
        for p in problems + fault:
            print(f"{w.name} round {rounds}: {p}", file=sys.stderr)
        if not traced:
            elapsed += dt
        rounds += 1
        w.round = rounds
        attempted += w.ops_per_round
        if problems:
            failed += w.ops_per_round
        elif fault:
            failed += w.FAULT_OPS
            known += w.FAULT_OPS
        (traced_ops if traced else plain_ops).extend(durations)
        due = (len(setup_times) + 1) * seconds / (w.SETUP_REPEATS + 1)
        if not trace and len(setup_times) < w.SETUP_REPEATS and elapsed >= due:
            timed_setup()
    while not trace and len(setup_times) < w.SETUP_REPEATS:
        timed_setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    w.final_checks()
    for p in w.problems:
        print(f"{w.name}: {p}", file=sys.stderr)
    if w.problems:
        failed, known = attempted, 0
    # correct speaks of the operations that are not the known fault
    result = {"correct": failed == known, "attempted": attempted, "failed": failed}

    if not trace:
        texture_distance, sample_spread = w.quality(refnet.FeatureNet())
        ms = [1e3 * d for d in plain_ops]
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "op_p90_ms": {"value": statistics.quantiles(ms, n=10)[8], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "texture_distance": {"value": texture_distance, "unit": "1"},
            "sample_spread": {"value": sample_spread, "unit": "1"},
        }
        return result

    metrics = tracer.metrics(len(traced_ops))
    metrics["images.load_image_ms"] = (load_ms, "ms")
    overhead = statistics.median(traced_ops) / statistics.median(plain_ops)
    metrics["trace.overhead"] = (overhead, "ratio")
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    write_trace(w.name, seed, tracer, setup_spans, traced_ops, plain_ops, result["metrics"])
    return result


def write_trace(name, seed, tracer, setup_spans, traced_ops, plain_ops, metrics) -> None:
    def rows(spans):
        t0 = spans[0][1] if spans else 0.0
        return [[n, 1e3 * (s - t0), 1e3 * (e - s), p, layer] for n, s, e, p, layer in spans]

    doc = {
        "workload": name,
        "seed": seed,
        "span_fields": ["name", "start_ms", "duration_ms", "parent", "layer"],
        "traced_ops": len(traced_ops),
        "op_ms_traced": 1e3 * statistics.median(traced_ops),
        "op_ms_untraced": 1e3 * statistics.median(plain_ops),
        "counts": dict(tracer.counts),
        "metrics": metrics,
        "setup_spans": rows(setup_spans),
        "spans": rows(tracer.spans),
    }
    path = os.path.join(OUT_DIR, f"trace-{name}-s{seed}.json")
    with open(path, "w") as f:
        json.dump(doc, f)
    print(f"wrote {path}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "texsyn", "__init__.py")):
        print(f"error: no texsyn sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # still clean up
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
