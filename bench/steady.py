#!/usr/bin/env python3
"""Steadiness check: run each workload N times, one seed per run.

    python3 bench/steady.py --runs 10 [--workloads train-desk,sample-cli]

Runs ``bench/run.py`` once at a time (each run is its own process), with
seeds 1..N and the run length from BENCHMARK.json, and prints, per
workload and end-to-end metric, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median,
and the bound from BENCHMARK.json with a mark where the spread is not
below a third of it.  Also prints the failed share of
operations per workload.  Raw values go to ``.bench_out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    raw = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(1, args.runs + 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(proc.stderr, file=sys.stderr)
            result["seed"] = seed
            runs.append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed} ({wall:.0f} s): failed {result['failed']}/{result['attempted']} {values}",
                  flush=True)
        raw[workload] = runs

    print(f"\n{'workload':15} {'metric':17} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
    for workload, runs in raw.items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: failed share {sorted(shares)}")
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(metric, float("nan"))
            mark = "" if spread < bound / 3 else "  <- not below bound/3"
            print(f"{workload:15} {metric:17} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f} {bound:6.2f}{mark}")
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steady.json"), "w") as f:
        json.dump(raw, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
