"""Steadiness check: run each workload repeatedly and compare spreads to bounds.

Usage (from the repository root)::

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--first-seed 1] [--sets 2]

Each run uses the next seed.  For every end-to-end metric the command
prints the median, the quartiles (``statistics.quantiles(values, n=4)``),
the spread ``(q3 - q1) / median`` against the metric's bound from
``BENCHMARK.json``, and with ``--sets 2`` whether the second set's median
is worse than the first set's by more than the bound.  Exits 1 when a
check fails.
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


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    started = time.perf_counter()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed operations")
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    print(f"  {workload} seed {seed}: {elapsed:.1f} s wall {json.dumps(values)}", flush=True)
    return values


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    failed = False
    for workload in workloads:
        sets = []
        for index in range(args.sets):
            first = args.first_seed + index * args.runs
            print(f"{workload}: set {index + 1}, seeds {first}..{first + args.runs - 1}", flush=True)
            runs = [run_once(workload, seed, args.seconds, 0) for seed in range(first, first + args.runs)]
            sets.append({m["name"]: summarize([r[m["name"]] for r in runs]) for m in metrics})
        print(f"{workload}: {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}  verdict")
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            for index, summaries in enumerate(sets):
                summary = summaries[name]
                verdict = "ok"
                if summary["spread"] > bound:
                    verdict, failed = "TOO WIDE", True
                elif summary["spread"] > bound / 3:
                    verdict = "wider than bound/3"
                if index == 1:
                    drift = worse_by(metric, sets[0][name]["median"], summary["median"])
                    if drift > bound:
                        verdict, failed = f"{verdict}; median worse by {drift:.3f}", True
                    else:
                        verdict = f"{verdict}; median change {drift:+.3f}"
                print(
                    f"  set {index + 1} {name:18s} {summary['median']:12.5g} {summary['q1']:12.5g} "
                    f"{summary['q3']:12.5g} {summary['spread']:8.4f} {bound:6.3f}  {verdict}"
                )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
