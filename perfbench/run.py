"""The repository's benchmark: served prediction and sharded training.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``fleet_file_mix``, ``train_js_vars``.
With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` the run is repeated with
layer tracing and the line carries the per-layer metrics and the
tracing overhead instead.  Every served answer and every packed artifact
is checked against the same computation done in this process; a
mismatch makes ``correct`` false and the exit code 1.  README.md in this
directory documents the workloads and every metric.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

FLEET = "fleet_file_mix"
TRAIN = "train_js_vars"

#: Connections (and the generator's only thread) stay within nproc = 2.
CONNECTIONS = 2
#: Servers are spawned this many times per run; setup_s is the median.
SETUP_SPAWNS = 7
#: Open-loop arrival rate of fleet_file_mix (requests per second): about
#: an eighth of the closed-loop capacity of the same mix.  The fleet runs
#: on one interpreter lock, so a request that arrives while another is
#: being served waits for it; at a quarter of capacity a slow spell of the
#: host pushed over half the hits into that wait.  See README.md.
FLEET_RATE = 12.0
#: The first requests of the fleet's stream are sent, one at a time, before
#: the measured window, so the window starts with a warm cache and programs
#: already popular instead of a burst of first requests to empty cells.
FLEET_WARM_REQUESTS = 60
#: within_limit_share counts answers within this latency, per workload:
#: about 1.5 times the measured latency_tail_ms median, so that a slower
#: miss path pushes answers past it.
LIMIT_MS = {FLEET: 75.0, TRAIN: 100.0}
#: While the load runs, each processor also runs this busy loop at idle
#: priority (SCHED_IDLE), which yields to any other runnable thread at
#: once.  It keeps the virtual CPUs from halting between requests: waking
#: a halted one waits on the hypervisor, and on a shared host that wait
#: swung latency_p50_ms by a quarter between runs.  See README.md.
SPINNER = "import os\nos.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\nwhile True:\n    pass\n"
#: An open-loop run whose dispatcher ran later than this (tail) is invalid.
LAG_BOUND_MS = 25.0
#: train_js_vars repeats whole training cycles; at least this many.
MIN_CYCLES = 3

E2E_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "within_limit_share": "share",
    "train_s": "s",
    "heldout_accuracy": "share",
    "peak_rss_mb": "MB",
}


class InvalidMeasurement(RuntimeError):
    """The load generator could not keep its schedule; nothing is reported."""


#: latency_tail_ms is the highest percentile with at least this share of
#: the samples, and never fewer than TAIL_MIN_BEYOND, beyond it.
TAIL_BEYOND_SHARE = 0.05
TAIL_MIN_BEYOND = 10


def tail(values: List[float]) -> tuple:
    """(value, percentile, samples): the highest percentile with at least
    max(TAIL_MIN_BEYOND, TAIL_BEYOND_SHARE of the samples) beyond it (the
    maximum when there are too few samples)."""
    ordered = sorted(values)
    n = len(ordered)
    beyond = max(TAIL_MIN_BEYOND, math.ceil(n * TAIL_BEYOND_SHARE))
    if n <= beyond:
        return ordered[-1], 100.0, n
    index = n - beyond - 1
    return ordered[index], 100.0 * (index + 1) / n, n


@dataclass
class Outcome:
    """What one phase measured and checked."""

    e2e: Dict[str, float]
    attempted: int
    failed: int
    mismatches: int
    report: dict = field(default_factory=dict)
    window: Optional[dict] = None
    units: int = 0
    client_service_ms: float = 0.0
    server_stats: Optional[dict] = None
    lag_tail_ms: float = 0.0


class Context:
    def __init__(self, args, children, workdir: str) -> None:
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.children = children
        self.workdir = workdir
        self.python = sys.executable

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


# ----------------------------------------------------------------------
# Training (a child process per cycle)
# ----------------------------------------------------------------------


def train_in_child(ctx: Context, cells: List[dict], tag: str, traced: bool = False) -> dict:
    from workloads import SHARD_SIZE

    workdir = ctx.path(tag)
    os.makedirs(workdir, exist_ok=True)
    job_path = os.path.join(workdir, "job.json")
    result_path = os.path.join(workdir, "result.json")
    trace_path = os.path.join(workdir, "trace.json")
    with open(job_path, "w", encoding="utf-8") as handle:
        json.dump(
            {"workdir": workdir, "shard_size": SHARD_SIZE, "cells": cells},
            handle,
        )
    argv = [ctx.python, os.path.join(HERE, "trainer.py"), job_path, result_path]
    if traced:
        argv.append(trace_path)
    ctx.children.run(
        argv, os.path.join(workdir, "stdout"), os.path.join(workdir, "stderr"), timeout=170
    )
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    if traced:
        with open(trace_path, encoding="utf-8") as handle:
            result["trace"] = json.load(handle)
    return result


def _accuracy(cells: List[dict]) -> float:
    right = sum(cell["right"] for cell in cells)
    total = sum(cell["total"] for cell in cells)
    return right / total if total else 0.0


def train_served(ctx: Context, names: List[str]) -> dict:
    """Train, pack and evaluate the served models once, in one child."""
    from workloads import served_training_jobs

    cells = train_in_child(ctx, served_training_jobs(names), "models")["cells"]
    return {
        "cells": cells,
        "train_s": sum(cell["train_s"] for cell in cells),
        "heldout_accuracy": _accuracy(cells),
        "checked": sum(cell["heldout_files"] for cell in cells),
        "failures": sum(cell["mismatches"] for cell in cells),
    }


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------


class Oracle:
    """The answers the servers must give, computed in this process on the
    same artifacts through ``ScoringHandle`` (and ``Translator``)."""

    def __init__(self, artifacts: Dict[str, str]) -> None:
        from repro.api import Pipeline

        self.handles = {
            cell: Pipeline.load(path).scoring_handle() for cell, path in artifacts.items()
        }
        self._answers: Dict[tuple, dict] = {}

    def expected(self, request) -> dict:
        key = (request.cell, request.source, request.top)
        answer = self._answers.get(key)
        if answer is None:
            answer = self._answers[key] = self._compute(request)
        return answer

    def _compute(self, request) -> dict:
        from workloads import CELLS

        handle = self.handles[request.cell]
        cell = CELLS[request.cell]
        if cell.target_language is not None:
            from repro.translate import Translator

            payload = Translator(handle).translate(
                request.source, cell.target_language, language=cell.language
            )
            answer = dict(payload, cell=handle.cell)
        elif request.top:
            suggestions = handle.suggest(request.source, k=request.top)
            answer = {
                "cell": handle.cell,
                "suggestions": {
                    key: [[label, score] for label, score in ranked]
                    for key, ranked in suggestions.items()
                },
            }
        else:
            answer = {"cell": handle.cell, "predictions": handle.predict(request.source)}
        # The wire format is JSON: compare what survives the round trip.
        return json.loads(json.dumps(answer))

    def check(self, request, payload: dict) -> bool:
        expected = self.expected(request)
        return {key: payload.get(key) for key in expected} == expected


@dataclass
class Phase:
    setups: List[float]
    samples: list
    started: float
    lags: List[float]
    stats: dict
    window: Optional[dict]
    peak_rss_mb: float


def _server_counters(payload: dict, fleet: bool) -> dict:
    if fleet:
        router = payload["router"]
        merged = payload["merged"]
        return {
            "hits": merged["cache"]["hits"],
            "misses": merged["cache"]["misses"],
            "coalesced": merged["coalesced"],
            # Every replica, so one that was never routed to counts as 0.
            "routed": {
                replica["name"]: router["routed"].get(replica["name"], 0)
                for replica in payload["replicas"]
            },
            "failovers": router["failovers"],
            "rejected": router["rejected"],
        }
    return {
        "hits": payload["cache"]["hits"],
        "misses": payload["cache"]["misses"],
        "coalesced": payload["coalesced"],
    }


def _counter_delta(after: dict, before: dict) -> dict:
    delta = {}
    for key, value in after.items():
        if isinstance(value, dict):
            delta[key] = {k: v - before[key].get(k, 0) for k, v in value.items()}
        else:
            delta[key] = value - before[key]
    return delta


def _trace_snapshot(proc, prefix: str, sequence: int) -> dict:
    path = f"{prefix}.{sequence}.json"
    os.kill(proc.pid, signal.SIGUSR1)
    deadline = time.perf_counter() + 30.0
    while not os.path.exists(path):
        if proc.poll() is not None or time.perf_counter() > deadline:
            raise RuntimeError(f"traced server wrote no snapshot {path}")
        time.sleep(0.005)
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


async def _warm(url: str, bodies: List[bytes]) -> None:
    from loadgen import Connection

    connection = Connection(url)
    try:
        for body in bodies:
            status, payload = await connection.call("POST", "/predict", body)
            if status != 200:
                raise RuntimeError(f"warm-up request answered {status}: {payload}")
    finally:
        await connection.close()


def serve_phase(
    ctx: Context,
    pigeon_args: List[str],
    healthy: Callable[[dict], bool],
    warm_bodies: List[bytes],
    drive: Callable[[str], tuple],
    fleet: bool,
    traced: bool,
) -> Phase:
    from children import http_get, peak_rss_mb, spawn_server
    from spans import diff

    tag = "traced" if traced else "plain"
    prefix = ctx.path(f"{tag}-trace")
    spawns = 1 if traced else SETUP_SPAWNS
    # The server gets the last processor and the load generator the rest,
    # so the server's thread hand-offs (router, replicas, executors) stay
    # on one CPU instead of waking threads across virtual CPUs.
    cpus = sorted(os.sched_getaffinity(0))
    server_cpus = {cpus[-1]} if len(cpus) > 1 else None
    client_cpus = set(cpus[:-1]) if len(cpus) > 1 else set(cpus)
    setups: List[float] = []
    server = None
    for attempt in range(spawns):
        if server is not None:
            ctx.children.stop(server.proc)
        if traced:
            argv = [ctx.python, os.path.join(HERE, "traced.py"), prefix, "--"]
        else:
            argv = [ctx.python, "-m", "repro.cli"]
        server = spawn_server(
            ctx.children,
            argv + pigeon_args,
            ctx.path(f"{tag}-server-{attempt}"),
            healthy,
            server_cpus,
        )
        setups.append(server.setup_s)
    stats_path = "/fleet/stats" if fleet else "/stats"
    try:
        asyncio.run(_warm(server.url, warm_bodies))
        before = _server_counters(http_get(server.url, stats_path)[1], fleet)
        snap_before = _trace_snapshot(server.proc, prefix, 1) if traced else None
        spinners = [
            ctx.children.start(
                [ctx.python, "-c", SPINNER],
                ctx.path(f"{tag}-spin-{cpu}.out"),
                ctx.path(f"{tag}-spin-{cpu}.err"),
                {cpu},
            )
            for cpu in cpus
        ]
        os.sched_setaffinity(0, client_cpus)
        try:
            samples, started, lags = drive(server.url)
        finally:
            os.sched_setaffinity(0, set(cpus))
            for proc in spinners:
                ctx.children.stop(proc)
        window = diff(_trace_snapshot(server.proc, prefix, 2), snap_before) if traced else None
        after = _server_counters(http_get(server.url, stats_path)[1], fleet)
        rss = peak_rss_mb(server.proc.pid)
    finally:
        ctx.children.stop(server.proc)
    return Phase(setups, samples, started, lags, _counter_delta(after, before), window, rss)


def serving_outcome(
    workload: str,
    phase: Phase,
    requests: list,
    oracle: Oracle,
    training: dict,
) -> Outcome:
    samples = phase.samples
    if not samples:
        raise RuntimeError("no request was sent")
    ok = [s for s in samples if s.ok]
    limit = LIMIT_MS[workload]
    latencies = [(s.done - s.due) * 1000.0 for s in ok]
    mismatches = sum(1 for s in ok if not oracle.check(requests[s.index], s.payload))
    failed = len(samples) - len(ok) + mismatches
    end = max(s.done for s in samples)
    tail_ms, tail_pct, tail_n = tail(latencies) if latencies else (0.0, 0.0, 0)
    lag_ms = [lag * 1000.0 for lag in phase.lags]
    lag_tail = tail(lag_ms)[0] if lag_ms else 0.0
    e2e = {
        "setup_s": statistics.median(phase.setups),
        "throughput_rps": len(ok) / (end - phase.started),
        "latency_p50_ms": statistics.median(latencies) if latencies else 0.0,
        "latency_tail_ms": tail_ms,
        "within_limit_share": sum(1 for ms in latencies if ms <= limit) / len(samples),
        "train_s": training["train_s"],
        "heldout_accuracy": training["heldout_accuracy"],
        "peak_rss_mb": phase.peak_rss_mb,
    }
    lookups = phase.stats["hits"] + phase.stats["misses"]
    report = {
        "latency_tail": {"percentile": round(tail_pct, 2), "samples": tail_n},
        "latency_limit_ms": limit,
        "attempted": len(samples),
        "failed_share": failed / len(samples),
        "setup_spawns": phase.setups,
        "cache_hit_rate": phase.stats["hits"] / lookups if lookups else 0.0,
        "coalesced": phase.stats["coalesced"],
        "generator_lag_tail_ms": lag_tail,
        "served_models": [
            {k: cell[k] for k in ("name", "train_files", "heldout_files", "epochs", "artifact_bytes")}
            for cell in training["cells"]
        ],
    }
    service = [(s.done - s.sent) * 1000.0 for s in ok]
    return Outcome(
        e2e=e2e,
        attempted=len(samples),
        failed=failed,
        mismatches=mismatches,
        report=report,
        window=phase.window,
        units=len(ok),
        client_service_ms=statistics.fmean(service) if service else 0.0,
        server_stats=phase.stats,
        lag_tail_ms=lag_tail,
    )


def run_fleet_file_mix(ctx: Context, traced: bool, shared: dict) -> Outcome:
    import loadgen
    from workloads import FLEET_CELLS, fleet_requests, poisson_schedule

    if "training" not in shared:
        shared["training"] = train_served(ctx, FLEET_CELLS)
        shared["offsets"] = poisson_schedule(ctx.seed, FLEET_RATE, ctx.seconds)
        stream = fleet_requests(ctx.seed, FLEET_WARM_REQUESTS + len(shared["offsets"]))
        shared["warm"] = stream[:FLEET_WARM_REQUESTS]
        shared["requests"] = stream[FLEET_WARM_REQUESTS:]
    training = shared["training"]
    artifacts = {cell["name"]: cell["artifact"] for cell in training["cells"]}
    requests = shared["requests"]
    offsets = shared["offsets"]
    bodies = [json.dumps(r.body()).encode() for r in requests]
    warm = [json.dumps(r.body()).encode() for r in shared["warm"]]
    args = ["fleet", "serve", "--replicas", "2", "--in-process", "--port", "0"]
    for name in FLEET_CELLS:
        args += ["--model", artifacts[name]]

    def drive(url):
        return asyncio.run(loadgen.open_loop(url, bodies, offsets, CONNECTIONS))

    phase = serve_phase(
        ctx,
        args,
        lambda health: health.get("healthy") == 2,
        warm,
        drive,
        fleet=True,
        traced=traced,
    )
    if "oracle" not in shared:
        shared["oracle"] = Oracle(artifacts)
    outcome = serving_outcome(FLEET, phase, requests, shared["oracle"], training)
    if outcome.lag_tail_ms > LAG_BOUND_MS:
        raise InvalidMeasurement(
            f"open-loop dispatcher lag tail {outcome.lag_tail_ms:.1f} ms exceeds "
            f"{LAG_BOUND_MS} ms: the offered load was not the scheduled one"
        )
    sent = [requests[s.index] for s in phase.samples]
    distinct = len({(r.cell, r.source, r.top) for r in sent})
    seen = set(shared["warm"])
    repeats = 0
    for request in sent:
        repeats += request in seen
        seen.add(request)
    groups: Dict[str, List[float]] = {}
    for sample in phase.samples:
        if sample.ok:
            kind = "hit" if sample.payload.get("cached") else "miss"
            groups.setdefault(f"{requests[sample.index].cell}.{kind}", []).append(
                (sample.done - sample.due) * 1000.0
            )
    tail_ms = outcome.e2e["latency_tail_ms"]
    outcome.report.update(
        {
            "offered_rate_rps": FLEET_RATE,
            "requests_sent": len(sent),
            "distinct_programs": distinct,
            "warm_requests": FLEET_WARM_REQUESTS,
            # Requests whose program was sent before, warm-up included.
            "repeat_share": repeats / len(sent),
            "translate_share": sum(1 for r in sent if r.cell == "java_translate") / len(sent),
            "top_share": sum(1 for r in sent if r.top) / len(sent),
            "cell_shares": {
                name: sum(1 for r in sent if r.cell == name) / len(sent) for name in FLEET_CELLS
            },
            # Per cell and cache outcome: count, median latency and how
            # many of the group lie beyond latency_tail_ms.
            "latency_groups": {
                name: {
                    "n": len(values),
                    "p50_ms": statistics.median(values),
                    "beyond_tail": sum(1 for ms in values if ms > tail_ms),
                }
                for name, values in sorted(groups.items())
            },
        }
    )
    if not traced:
        outcome.attempted += training["checked"]
        outcome.failed += training["failures"]
        outcome.mismatches += training["failures"]
    return outcome


# ----------------------------------------------------------------------
# Training workload
# ----------------------------------------------------------------------


def run_train_js_vars(ctx: Context, traced: bool, shared: dict) -> Outcome:
    from workloads import SHARD_SIZE, train_job

    job = shared.setdefault("job", train_job())
    results = []
    started = time.perf_counter()
    while True:
        tag = f"{'traced' if traced else 'plain'}-cycle-{len(results)}"
        results.append(train_in_child(ctx, [job], tag, traced=traced))
        shutil.rmtree(ctx.path(tag), ignore_errors=True)
        # A traced run traces one cycle; an untraced one keeps cycling
        # until MIN_CYCLES ran and the measured seconds are used up.
        if traced or (
            len(results) >= MIN_CYCLES and time.perf_counter() - started >= ctx.seconds
        ):
            break
    cells = [result["cells"][0] for result in results]
    latencies = [ms for cell in cells for ms in cell["latencies_ms"]]
    accuracies = [_accuracy([cell]) for cell in cells]
    mismatches = sum(cell["mismatches"] for cell in cells)
    # The accuracy is deterministic: every cycle must reproduce it exactly.
    repeat_failures = sum(1 for value in accuracies if value != accuracies[0])
    attempted = sum(cell["predictions"] for cell in cells)
    tail_ms, tail_pct, tail_n = tail(latencies)
    limit = LIMIT_MS[TRAIN]
    e2e = {
        "setup_s": statistics.median(value for cell in cells for value in cell["setup_s"]),
        "throughput_rps": statistics.median(
            cell["predictions"] / cell["predict_s"] for cell in cells
        ),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail_ms,
        "within_limit_share": sum(1 for ms in latencies if ms <= limit) / len(latencies),
        "train_s": statistics.median(cell["train_s"] for cell in cells),
        "heldout_accuracy": accuracies[0],
        "peak_rss_mb": statistics.median(result["peak_rss_mb"] for result in results),
    }
    report = {
        "latency_tail": {"percentile": round(tail_pct, 2), "samples": tail_n},
        "latency_limit_ms": limit,
        "cycles": len(cells),
        "train_s_per_cycle": [cell["train_s"] for cell in cells],
        "corpus_train_files": cells[0]["train_files"],
        "corpus_heldout_files": cells[0]["heldout_files"],
        "epochs": cells[0]["epochs"],
        "shard_size": SHARD_SIZE,
        "artifact_bytes": cells[0]["artifact_bytes"],
        "failed_share": (mismatches + repeat_failures) / attempted,
    }
    return Outcome(
        e2e=e2e,
        attempted=attempted,
        failed=mismatches + repeat_failures,
        mismatches=mismatches + repeat_failures,
        report=report,
        window=results[0].get("trace"),
        units=1,
    )


WORKLOADS = {
    FLEET: run_fleet_file_mix,
    TRAIN: run_train_js_vars,
}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def _print_table(title: str, metrics: Dict[str, dict]) -> None:
    print(title)
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:>16.6g} {entry['unit']}")


def run(args, children, workdir: str) -> int:
    import layers

    ctx = Context(args, children, workdir)
    workload = WORKLOADS[args.workload]
    shared: dict = {}
    plain = workload(ctx, False, shared)
    outcomes = [plain]
    e2e = {name: {"value": plain.e2e[name], "unit": unit} for name, unit in E2E_UNITS.items()}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds}")
    _print_table("end-to-end metrics (untraced)", e2e)
    metrics = e2e
    report = {"workload": args.workload, "seed": args.seed, "contents": plain.report}
    if args.trace:
        traced = workload(ctx, True, shared)
        outcomes.append(traced)
        metrics = {
            name: {
                "value": value,
                "unit": layers.UNITS[name],
            }
            for name, value in layers.derive(
                args.workload,
                traced.window,
                traced.units,
                traced.client_service_ms,
                traced.server_stats,
                traced.lag_tail_ms,
                CONNECTIONS if args.workload != TRAIN else 0,
            ).items()
        }
        for name in E2E_UNITS:
            base = plain.e2e[name]
            metrics[f"trace.overhead.{name}"] = {
                "value": (traced.e2e[name] - base) / base if base else 0.0,
                "unit": "share",
            }
        report["coverage_problems"] = layers.coverage(args.workload, traced.window)
        report["traced_e2e"] = traced.e2e
        _print_table("per-layer metrics (traced run)", metrics)
    print(json.dumps({"report": report}))
    mismatches = sum(o.mismatches for o in outcomes)
    result = {
        "correct": mismatches == 0,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if mismatches == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from children import Children, child_env

    # SIGTERM unwinds like an exception, so every child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        with Children(child_env(SRC)) as children:
            return run(args, children, workdir)
    except InvalidMeasurement as error:
        print(f"invalid measurement: {error}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())
