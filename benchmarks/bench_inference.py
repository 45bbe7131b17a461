"""Inference engine benchmark: compiled (columnar) vs the scalar oracle.

Trains one JS variable-naming model on the benchmark corpus, then runs
MAP inference over held-out graphs with the compiled engine and with the
scalar oracle (``tests/oracles/crf_scalar.py``) at two granularities:

* **file** -- the corpus files as generated (tens of unknown nodes);
* **module** -- each project's files concatenated (hundreds of unknown
  nodes), where ICM re-scores beams often enough for the columnar
  gather + factor-ordered reduction to dominate.

Timing is end-to-end per engine: the compiled numbers include
``CrfGraph.columnar()`` / ``compile_graph`` work, because that is what
``Pipeline.predict`` pays.  Emits ``BENCH_inference.json`` (into the
gitignored results directory, see ``conftest.results_dir``) and **fails
if the engines disagree on a single assignment or the module-sized
speedup drops below 3x** -- this file runs in the CI smoke job as the
perf gate for the inference core, and ``compare_bench.py`` tracks its
numbers against the committed baselines.
"""

import time

from conftest import emit, emit_json
from oracles import crf_scalar
from repro.api import Pipeline
from repro.learning.crf import map_inference

EPOCHS = 3
#: Held-out graphs timed per granularity (kept bounded so the scalar
#: oracle pass stays in smoke-job budget).
MAX_FILE_GRAPHS = 20
MAX_MODULE_GRAPHS = 10
REPEATS = 3


def _held_out_sources(data, limit):
    files = data.split.test + data.split.validation
    return [file.source for file in files][:limit]


def _graphs(pipeline, sources, tag):
    graphs = [
        pipeline.view(pipeline.parse(source, name=f"{tag}:{i}"))
        for i, source in enumerate(sources)
    ]
    return [graph for graph in graphs if len(graph)]


def _time_map(infer, scorer, graphs, repeats=REPEATS):
    """Best-of-N wall clock for a full MAP pass over ``graphs``."""
    best = float("inf")
    assignments = []
    for _ in range(repeats):
        started = time.perf_counter()
        assignments = [infer(scorer, graph) for graph in graphs]
        best = min(best, time.perf_counter() - started)
    return best, assignments


def run_all(js_data, js_module_data):
    pipeline = Pipeline(
        language="javascript",
        task="variable_naming",
        training={"epochs": EPOCHS},
    )
    pipeline.train([file.source for file in js_data.split.train])
    model = pipeline.learner.model
    compiled = model.compile()

    granularities = {
        "file": _graphs(
            pipeline, _held_out_sources(js_data, MAX_FILE_GRAPHS), "file"
        ),
        "module": _graphs(
            pipeline, _held_out_sources(js_module_data, MAX_MODULE_GRAPHS), "module"
        ),
    }

    report = {"mismatches": 0}
    rows = []
    for granularity, graphs in granularities.items():
        nodes = sum(len(graph) for graph in graphs)
        scalar_seconds, scalar_assignments = _time_map(
            crf_scalar.map_inference, model, graphs
        )
        compiled_seconds, compiled_assignments = _time_map(
            map_inference, compiled, graphs
        )
        mismatches = sum(
            1
            for scalar, vector in zip(scalar_assignments, compiled_assignments)
            if scalar != vector
        )
        report["mismatches"] += mismatches
        report[granularity] = {
            "graphs": len(graphs),
            "unknown_nodes": nodes,
            "map_seconds_scalar": round(scalar_seconds, 4),
            "map_seconds_compiled": round(compiled_seconds, 4),
            "map_nodes_per_second_scalar": round(nodes / scalar_seconds, 1),
            "map_nodes_per_second_compiled": round(nodes / compiled_seconds, 1),
            "map_speedup": round(scalar_seconds / compiled_seconds, 2),
        }
        rows.append(
            f"{granularity:<8} {len(graphs):>3} graphs {nodes:>6} nodes | "
            f"MAP {scalar_seconds:.3f}s -> {compiled_seconds:.3f}s "
            f"({scalar_seconds / compiled_seconds:.2f}x) | "
            f"mismatches {mismatches}"
        )

    table = "\n".join(
        ["Inference engine: compiled columnar vs scalar oracle (JS corpus)"]
        + rows
    )
    return table, report


def test_inference_speed(benchmark, js_data, js_module_data):
    table, report = benchmark.pedantic(
        run_all, args=(js_data, js_module_data), rounds=1, iterations=1
    )
    emit("inference_engine", table)
    emit_json("BENCH_inference", report)

    # Gate 1: the compiled engine is a faster spelling of the oracle --
    # not one assignment may differ.
    assert report["mismatches"] == 0, (
        "compiled engine diverged from the scalar oracle"
    )
    # Gate 2: it must never be slower, at either granularity.
    for granularity in ("file", "module"):
        assert report[granularity]["map_speedup"] >= 1.0, (
            f"compiled inference slower than the scalar oracle on the "
            f"{granularity} corpus: {report[granularity]}"
        )
    # Gate 3: on module-sized graphs the batched scoring must clear the
    # issue's speedup floor.
    assert report["module"]["map_speedup"] >= 3.0, (
        f"module-sized MAP speedup below the 3x floor: "
        f"{report['module']}"
    )
