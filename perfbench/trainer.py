"""One training run in its own process.

Usage: ``python trainer.py JOB.json RESULT.json [TRACE.json]``

For each cell of the job: build view shards from the sources
(``build_spec_shards``), stream-train over them
(``Pipeline.train(shards=...)``), pack the binary artifact
(``Pipeline.save(format="binary")``), then open the artifact as the
server does (``Pipeline.load(...).scoring_handle()``) and predict the
held-out files.  The in-memory pipeline then predicts the same files so
the benchmark can check the packed artifact is bit-identical to it, and
the views' gold labels give the exact-match accuracy.  With a third
argument the layers are traced and the spans written there; the trace
ends after the packed artifact's predictions, so the checking work that
follows is not in it.
"""

import json
import os
import sys
import time
from typing import Callable, Optional

#: The held-out split is predicted this many times (more latency samples).
HELDOUT_PASSES = 2
#: The packed artifact is opened this many times; setup_s is their median.
SETUP_REPEATS = 5


def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def run_cell(
    cell: dict, workdir: str, shard_size: int, measured: Optional[Callable[[], None]] = None
) -> dict:
    """Train, pack and evaluate one cell; ``measured`` is called when the
    measured work is done and only checking is left."""
    import repro.shards
    from repro.api import Pipeline

    name = cell["name"]
    shard_dir = os.path.join(workdir, f"{name}.shards")
    artifact = os.path.join(workdir, f"{name}.pigeon")
    pipeline = Pipeline(
        language=cell["language"],
        task=cell["task"],
        training={"epochs": cell["epochs"]},
    )
    started = time.perf_counter()
    repro.shards.build_spec_shards(
        pipeline.spec, cell["train"], shard_dir, shard_size=shard_size
    )
    pipeline.train(shards=shard_dir)
    pipeline.save(artifact, format="binary")
    train_s = time.perf_counter() - started

    heldout = cell["heldout"]
    setup_s = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        handle = Pipeline.load(artifact).scoring_handle()
        handle.predict(heldout[0])
        setup_s.append(time.perf_counter() - started)

    latencies_ms = []
    for _ in range(HELDOUT_PASSES):
        packed = []
        for source in heldout:
            began = time.perf_counter()
            packed.append(handle.predict(source))
            latencies_ms.append((time.perf_counter() - began) * 1000.0)
    if measured is not None:
        measured()

    mismatches = 0
    right = total = 0
    for source, answer in zip(heldout, packed):
        if pipeline.predict(source) != answer:
            mismatches += 1
        view = pipeline.view(pipeline.parse(source))
        for node in view.unknowns:
            total += 1
            right += answer.get(node.key) == node.gold
    return {
        "name": name,
        "artifact": artifact,
        "artifact_bytes": os.path.getsize(artifact),
        "train_files": len(cell["train"]),
        "heldout_files": len(heldout),
        "predictions": len(latencies_ms),
        "epochs": cell["epochs"],
        "train_s": train_s,
        "setup_s": setup_s,
        "latencies_ms": latencies_ms,
        "predict_s": sum(latencies_ms) / 1000.0,
        "mismatches": mismatches,
        "right": right,
        "total": total,
    }


def main(argv) -> int:
    if len(argv) not in (2, 3):
        raise SystemExit("usage: trainer.py JOB.json RESULT.json [TRACE.json]")
    with open(argv[0], encoding="utf-8") as handle:
        job = json.load(handle)
    measured = None
    if len(argv) == 3:
        import spans

        if len(job["cells"]) != 1:
            raise SystemExit("a traced job trains exactly one cell")
        tracer = spans.install(spans.Tracer())

        def measured():
            spans.write_json(argv[2], tracer.snapshot())

    os.makedirs(job["workdir"], exist_ok=True)
    cells = [
        run_cell(cell, job["workdir"], job["shard_size"], measured) for cell in job["cells"]
    ]
    with open(argv[1], "w", encoding="utf-8") as handle:
        json.dump({"cells": cells, "peak_rss_mb": peak_rss_mb()}, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
