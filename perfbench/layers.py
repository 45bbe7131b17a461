"""Per-layer metrics derived from a traced window, and the coverage check.

Times and counts are per unit of work: one completed request on the
serving workloads, one training cycle on ``train_js_vars``.  Shares,
ratios and rates are not divided.  README.md defines every metric.
"""

from __future__ import annotations

from typing import Dict, List, Optional

FLEET = "fleet_file_mix"
TRAIN = "train_js_vars"
ALL = {FLEET, TRAIN}

#: Span -> workloads on which it must fire.  On every other workload it
#: must fire zero times: the layer is bypassed there.
EXPECTED = {
    "lang.parse": ALL,
    "lang.parse[router]": {FLEET},
    "fleet.ast_digest": {FLEET},
    "fleet.route": {FLEET},
    "fleet.forward": {FLEET},
    "serving.predict": {FLEET},
    "serving.fingerprint": {FLEET},
    "serving.cache_get": {FLEET},
    "serving.submit": {FLEET},
    "serving.score_batch": {FLEET},
    "core.extract": ALL,
    "tasks.graph": ALL,
    "crf.map": ALL,
    "crf.candidates": ALL,
    "crf.score": ALL,
    "crf.compile_graph": ALL,
    "crf.compile": {TRAIN},
    "train.fit": {TRAIN},
    "train.map": {TRAIN},
    "train.weight_write": {TRAIN},
    "shards.build": {TRAIN},
    "shards.load": {TRAIN},
    "shards.decode": {TRAIN},
    "artifacts.pack": {TRAIN},
    "artifacts.open": {TRAIN},
    "artifacts.restore": {TRAIN},
    "translate.lift": {FLEET},
    "translate.render": {FLEET},
}

#: The per-layer metrics, in report order, with their units.
UNITS = {
    "lang.parse_ms": "ms",
    "lang.parse_calls": "count",
    "fleet.digest_ms": "ms",
    "fleet.forward_ms": "ms",
    "fleet.routed_imbalance": "ratio",
    "fleet.failovers": "count",
    "fleet.rejected": "count",
    "serving.fingerprint_ms": "ms",
    "serving.cache_hit_rate": "share",
    "serving.coalesced": "count",
    "serving.queue_wait_ms": "ms",
    "serving.batch_mean": "count",
    "serving.score_batch_ms": "ms",
    "serving.http_ms": "ms",
    "core.extract_ms": "ms",
    "core.paths_per_request": "count",
    "core.extract_nodes_per_s": "1/s",
    "tasks.graph_ms": "ms",
    "tasks.factors_per_request": "count",
    "crf.map_ms": "ms",
    "crf.candidates_ms": "ms",
    "crf.candidates_calls": "count",
    "crf.score_ms": "ms",
    "crf.score_calls": "count",
    "crf.compile_graph_ms": "ms",
    "crf.visits_per_node": "ratio",
    "train.epoch_ms": "ms",
    "train.map_ms": "ms",
    "train.weight_writes": "count",
    "train.repacks": "count",
    "shards.build_ms": "ms",
    "shards.load_ms": "ms",
    "shards.loads": "count",
    "shards.loads_per_view": "ratio",
    "shards.decode_ms": "ms",
    "artifacts.pack_ms": "ms",
    "artifacts.bytes": "bytes",
    "artifacts.load_ms": "ms",
    "translate.lift_ms": "ms",
    "translate.render_ms": "ms",
    "loadgen.lag_tail_ms": "ms",
    "loadgen.connections": "count",
    "trace.coverage_violations": "count",
}


def coverage(workload: str, window: dict) -> List[str]:
    """Spans that fired where bypassed, or stayed silent where expected."""
    problems = [f"target not found: {missing}" for missing in window["missing"]]
    for name, expected_on in sorted(EXPECTED.items()):
        calls = window["spans"].get(name, [0, 0, 0])[0]
        if workload in expected_on and calls == 0:
            problems.append(f"{name} never fired")
        elif workload not in expected_on and calls > 0:
            problems.append(f"{name} fired {calls} times on a workload that bypasses it")
    return problems


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def derive(
    workload: str,
    window: dict,
    units: int,
    client_service_ms: float,
    server_stats: Optional[dict],
    lag_tail_ms: float,
    connections: int,
) -> Dict[str, float]:
    """Per-layer metrics of one traced window.

    ``client_service_ms`` is the mean time from sending a request to its
    answer as the client saw it (0 when nothing was served);
    ``server_stats`` holds counter deltas the servers report themselves.
    """
    spans = window["spans"]
    counters = window["counters"]

    def calls(name: str) -> int:
        return spans.get(name, [0, 0, 0])[0]

    def wall_ms(name: str) -> float:
        return spans.get(name, [0, 0, 0])[1] / 1e6

    def self_ms(name: str) -> float:
        return spans.get(name, [0, 0, 0])[2] / 1e6

    def count(name: str) -> float:
        return counters.get(name, 0)

    per = 1.0 / units if units else 0.0
    stats = server_stats or {}
    routed = list(stats.get("routed", {}).values())
    outer = "fleet.route" if workload == FLEET else "serving.predict"
    metrics = {
        "lang.parse_ms": (self_ms("lang.parse") + self_ms("lang.parse[router]")) * per,
        "lang.parse_calls": (calls("lang.parse") + calls("lang.parse[router]")) * per,
        "fleet.digest_ms": (wall_ms("lang.parse[router]") + wall_ms("fleet.ast_digest")) * per,
        "fleet.forward_ms": (
            max(0.0, wall_ms("fleet.forward") - wall_ms("serving.predict")) * per
            if calls("fleet.forward")
            else 0.0
        ),
        "fleet.routed_imbalance": _ratio(max(routed), sum(routed) / len(routed)) if routed and sum(routed) else 0.0,
        "fleet.failovers": stats.get("failovers", 0),
        "fleet.rejected": stats.get("rejected", 0),
        "serving.fingerprint_ms": self_ms("serving.fingerprint") * per,
        "serving.cache_hit_rate": _ratio(count("serving.cache.hits"), count("serving.cache.lookups")),
        "serving.coalesced": stats.get("coalesced", 0),
        "serving.queue_wait_ms": _ratio(
            wall_ms("serving.submit") - count("serving.batch.item_ns") / 1e6,
            calls("serving.submit"),
        ),
        "serving.batch_mean": _ratio(count("serving.batch.items"), calls("serving.score_batch")),
        "serving.score_batch_ms": _ratio(wall_ms("serving.score_batch"), calls("serving.score_batch")),
        "serving.http_ms": (
            max(0.0, client_service_ms - _ratio(wall_ms(outer), calls(outer)))
            if calls(outer)
            else 0.0
        ),
        "core.extract_ms": self_ms("core.extract") * per,
        "core.paths_per_request": count("core.paths") * per,
        "core.extract_nodes_per_s": _ratio(count("core.nodes"), self_ms("core.extract") / 1000.0),
        "tasks.graph_ms": self_ms("tasks.graph") * per,
        "tasks.factors_per_request": count("tasks.factors") * per,
        "crf.map_ms": self_ms("crf.map") * per,
        "crf.candidates_ms": self_ms("crf.candidates") * per,
        "crf.candidates_calls": calls("crf.candidates") * per,
        "crf.score_ms": self_ms("crf.score") * per,
        "crf.score_calls": calls("crf.score") * per,
        "crf.compile_graph_ms": self_ms("crf.compile_graph") * per,
        "crf.visits_per_node": _ratio(calls("crf.candidates"), count("crf.unknowns")),
        "train.epoch_ms": _ratio(wall_ms("train.fit"), count("train.epochs")),
        "train.map_ms": self_ms("train.map") * per,
        "train.weight_writes": calls("train.weight_write") * per,
        "train.repacks": count("train.repacks") * per,
        "shards.build_ms": self_ms("shards.build") * per,
        "shards.load_ms": self_ms("shards.load") * per,
        "shards.loads": count("shards.payload_loads") * per,
        "shards.loads_per_view": _ratio(count("shards.payload_loads"), calls("shards.decode")),
        "shards.decode_ms": self_ms("shards.decode") * per,
        "artifacts.pack_ms": self_ms("artifacts.pack") * per,
        "artifacts.bytes": count("artifacts.bytes") * per,
        "artifacts.load_ms": (self_ms("artifacts.open") + self_ms("artifacts.restore")) * per,
        "translate.lift_ms": self_ms("translate.lift") * per,
        "translate.render_ms": self_ms("translate.render") * per,
        "loadgen.lag_tail_ms": lag_tail_ms,
        "loadgen.connections": connections,
    }
    metrics["trace.coverage_violations"] = len(coverage(workload, window))
    return metrics
