"""The scalar CRF engine: the oracle the compiled engine must match.

Free functions over a :class:`~repro.learning.crf.model.CrfModel`'s
weight dicts, scoring one candidate label at a time with plain dict
lookups and running ICM on label strings.  This is the original
inference code, kept verbatim so the vectorised engine in
:mod:`repro.learning.crf.inference` can be held to it bit for bit:
assignments, tie-breaks, fallbacks and suggestion scores.

Only dict-backed models are supported: binary-loaded (packed) models
expose no point lookups, so tests compare them against this oracle run
on the JSON-loaded twin.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.learning.crf.graph import CrfGraph, UnknownNode
from repro.learning.crf.inference import UNKNOWN_LABEL
from repro.learning.crf.model import CrfModel


class _AssignmentIdView:
    """Lazy id view of a string assignment (unseen labels read as ``-1``)."""

    __slots__ = ("_values", "_assignment")

    def __init__(self, values, assignment: Sequence[str]) -> None:
        self._values = values
        self._assignment = assignment

    def __getitem__(self, index: int) -> int:
        label_id = self._values.id_of(self._assignment[index])
        return -1 if label_id is None else label_id

    def __len__(self) -> int:
        return len(self._assignment)


def node_score(
    model: CrfModel,
    node: UnknownNode,
    label: str,
    assignment: Sequence[str],
) -> float:
    """Score of ``label`` for one node given the current assignment."""
    values = model.space.values
    lid = values.id_of(label)
    if lid is None:
        return 0.0  # a label never seen in training matches no feature
    score = 0.0
    pair = model.pair_weights
    for factor in node.known:
        key = (lid, factor.rel, factor.label)
        if key in pair:
            score += pair[key]
    for edge in node.edges:
        other_id = values.id_of(assignment[edge.other])
        if other_id is None:
            continue
        key = (lid, edge.rel, other_id)
        if key in pair:
            score += pair[key]
    if model.use_unary:
        unary = model.unary_weights
        for rel in node.unary:
            key = (lid, rel)
            if key in unary:
                score += unary[key]
    return score


def assignment_score(
    model: CrfModel, graph: CrfGraph, assignment: Sequence[str]
) -> float:
    """Total (directionally double-counted, consistent) graph score."""
    return sum(
        node_score(model, node, assignment[i], assignment)
        for i, node in enumerate(graph.unknowns)
    )


def candidates_for(
    model: CrfModel,
    node: UnknownNode,
    assignment: Sequence[str],
    beam: int = 48,
    per_context: int = 12,
    global_fallback: int = 8,
) -> List[str]:
    """Candidate labels for one node given its neighbourhood."""
    values = model.space.values
    ranked = model.candidate_ids_for(
        node,
        _AssignmentIdView(values, assignment),
        beam=beam,
        per_context=per_context,
        global_fallback=global_fallback,
    )
    return [values.value(label_id) for label_id in ranked]


def map_inference(
    model: CrfModel,
    graph: CrfGraph,
    max_sweeps: int = 8,
    beam: int = 48,
    loss_augmented: bool = False,
    gold: Optional[Sequence[str]] = None,
) -> List[str]:
    """Approximate MAP assignment for all unknown nodes of a graph."""
    if loss_augmented and gold is None:
        raise ValueError("loss-augmented inference requires the gold assignment")

    assignment: List[str] = [UNKNOWN_LABEL] * len(graph)
    candidate_cache: List[List[str]] = [[] for _ in range(len(graph))]

    # Greedy initialisation in order of decreasing known-degree, so highly
    # constrained nodes anchor their neighbours.
    order = sorted(
        range(len(graph)),
        key=lambda i: -(len(graph.unknowns[i].known) + len(graph.unknowns[i].unary)),
    )
    for i in order:
        node = graph.unknowns[i]
        candidates = candidates_for(model, node, assignment, beam=beam)
        candidate_cache[i] = candidates
        assignment[i] = _best_label(
            model, graph, i, candidates, assignment, loss_augmented, gold
        )

    # ICM sweeps.
    for _ in range(max_sweeps):
        changed = False
        for i in range(len(graph)):
            node = graph.unknowns[i]
            # Refresh candidates: neighbour labels may have changed.
            candidates = candidates_for(model, node, assignment, beam=beam)
            merged = list(dict.fromkeys(candidate_cache[i] + candidates))
            candidate_cache[i] = merged[:beam]
            best = _best_label(
                model, graph, i, candidate_cache[i], assignment, loss_augmented, gold
            )
            if best != assignment[i]:
                assignment[i] = best
                changed = True
        if not changed:
            break
    return assignment


def _best_label(
    model: CrfModel,
    graph: CrfGraph,
    index: int,
    candidates: Sequence[str],
    assignment: Sequence[str],
    loss_augmented: bool,
    gold: Optional[Sequence[str]],
) -> str:
    node = graph.unknowns[index]
    if not candidates:
        # Explicit empty-beam fallback: score the unknown sentinel (an
        # unseen label scores exactly 0.0) rather than keeping whatever
        # the assignment happened to hold.  Both engines share this rule.
        candidates = (UNKNOWN_LABEL,)
    best_label = candidates[0]
    best_score = float("-inf")
    for label in candidates:
        score = node_score(model, node, label, assignment)
        if loss_augmented and gold is not None and label != gold[index]:
            score += 1.0
        if score > best_score:
            best_score = score
            best_label = label
    return best_label


def topk_for_node(
    model: CrfModel,
    graph: CrfGraph,
    index: int,
    k: int = 8,
    assignment: Optional[Sequence[str]] = None,
    beam: int = 96,
) -> List[Tuple[str, float]]:
    """Top-k candidate labels for one node, with their scores."""
    if assignment is None:
        assignment = map_inference(model, graph)
    node = graph.unknowns[index]
    candidates = candidates_for(model, node, assignment, beam=beam)
    scored = [
        (label, node_score(model, node, label, assignment)) for label in candidates
    ]
    scored.sort(key=lambda kv: (-kv[1], kv[0]))
    return scored[:k]


# ----------------------------------------------------------------------
# Learner-shaped wrappers: what CrfLearner.predict/suggest return, scored
# by the oracle.
# ----------------------------------------------------------------------
def learner_predict(model: CrfModel, view: CrfGraph) -> Dict[str, str]:
    assignment = map_inference(model, view)
    return {node.key: assignment[i] for i, node in enumerate(view.unknowns)}


def learner_suggest(
    model: CrfModel, view: CrfGraph, k: int = 5
) -> Dict[str, List[Tuple[str, float]]]:
    assignment = map_inference(model, view)
    return {
        node.key: topk_for_node(model, view, i, k=k, assignment=assignment)
        for i, node in enumerate(view.unknowns)
    }


def pipeline_predict(pipeline, source: str) -> Dict[str, str]:
    """``pipeline.predict(source)``, scored by the oracle."""
    return learner_predict(pipeline.learner.model, pipeline.view(pipeline.parse(source)))


def pipeline_suggest(pipeline, source: str, k: int = 5):
    """``pipeline.suggest(source, k)``, scored by the oracle."""
    return learner_suggest(
        pipeline.learner.model, pipeline.view(pipeline.parse(source)), k=k
    )
