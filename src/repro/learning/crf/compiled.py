"""Vectorized CRF scoring: columnar factor storage, batched candidates.

:class:`~repro.learning.crf.model.CrfModel` keeps its weights in python
dicts keyed by integer tuples -- ideal for training updates, terrible for
inference, where ICM re-scores every candidate label of every unknown
node once per sweep: scoring per candidate would pay ``len(beam)``
python loops over a node's factors (one dict lookup per ``(label,
factor)`` pair).  This module re-lays the same weights as
**structure-of-arrays** so one node's whole beam scores as a handful of
numpy ops:

* At *freeze* time, :class:`CompiledCrfModel` packs ``pair_weights`` and
  ``unary_weights`` into parallel sorted arrays.  Factors are grouped by
  ``(rel_id, other_value_id)`` (unary groups use ``other == -1``), each
  group gets a dense row id, and every weight becomes one entry in a
  sorted ``row * label_base + label_id`` key array -- a CSR-style index
  over the ``(group, label)`` plane.
* At *graph-compile* time (:meth:`compile_graph`, once per inference
  call), the graph's :meth:`~repro.learning.crf.graph.CrfGraph.columnar`
  view is resolved against the pack: each known/unary factor's group row
  is looked up once, so ICM sweeps touch no python tuples.
* At *scoring* time, :meth:`score_candidates` builds the ``(factors x
  candidates)`` key matrix, gathers all weights with **one**
  ``searchsorted``, and reduces along the factor axis.  Within one
  inference call a node's known and unary rows do not depend on the
  assignment, so a per-call memo keeps their part of the sum and a
  re-visit gathers only the edge rows.

**Bit-identity with the scalar oracle** (the per-candidate dict-lookup
scorer in ``tests/oracles/crf_scalar.py``) is the design constraint, not
an afterthought: predictions (tie-breaks included) and suggestion scores
must match it exactly.  Two rules make that hold:

1. The factor-axis reduction is ``np.add.accumulate`` down a stack
   whose first row is the ``+0.0`` start: sequential by definition, in
   factor order (known, edges, unary) -- the same left-to-right IEEE
   addition sequence the scalar loop performs.  (``sum(axis=0)`` is
   not: numpy sums a single column pairwise.)  Absent weights contribute
   ``+0.0``, which is bitwise inert (the scalar running sum is never
   ``-0.0``), and the known-prefix partial a re-visit resumes from is
   one of the accumulated rows.
2. Candidate ids at or beyond ``label_base`` (overlay-interned request
   strings, labels interned after the pack) and the ``-1`` sentinel (the
   un-interned ``"?"`` fallback) are masked to a zero score, exactly what
   the scalar path computes for a label that matches no trained feature
   -- unless the overflow below holds a weight for them.

The trainer mutates weights between inference calls, so the pack
supports cheap **write-through**: :meth:`set_pair`/:meth:`set_unary`
update packed entries in place, unseen keys land in a small overflow
dict that scoring consults per *factor* (not per candidate), and the
pack rebuilds itself once the overflow outgrows a threshold.  Overflow
weights are patched into the gathered weight matrix after the mask and
*before* the factor-order reduction, so mid-training scoring stays
bit-identical to the scalar oracle too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from .graph import ColumnarGraph, CrfGraph

if TYPE_CHECKING:  # pragma: no cover
    from .model import CrfModel, PairKey, UnaryKey

#: Sentinel "other" id that keys unary groups in the shared group space
#: (real neighbour value ids are always >= 0, so no collision).
UNARY_OTHER = -1


@dataclass(frozen=True)
class CompiledGraph:
    """One graph resolved against one weight pack.

    ``known_rows`` / ``unary_rows`` are flat arrays parallel with the
    :class:`~repro.learning.crf.graph.ColumnarGraph` factor columns:
    each entry is the packed group row of that factor (or ``-1`` when the
    model holds no weights for its group).  Edge rows depend on the
    evolving assignment, so they resolve per scoring call instead.

    ``pack_version`` pins the pack this resolution belongs to; scoring
    against a repacked model raises rather than silently mis-gathering.
    """

    cols: ColumnarGraph
    known_rows: np.ndarray
    unary_rows: np.ndarray
    pack_version: int
    known_off: List[int]
    edge_off: List[int]
    unary_off: List[int]


class CompiledCrfModel:
    """A :class:`CrfModel` frozen into sorted parallel weight arrays.

    Wraps (and keeps a reference to) the dict-backed model: candidate
    generation and the vocabularies stay on ``model``; only scoring is
    re-laid.  Build one with :meth:`CrfModel.compile`.
    """

    def __init__(self, model: "CrfModel") -> None:
        self.model = model
        self._pack_version = 0
        self._dirty = False
        self._pack()

    @classmethod
    def from_buffers(
        cls,
        model: "CrfModel",
        group_of: Dict[Tuple[int, int], int],
        keys: np.ndarray,
        weights: np.ndarray,
        label_base: int,
    ) -> "CompiledCrfModel":
        """Adopt pre-packed planes without copying (the mmap load path).

        ``keys`` / ``weights`` are the sorted combined-key and weight
        arrays exactly as :meth:`_pack` would build them -- typically
        zero-copy views over a ``pigeon-model/1`` mapping, shared
        page-for-page between every process serving the same artifact.
        The write-through position maps start empty: binary-loaded
        models are read-only, so no trainer ever calls
        :meth:`set_pair` / :meth:`set_unary` on this pack (and the
        backing buffers would refuse the write anyway).
        """
        self = cls.__new__(cls)
        self.model = model
        self._pack_version = 1
        self._dirty = False
        self._label_base = max(1, int(label_base))
        self._group_of = group_of
        self._keys = keys
        self._weights = weights
        self._pair_pos = {}
        self._unary_pos = {}
        self._overflow = {}
        self._overflow_count = 0
        return self

    # ------------------------------------------------------------------
    # Packing
    # ------------------------------------------------------------------
    def _pack(self) -> None:
        """(Re)build the sorted key/weight arrays from the model dicts."""
        model = self.model
        self._label_base = max(1, len(model.space.values))
        base = self._label_base
        group_of: Dict[Tuple[int, int], int] = {}
        combined: List[int] = []
        weights: List[float] = []
        pair_keys: List[Tuple[int, int, int]] = []
        unary_keys: List[Tuple[int, int]] = []
        origins: List[Tuple[bool, int]] = []  # (is_pair, index into *_keys)
        for key, weight in model.pair_weights.items():
            label, rel, other = key
            row = group_of.setdefault((rel, other), len(group_of))
            combined.append(row * base + label)
            weights.append(weight)
            origins.append((True, len(pair_keys)))
            pair_keys.append(key)
        for ukey, weight in model.unary_weights.items():
            label, rel = ukey
            row = group_of.setdefault((rel, UNARY_OTHER), len(group_of))
            combined.append(row * base + label)
            weights.append(weight)
            origins.append((False, len(unary_keys)))
            unary_keys.append(ukey)

        order = np.argsort(np.asarray(combined, dtype=np.int64), kind="stable")
        keys_arr = np.asarray(combined, dtype=np.int64)[order]
        weights_arr = np.asarray(weights, dtype=np.float64)[order]
        pair_pos: Dict["PairKey", int] = {}
        unary_pos: Dict["UnaryKey", int] = {}
        for sorted_index, original in enumerate(order.tolist()):
            is_pair, key_index = origins[original]
            if is_pair:
                pair_pos[pair_keys[key_index]] = sorted_index
            else:
                unary_pos[unary_keys[key_index]] = sorted_index

        self._group_of = group_of
        self._keys = keys_arr
        self._weights = weights_arr
        self._pair_pos = pair_pos
        self._unary_pos = unary_pos
        #: group key -> {label_id: weight}; weights for keys born after
        #: the pack.  Consulted per factor during scoring, folded back in
        #: at the next repack.
        self._overflow: Dict[Tuple[int, int], Dict[int, float]] = {}
        self._overflow_count = 0
        self._dirty = False
        self._pack_version += 1

    @property
    def pack_version(self) -> int:
        return self._pack_version

    @property
    def label_base(self) -> int:
        """Vocab size at pack time; candidate ids must stay below it."""
        return self._label_base

    def invalidate(self) -> None:
        """Mark the pack stale (bulk model mutation, e.g. weight decay)."""
        self._dirty = True

    def _refresh(self) -> None:
        if self._dirty:
            self._pack()

    def _repack_threshold(self) -> int:
        return max(256, len(self._keys) // 4)

    # ------------------------------------------------------------------
    # Write-through (the trainer's update path)
    # ------------------------------------------------------------------
    def set_pair(self, key: "PairKey", value: float) -> None:
        """Mirror ``model.pair_weights[key] = value`` into the pack."""
        position = self._pair_pos.get(key)
        if position is not None:
            self._weights[position] = value
            return
        label, rel, other = key
        self._stash((rel, other), label, value)

    def set_unary(self, key: "UnaryKey", value: float) -> None:
        """Mirror ``model.unary_weights[key] = value`` into the pack."""
        position = self._unary_pos.get(key)
        if position is not None:
            self._weights[position] = value
            return
        label, rel = key
        self._stash((rel, UNARY_OTHER), label, value)

    def _stash(self, group: Tuple[int, int], label: int, value: float) -> None:
        bucket = self._overflow.setdefault(group, {})
        if label not in bucket:
            self._overflow_count += 1
        bucket[label] = value
        if self._overflow_count > self._repack_threshold():
            self._pack()

    # ------------------------------------------------------------------
    # Graph compilation
    # ------------------------------------------------------------------
    def compile_graph(self, graph: CrfGraph) -> CompiledGraph:
        """Resolve one graph's columnar factors against this pack.

        Called once per inference call; the group-row lookups here are
        the only per-factor python work the vectorized engine performs.
        """
        self._refresh()
        cols = graph.columnar()
        group_of = self._group_of
        known_rows = np.fromiter(
            (
                group_of.get((rel, label), -1)
                for rel, label in zip(cols.known_rel_list, cols.known_label_list)
            ),
            dtype=np.int64,
            count=len(cols.known_rel_list),
        )
        unary_rows = np.fromiter(
            (group_of.get((rel, UNARY_OTHER), -1) for rel in cols.unary_rel_list),
            dtype=np.int64,
            count=len(cols.unary_rel_list),
        )
        return CompiledGraph(
            cols=cols,
            known_rows=known_rows,
            unary_rows=unary_rows,
            pack_version=self._pack_version,
            known_off=cols.known_off.tolist(),
            edge_off=cols.edge_off.tolist(),
            unary_off=cols.unary_off.tolist(),
        )

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def score_candidates(
        self,
        cg: CompiledGraph,
        index: int,
        candidates: np.ndarray,
        assignment_ids: np.ndarray,
        memo: Optional[Dict[int, tuple]] = None,
    ) -> np.ndarray:
        """Scores of every candidate label for node ``index`` at once.

        ``candidates`` is an ``int64`` array of distinct label ids; ``-1``
        (or any id at/above :attr:`label_base` that the overflow holds no
        weight for) means "no trained feature can match" and scores
        exactly ``0.0``.  ``assignment_ids`` is the current assignment as an
        ``int64`` array over all nodes (``-1`` for labels outside the
        model vocabulary).  Bit-identical to summing the dict weights per
        candidate in factor order.

        ``memo`` is per-inference-call state (a dict the caller creates
        and drops; the weights must not change while it lives).  It keeps
        each node's known-factor prefix sum and unary weight rows for the
        candidate vector last scored, so a re-visit with the same
        candidates gathers only the edge rows, which are the only ones
        that depend on the assignment.
        """
        if cg.pack_version != self._pack_version:
            raise RuntimeError(
                "CompiledGraph was resolved against pack version "
                f"{cg.pack_version}, but the model has repacked to "
                f"{self._pack_version}; call compile_graph() again"
            )
        cols = cg.cols
        ks, ke = cg.known_off[index], cg.known_off[index + 1]
        es, ee = cg.edge_off[index], cg.edge_off[index + 1]
        us, ue = cg.unary_off[index], cg.unary_off[index + 1]
        if not self.model.use_unary:
            ue = us

        # The other >= 0 gate keeps unassigned/unseen neighbours
        # (sentinel -1) from colliding with UNARY_OTHER group keys; the
        # scalar path skips those edges the same way.
        edge_groups = [
            (rel, other) if other >= 0 else None
            for rel, other in zip(
                cols.edge_rel_list[es:ee],
                assignment_ids[cols.edge_other[es:ee]].tolist(),
            )
        ]
        group_of = self._group_of
        edge_rows = np.fromiter(
            (group_of.get(group, -1) if group else -1 for group in edge_groups),
            dtype=np.int64,
            count=ee - es,
        )

        entry = memo.get(index) if memo is not None else None
        if entry is not None and (
            entry[0] is candidates or np.array_equal(entry[0], candidates)
        ):
            _, prefix, unary_weights = entry
            edge_weights = self._gather(edge_rows, edge_groups, candidates)
            stack = np.concatenate((prefix[None, :], edge_weights, unary_weights))
            return np.add.accumulate(stack, axis=0)[-1]

        n_known = ke - ks
        rows = np.concatenate(
            (cg.known_rows[ks:ke], edge_rows, cg.unary_rows[us:ue])
        )
        groups = None
        if self._overflow:
            groups = list(
                zip(cols.known_rel_list[ks:ke], cols.known_label_list[ks:ke])
            )
            groups += edge_groups
            groups += [(rel, UNARY_OTHER) for rel in cols.unary_rel_list[us:ue]]
        # Row 0 is the +0.0 start of the scalar running sum, so the
        # accumulated rows are exactly its partial sums: partial[1 + f] is
        # the sum after factor f, in factor order (IEEE addition is not
        # associative; a pairwise ``sum`` would round differently).
        stack = np.zeros((1 + len(rows), len(candidates)), dtype=np.float64)
        stack[1:] = self._gather(rows, groups, candidates)
        partial = np.add.accumulate(stack, axis=0)
        if memo is not None and ee > es:
            memo[index] = (
                candidates,
                partial[n_known].copy(),
                stack[1 + n_known + ee - es :].copy(),
            )
        return partial[-1]

    def _gather(
        self,
        rows: np.ndarray,
        groups: Optional[List[Optional[Tuple[int, int]]]],
        candidates: np.ndarray,
    ) -> np.ndarray:
        """The ``(len(rows), len(candidates))`` weight matrix.

        ``rows`` are packed group rows (``-1``: none); ``groups`` are the
        same factors' group keys (``None`` for a skipped edge), needed
        only while the overflow holds post-pack weights.
        """
        n_candidates = len(candidates)
        if not len(rows) or not len(self._keys):
            weight_matrix = np.zeros((len(rows), n_candidates), dtype=np.float64)
        else:
            valid = (candidates >= 0) & (candidates < self._label_base)
            all_valid = bool(valid.all())
            safe = candidates if all_valid else np.where(valid, candidates, 0)
            flat = (rows[:, None] * self._label_base + safe[None, :]).ravel()
            positions = np.searchsorted(self._keys, flat)
            np.minimum(positions, len(self._keys) - 1, out=positions)
            found = self._keys[positions] == flat
            weight_matrix = np.where(found, self._weights[positions], 0.0).reshape(
                len(rows), n_candidates
            )
            if not all_valid:
                weight_matrix[:, ~valid] = 0.0
        if self._overflow:
            self._patch_overflow(weight_matrix, groups, candidates)
        return weight_matrix

    def _patch_overflow(
        self,
        weight_matrix: np.ndarray,
        groups: List[Optional[Tuple[int, int]]],
        candidates: np.ndarray,
    ) -> None:
        """Write post-pack weights into the gathered matrix, in place.

        Runs only while the trainer has unrepacked updates.  It runs after
        the out-of-range mask, because a label interned after the pack
        (id at or above :attr:`label_base`) can only hold an overflow
        weight.
        """
        overflow = self._overflow
        column_of = {label: j for j, label in enumerate(candidates.tolist())}
        for f, group in enumerate(groups):
            bucket = overflow.get(group) if group is not None else None
            if bucket:
                row = weight_matrix[f]
                for label in bucket.keys() & column_of.keys():
                    row[column_of[label]] = bucket[label]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledCrfModel({len(self._keys)} weights, "
            f"{len(self._group_of)} groups, pack v{self._pack_version})"
        )
