"""Conditional random fields over program-element graphs.

This package reimplements the Nice2Predict-style CRF the paper plugs AST
paths into (Sec. 3.1, 5.1), including the paper's two extensions:

* **unary factors** for paths between occurrences of the same element;
* a **top-k candidate suggestion** API.

Architecture -- columnar layout and oracle gating
-------------------------------------------------

Training state lives in python dicts (:class:`~repro.learning.crf.model.
CrfModel`): sparse weight tables keyed by interned integer tuples, plus
the candidate index that bounds each node's label beam.  That layout is
right for sparse subgradient updates but wrong for inference, where ICM
re-scores whole candidate beams per node per sweep.  Inference therefore
runs on a parallel **columnar** representation:

* :meth:`CrfGraph.columnar() <repro.learning.crf.graph.CrfGraph.columnar>`
  re-lays a graph's per-node factor lists as flat CSR-style id arrays
  (structure-of-arrays, cached per graph);
* :meth:`CrfModel.compile() <repro.learning.crf.model.CrfModel.compile>`
  packs the weight dicts into sorted parallel numpy arrays keyed on the
  ``(factor-group, label)`` plane
  (:class:`~repro.learning.crf.compiled.CompiledCrfModel`), so one
  ``searchsorted`` gathers a whole ``factors x candidates`` weight
  matrix and a factor-ordered reduction scores the beam.

The columnar engine is the only scoring path.  Its bit-identity oracle
-- the original per-candidate dict-lookup engine -- lives with the tests
(``tests/oracles/crf_scalar.py``): the compiled engine must reproduce its
output exactly (scores, tie-breaks, fallbacks), and
``tests/test_crf_compiled.py`` holds that gate, the same way the
single-pass path extractor is gated on the all-pairs extractor in
``tests/oracles/extraction.py``.
"""

from .compiled import CompiledCrfModel
from .graph import ColumnarGraph, CrfGraph, KnownNeighbor, UnknownNode
from .model import CrfModel
from .inference import map_inference, topk_for_node
from .training import CrfTrainer, TrainingConfig

__all__ = [
    "ColumnarGraph",
    "CompiledCrfModel",
    "CrfGraph",
    "KnownNeighbor",
    "UnknownNode",
    "CrfModel",
    "map_inference",
    "topk_for_node",
    "CrfTrainer",
    "TrainingConfig",
]
