"""Bit-identity oracles: slow, obviously-correct spellings of the product.

Nothing in ``src/`` imports these.  The tests and the engine benchmarks
(``benchmarks/bench_inference.py``, ``benchmarks/bench_extraction.py``)
run the product and the oracle side by side and require identical
output:

* :mod:`oracles.crf_scalar` -- per-candidate dict-lookup CRF scoring,
  MAP inference and top-k, against the compiled engine in
  :mod:`repro.learning.crf.inference`;
* :mod:`oracles.extraction` -- the all-pairs path extractor, against the
  single-pass :class:`repro.core.extraction.PathExtractor`.
"""
