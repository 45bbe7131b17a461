"""The all-pairs path extractor: the oracle the single-pass engine must match.

:class:`repro.core.extraction.PathExtractor` extracts leafwise paths in
one bottom-up pass.  :class:`ReferencePathExtractor` is the original
quadratic algorithm it replaced, kept verbatim so the property tests
(``tests/test_extraction_engine.py``) and
``benchmarks/bench_extraction.py`` can hold the engine to exactly this
path set.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

from repro.core.ast_model import Ast, Node
from repro.core.extraction import ExtractedPath, PathExtractor
from repro.core.path_context import make_path_context
from repro.core.paths import AstPath, path_between


class ReferencePathExtractor(PathExtractor):
    """The naive all-pairs extractor, kept as the correctness oracle.

    This is the original quadratic algorithm: enumerate every terminal
    pair, climb to the LCA, filter by length and width afterwards, and
    materialise the full string context eagerly per path.  The
    single-pass engine must produce exactly this path set (same order,
    same interned ids); the property tests and
    ``benchmarks/bench_extraction.py`` hold it to that (and to being
    faster).
    """

    def _record(self, start: Node, end: Node, path: AstPath) -> ExtractedPath:
        context = make_path_context(path, self._alpha)
        space = self._space
        return ExtractedPath(
            start,
            end,
            path,
            context,
            rel_id=space.paths.intern(context.path),
            start_value_id=space.values.intern(context.start_value),
            end_value_id=space.values.intern(context.end_value),
            space=space,
        )

    def iter_leafwise(
        self, ast: Ast, _rng: Optional[random.Random] = None
    ) -> Iterator[ExtractedPath]:
        cfg = self.config
        rng = _rng if _rng is not None else self._rng_for(ast)
        leaves = ast.leaves
        if cfg.leaf_filter is not None:
            leaves = [l for l in leaves if cfg.leaf_filter(l)]
        depths = {id(n): n.depth() for n in ast.root.walk()}
        for i in range(len(leaves)):
            a = leaves[i]
            for j in range(i + 1, len(leaves)):
                b = leaves[j]
                # Cheap length pre-check via the LCA depth bound: the true
                # path length is depth(a)+depth(b)-2*depth(lca) and the lca
                # is no deeper than min(depth(a), depth(b)).
                min_possible = abs(depths[id(a)] - depths[id(b)])
                if min_possible > cfg.max_length:
                    continue
                path = path_between(a, b)
                if path.length > cfg.max_length:
                    continue
                if path.width > cfg.max_width:
                    continue
                if not self._keep(rng):
                    continue
                yield self._record(a, b, path)
