"""The serving response cache and the source-digest memo.

Responses are cached under ``(cell, language, target_language, top,
ast_digest)``: the digest (:func:`repro.core.extraction.ast_digest`)
covers the full tree structure, so two submissions share an entry
exactly when their parsed ASTs are identical -- byte-identical sources
and layout-only variants hit, structurally different programs never do
-- and a hit skips extraction and CRF inference.
The source language and (for ``translate`` requests) the target language
are part of the key because the digest alone does not carry them: the
same structure parsed from two languages, or one source translated into
two targets, must neither share a cache entry nor coalesce onto the same
in-flight scoring future.

Computing the digest still costs a parse, so the router and every
replica first consult a *digest memo*: an :class:`LruCache` from
:func:`source_key` -- the language plus a blake2b-256 of the source's
exact UTF-8 bytes -- to the ``ast_digest``.  A byte-identical repeat is
then answered with no parse at all; a layout-only variant misses the
memo, parses once, and still hits the response cache through the digest
it shares.  The memo is exact because ``ast_digest(parse_source(language,
source))`` is a pure function of ``(language, source)``, and it stores
only successful digests, so a source that fails to parse is rejected
afresh on every try.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Hashable, Optional, Tuple


def source_key(language: str, source: str) -> Tuple[str, bytes]:
    """The digest-memo key: the language and blake2b-256 of the source bytes.

    Raises ``UnicodeEncodeError`` for unpaired surrogates, which request
    validation rejects first (:func:`repro.serving.http.surrogate_error`).
    """
    return language, hashlib.blake2b(source.encode("utf-8"), digest_size=32).digest()


class LruCache:
    """A small thread-safe LRU map with hit/miss counters.

    ``capacity <= 0`` disables caching (every ``get`` misses, ``put`` is
    a no-op) while keeping the call sites unconditional.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: Hashable, value: Any) -> None:
        if self.capacity <= 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }
