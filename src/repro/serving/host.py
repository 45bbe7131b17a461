"""Model loading and CPU-bound scoring for the prediction server.

:class:`ModelHost` owns every saved :class:`~repro.api.Pipeline` the
server exposes.  Each model is loaded once at startup and immediately
converted to a read-only :class:`~repro.api.pipeline.ScoringHandle`
(frozen feature space, per-request overlay interning), then requests are
routed by their ``(language, task)`` pair.

Scoring is CPU-bound (parse, extract, CRF inference), so it never runs
on the event loop:

* ``workers == 0`` -- in-process mode: each batch scores sequentially on
  the default thread executor.  Zero setup cost, observable extraction
  stats; what tests and the in-process benchmark use.
* ``workers > 0`` -- a ``ProcessPoolExecutor`` whose workers pre-load the
  same model files in their initializer (pre-warmed: the pool is spun up
  and exercised before the server accepts traffic), and batch items fan
  out across the pool.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..api.pipeline import Pipeline, ScoringHandle
from ..api.protocols import ParsedProgram
from ..artifacts.format import sniff_format


@dataclass(frozen=True)
class PredictRequest:
    """One routed prediction request (already validated by the server)."""

    source: str
    language: str
    task: str
    #: 0 -> MAP predictions; k > 0 -> top-k suggestions.
    top: int = 0
    #: Set (only) on ``translate``-task requests: the language the
    #: response's ``translated_source`` is rendered in.
    target_language: Optional[str] = None
    #: The already-parsed source, when the caller fingerprinted it in
    #: this process (in-process scoring reuses it; worker-pool requests
    #: ship only the source text and re-parse on the other side).  None
    #: when the digest came from the server's memo: scoring parses once.
    program: Optional[ParsedProgram] = field(default=None, compare=False, repr=False)

    @property
    def route(self) -> Tuple[str, str]:
        return (self.language, self.task)


class ModelHost:
    """Load saved pipelines once; route and score prediction requests."""

    def __init__(
        self,
        model_paths: Sequence[str],
        workers: int = 0,
    ) -> None:
        if not model_paths:
            raise ValueError("ModelHost needs at least one saved model file")
        self.model_paths: List[str] = list(model_paths)
        self.handles: Dict[Tuple[str, str], ScoringHandle] = {}
        #: cell -> {path, format, load_ms}: cold-start cost per model,
        #: exposed under ``/stats`` so the JSON-vs-binary artifact choice
        #: is visible in production instead of being invisible startup tax.
        self.load_info: Dict[str, Dict[str, object]] = {}
        for path in self.model_paths:
            started = time.perf_counter()
            handle = _load_handle(path)
            load_ms = (time.perf_counter() - started) * 1000.0
            key = (handle.spec.language, handle.spec.task)
            if key in self.handles:
                raise ValueError(
                    f"two models serve ({key[0]}, {key[1]}); each "
                    f"(language, task) pair may be loaded once"
                )
            self.handles[key] = handle
            self.load_info[handle.cell] = {
                "path": path,
                "format": sniff_format(path),
                "load_ms": round(load_ms, 3),
            }
        self.workers = max(0, int(workers))
        self._executor: Optional[ProcessPoolExecutor] = None

    def model_stats(self) -> Dict[str, Dict[str, object]]:
        """Per-model artifact format and load latency (for ``/stats``)."""
        return {cell: dict(info) for cell, info in self.load_info.items()}

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def cells(self) -> List[str]:
        """The served cells, e.g. ``javascript/variable_naming/ast-paths/crf``."""
        return sorted(handle.cell for handle in self.handles.values())

    def resolve(
        self, language: Optional[str], task: Optional[str]
    ) -> ScoringHandle:
        """The handle serving ``(language, task)``.

        Either field may be omitted when it is unambiguous across the
        loaded models; raises ``LookupError`` (-> HTTP 404) otherwise.
        """
        matches = [
            handle
            for (lang, tsk), handle in self.handles.items()
            if (language is None or lang == language)
            and (task is None or tsk == task)
        ]
        if len(matches) == 1:
            return matches[0]
        served = ", ".join(
            f"({lang}, {tsk})" for lang, tsk in sorted(self.handles)
        )
        wanted = f"(language={language or '*'}, task={task or '*'})"
        if not matches:
            raise LookupError(f"no model serves {wanted}; serving: {served}")
        raise LookupError(f"{wanted} is ambiguous; serving: {served}")

    # ------------------------------------------------------------------
    # Worker pool
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spin up and pre-warm the process pool (no-op in-process)."""
        if self.workers > 0 and self._executor is None:
            executor = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(tuple(self.model_paths),),
            )
            # Pre-warm: force every worker to fork/spawn and finish
            # loading its models *now*, so the first real request never
            # pays a cold start.  One barrier call per worker; the small
            # sleep spreads the calls across distinct processes.
            warmups = [
                executor.submit(_warm_worker, 0.05) for _ in range(self.workers)
            ]
            for warmup in warmups:
                warmup.result()
            self._executor = executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    async def score_batch(self, requests: List[PredictRequest]) -> List[dict]:
        """Score one micro-batch off the event loop; results in order.

        One item failing must not poison its batchmates: a failed item
        resolves to ``{"error": ...}`` (the server answers it with a 500)
        while every other item's result comes back intact.
        """
        loop = asyncio.get_running_loop()
        if self._executor is not None:
            # Fan the batch out across the pool; each worker holds its
            # own pre-loaded handles, so items score in parallel.
            outcomes = await asyncio.gather(
                *(
                    loop.run_in_executor(self._executor, _score_in_worker, request)
                    for request in requests
                ),
                return_exceptions=True,
            )
            results: List[dict] = []
            for outcome in outcomes:
                if isinstance(outcome, asyncio.CancelledError):
                    raise outcome
                if isinstance(outcome, BaseException):
                    results.append({"error": str(outcome)})
                else:
                    results.append(outcome)
            return results
        return await loop.run_in_executor(None, self.score_batch_sync, requests)

    def score_batch_sync(self, requests: List[PredictRequest]) -> List[dict]:
        results: List[dict] = []
        for request in requests:
            try:
                handle = self.resolve(request.language, request.task)
                results.append(score_one(handle, request))
            except Exception as error:  # noqa: BLE001 - isolated per item
                results.append({"error": str(error)})
        return results


def score_one(handle: ScoringHandle, request: PredictRequest) -> dict:
    """Score one request against one handle (shared by both modes)."""
    if request.target_language is not None:
        return _translate_one(handle, request)
    if request.top > 0:
        suggestions = handle.suggest(
            request.source, k=request.top, program=request.program
        )
        return {
            "cell": handle.cell,
            "suggestions": {
                key: [[label, score] for label, score in ranked]
                for key, ranked in suggestions.items()
            },
        }
    return {
        "cell": handle.cell,
        "predictions": handle.predict(request.source, program=request.program),
    }


def _translate_one(handle: ScoringHandle, request: PredictRequest) -> dict:
    """Run the translation pipeline for one ``translate``-task request.

    A lifter rejection is the *user's* input being out of vocabulary, not
    a server failure: it comes back as a structured result with
    ``status: 400`` and the offending node's kind and position, which the
    server forwards verbatim instead of a 500.  Injected faults and real
    bugs still raise and surface as 500s.
    """
    from ..translate import Translator, UnsupportedConstructError

    translator = Translator(handle)
    try:
        payload = translator.translate(
            request.source,
            request.target_language,
            language=handle.spec.language,
            program=request.program,
        )
    except UnsupportedConstructError as error:
        return {
            "error": str(error),
            "status": 400,
            "unsupported": {
                "language": error.language,
                "node": error.node_kind,
                "position": error.position,
            },
        }
    return dict(payload, cell=handle.cell)


def _load_handle(path: str) -> ScoringHandle:
    """Load one model and freeze it into a handle."""
    return Pipeline.load(path).scoring_handle()


#: Per-worker-process state: (language, task) -> ScoringHandle.
_WORKER_HANDLES: Dict[Tuple[str, str], ScoringHandle] = {}


def _init_worker(model_paths: Tuple[str, ...]) -> None:
    for path in model_paths:
        handle = _load_handle(path)
        _WORKER_HANDLES[(handle.spec.language, handle.spec.task)] = handle


def _warm_worker(hold_seconds: float) -> int:
    import os
    import time

    time.sleep(hold_seconds)
    return os.getpid()


def _score_in_worker(request: PredictRequest) -> dict:
    return score_one(_WORKER_HANDLES[request.route], request)
