"""Layer tracing installed from outside the program.

The program has no spans of its own, so this module wraps the public
functions of each layer (and the module-level names that other modules
imported from them, at the place they are called from) with timing
wrappers.  Nothing under ``src/`` is edited: :func:`install` patches the
live objects of an already-imported ``repro`` package.

Every span aggregates into ``[calls, total_ns, self_ns]``.  Synchronous
spans keep a per-thread stack, so a span's self time is its duration
minus the time of the spans it called on the same thread.  Coroutine
spans (the batcher, the router's forward, the servers' predict handlers)
interleave on one event loop and so record wall time only; the metrics
that use them subtract one wall span from another (see README.md).

Counters record work where it happens (paths extracted, factors built,
cache hits, weight writes, bytes packed).  A target that no longer
exists is reported under ``missing`` rather than failing the run, so a
refactor that moves a function shows up as a coverage gap.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

_clock = time.perf_counter_ns


class Tracer:
    """Thread-safe span and counter accumulators."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: Dict[str, List[int]] = {}
        self.counters: Dict[str, float] = {}
        self.missing: List[str] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _acc(self, name: str) -> List[int]:
        with self._lock:
            return self.spans.setdefault(name, [0, 0, 0])

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def sync(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[[tuple, Any], None]] = None,
        before: Optional[Callable[[tuple], None]] = None,
    ) -> Callable:
        """Wrap a synchronous callable as span ``name``.

        ``before``/``after`` run outside the timed region (their cost is
        hidden from the parent span too) and feed counters.
        """
        acc = self._acc(name)
        lock = self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            hidden = 0
            if before is not None:
                mark = _clock()
                before(args)
                hidden = _clock() - mark
            stack.append(0)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                child = stack.pop()
                with lock:
                    acc[0] += 1
                    acc[1] += elapsed
                    acc[2] += elapsed - child
            if after is not None:
                mark = _clock()
                after(args, result)
                hidden += _clock() - mark
            if stack:
                stack[-1] += elapsed + hidden
            return result

        return traced

    def coro(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[[tuple, int], None]] = None,
    ) -> Callable:
        """Wrap a coroutine function as wall-time span ``name``."""
        acc = self._acc(name)
        lock = self._lock

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            start = _clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                elapsed = _clock() - start
                with lock:
                    acc[0] += 1
                    acc[1] += elapsed
                    acc[2] += elapsed
                if after is not None:
                    after(args, elapsed)

        return traced

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "spans": {name: list(acc) for name, acc in self.spans.items()},
                "counters": dict(self.counters),
                "missing": list(self.missing),
            }


def diff(after: dict, before: Optional[dict]) -> dict:
    """The spans and counters accumulated between two snapshots."""
    if before is None:
        return after
    spans = {}
    for name, acc in after["spans"].items():
        base = before["spans"].get(name, [0, 0, 0])
        spans[name] = [a - b for a, b in zip(acc, base)]
    counters = {
        name: value - before["counters"].get(name, 0)
        for name, value in after["counters"].items()
    }
    return {"spans": spans, "counters": counters, "missing": after["missing"]}


# ----------------------------------------------------------------------
# Layer installation
# ----------------------------------------------------------------------


def _patch_method(tracer: Tracer, cls, attr: str, make: Callable) -> None:
    raw = cls.__dict__.get(attr)
    if raw is None:
        tracer.missing.append(f"{cls.__module__}.{cls.__name__}.{attr}")
        return
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def _patch_global(tracer: Tracer, module, attr: str, make: Callable) -> None:
    original = getattr(module, attr, None)
    if original is None:
        tracer.missing.append(f"{module.__name__}.{attr}")
        return
    setattr(module, attr, make(original))


def _rebind_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module's imported name for ``original`` at
    ``replacement`` (``from x import f`` copies the binding)."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _guard(tracer: Tracer, label: str, step: Callable[[], None]) -> None:
    try:
        step()
    except (ImportError, AttributeError, KeyError) as error:
        tracer.missing.append(f"{label}: {error}")


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced layer of the imported ``repro`` package."""
    import importlib

    modules = {}
    for name in (
        "repro.lang.base",
        "repro.core.service",
        "repro.core.extraction",
        "repro.api.pipeline",
        "repro.api.learners",
        "repro.learning.crf.model",
        "repro.learning.crf.compiled",
        "repro.learning.crf.training",
        "repro.serving.server",
        "repro.serving.host",
        "repro.serving.batching",
        "repro.serving.cache",
        "repro.fleet.router",
        "repro.shards",
        "repro.shards.build",
        "repro.shards.format",
        "repro.shards.corpus",
        "repro.artifacts",
        "repro.artifacts.format",
        "repro.translate.translator",
    ):
        try:
            modules[name] = importlib.import_module(name)
        except ImportError as error:
            tracer.missing.append(f"{name}: {error}")

    def mod(name):
        module = modules.get(name)
        if module is None:
            raise ImportError(f"{name} is not importable")
        return module

    def step_lang():
        base = mod("repro.lang.base")
        original = base.parse_source
        wrapped = tracer.sync("lang.parse", original)
        _rebind_everywhere(original, wrapped)
        # The router's own parse (its routing digest) is a separate span
        # so the fleet's double parse is visible; both count as lang.parse.
        router = mod("repro.fleet.router")
        router.parse_source = tracer.sync("lang.parse[router]", original)

    def step_fleet():
        router = mod("repro.fleet.router")
        _patch_global(
            tracer, router, "ast_digest", lambda fn: tracer.sync("fleet.ast_digest", fn)
        )
        cls = router.FleetRouter
        _patch_method(tracer, cls, "_predict", lambda fn: tracer.coro("fleet.route", fn))
        _patch_method(tracer, cls, "_forward", lambda fn: tracer.coro("fleet.forward", fn))

    def step_serving():
        server = mod("repro.serving.server")
        _patch_method(
            tracer,
            server.PredictionServer,
            "_predict",
            lambda fn: tracer.coro("serving.predict", fn),
        )
        pipeline = mod("repro.api.pipeline")
        _patch_method(
            tracer,
            pipeline.ScoringHandle,
            "fingerprinted",
            lambda fn: tracer.sync("serving.fingerprint", fn),
        )

        def cache_after(_args, result):
            tracer.add("serving.cache.lookups")
            if result is not None:
                tracer.add("serving.cache.hits")

        _patch_method(
            tracer,
            mod("repro.serving.cache").LruCache,
            "get",
            lambda fn: tracer.sync("serving.cache_get", fn, after=cache_after),
        )
        _patch_method(
            tracer,
            mod("repro.serving.batching").MicroBatcher,
            "submit",
            lambda fn: tracer.coro("serving.submit", fn),
        )

        def batch_after(args, elapsed):
            items = len(args[1])
            tracer.add("serving.batch.items", items)
            tracer.add("serving.batch.item_ns", elapsed * items)

        _patch_method(
            tracer,
            mod("repro.serving.host").ModelHost,
            "score_batch",
            lambda fn: tracer.coro("serving.score_batch", fn, after=batch_after),
        )

    def step_core():
        def extract_after(args, result):
            tracer.add("core.paths", len(result))
            tracer.add("core.nodes", args[1].size())

        _patch_method(
            tracer,
            mod("repro.core.service").ExtractionService,
            "extract",
            lambda fn: tracer.sync("core.extract", fn, after=extract_after),
        )

    def step_tasks():
        def view_after(_args, view):
            unknowns = getattr(view, "unknowns", None)
            if unknowns is None:
                return
            tracer.add(
                "tasks.factors",
                sum(len(n.known) + len(n.edges) + len(n.unary) for n in unknowns),
            )

        _patch_method(
            tracer,
            mod("repro.api.pipeline").Pipeline,
            "view",
            lambda fn: tracer.sync("tasks.graph", fn, after=view_after),
        )

    def step_crf():
        def count_unknowns(args, _result):
            tracer.add("crf.unknowns", len(args[1]))

        learner = mod("repro.api.learners").CrfLearner
        for attr in ("predict", "suggest"):
            _patch_method(
                tracer,
                learner,
                attr,
                lambda fn: tracer.sync("crf.map", fn, after=count_unknowns),
            )
        _patch_method(
            tracer,
            mod("repro.learning.crf.model").CrfModel,
            "candidate_ids_for",
            lambda fn: tracer.sync("crf.candidates", fn),
        )
        compiled = mod("repro.learning.crf.compiled").CompiledCrfModel
        _patch_method(
            tracer,
            compiled,
            "score_candidates",
            lambda fn: tracer.sync("crf.score", fn),
        )
        _patch_method(
            tracer,
            compiled,
            "compile_graph",
            lambda fn: tracer.sync("crf.compile_graph", fn),
        )

    def step_train():
        training = mod("repro.learning.crf.training")
        compiled_cls = mod("repro.learning.crf.compiled").CompiledCrfModel
        model_cls = mod("repro.learning.crf.model").CrfModel
        state = threading.local()

        def fit_before(_args):
            state.packs = []

        def fit_after(_args, result):
            stats = result[1]
            tracer.add("train.epochs", stats.epochs)
            # pack_version counts packs; the first one is the initial compile.
            tracer.add(
                "train.repacks",
                sum(max(0, pack.pack_version - 1) for pack in state.packs),
            )
            state.packs = None

        def compile_after(_args, compiled):
            packs = getattr(state, "packs", None)
            if packs is not None:
                packs.append(compiled)

        _patch_method(
            tracer,
            training.CrfTrainer,
            "train",
            lambda fn: tracer.sync("train.fit", fn, after=fit_after, before=fit_before),
        )
        _patch_method(
            tracer,
            model_cls,
            "compile",
            lambda fn: tracer.sync("crf.compile", fn, after=compile_after),
        )

        def count_unknowns(args, _result):
            tracer.add("crf.unknowns", len(args[1]))

        # The trainer imported map_inference by name: wrap it there.
        _patch_global(
            tracer,
            training,
            "map_inference",
            lambda fn: tracer.sync("train.map", fn, after=count_unknowns),
        )
        for attr in ("set_pair", "set_unary"):
            _patch_method(
                tracer,
                compiled_cls,
                attr,
                lambda fn: tracer.sync("train.weight_write", fn),
            )

    def step_shards():
        shards = mod("repro.shards")
        build = mod("repro.shards.build")
        original = build.build_spec_shards
        wrapped = tracer.sync("shards.build", original)
        build.build_spec_shards = wrapped
        shards.build_spec_shards = wrapped
        _rebind_everywhere(original, wrapped)

        def load_before(args):
            if args[0]._payload is None:
                tracer.add("shards.payload_loads")

        _patch_method(
            tracer,
            mod("repro.shards.format").ShardReader,
            "load",
            lambda fn: tracer.sync("shards.load", fn, before=load_before),
        )
        decoders = mod("repro.shards.corpus")._DECODERS
        for kind, decoder in list(decoders.items()):
            decoders[kind] = tracer.sync("shards.decode", decoder)

    def step_artifacts():
        artifacts = mod("repro.artifacts")

        def pack_after(args, _result):
            tracer.add("artifacts.bytes", os.path.getsize(args[0]))

        _patch_global(
            tracer,
            artifacts,
            "write_state_artifact",
            lambda fn: tracer.sync("artifacts.pack", fn, after=pack_after),
        )
        _patch_global(
            tracer,
            artifacts,
            "restore_learner",
            lambda fn: tracer.sync("artifacts.restore", fn),
        )
        _patch_method(
            tracer,
            mod("repro.artifacts.format").ModelArtifact,
            "open",
            lambda fn: tracer.sync("artifacts.open", fn),
        )

    def step_translate():
        translator = mod("repro.translate.translator")
        _patch_global(
            tracer, translator, "lift", lambda fn: tracer.sync("translate.lift", fn)
        )
        renderers = translator.RENDERERS
        for language, render in list(renderers.items()):
            renderers[language] = tracer.sync("translate.render", render)

    for label, step in (
        ("lang", step_lang),
        ("fleet", step_fleet),
        ("serving", step_serving),
        ("core", step_core),
        ("tasks", step_tasks),
        ("crf", step_crf),
        ("train", step_train),
        ("shards", step_shards),
        ("artifacts", step_artifacts),
        ("translate", step_translate),
    ):
        _guard(tracer, label, step)
    return tracer


# ----------------------------------------------------------------------
# Snapshot transport between a traced child and the benchmark
# ----------------------------------------------------------------------


def write_json(path: str, payload: dict) -> None:
    """Write atomically so a reader never sees a torn file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def serve_snapshots(tracer: Tracer, prefix: str) -> None:
    """On each SIGUSR1, write the next ``<prefix>.<n>.json`` snapshot.

    The signal handler only sets an event; a daemon thread takes the
    tracer lock and writes, so a signal landing while the main thread
    holds the lock cannot deadlock.
    """
    requested = threading.Event()
    signal.signal(signal.SIGUSR1, lambda *_: requested.set())

    def writer() -> None:
        sequence = 0
        while True:
            requested.wait()
            requested.clear()
            sequence += 1
            write_json(f"{prefix}.{sequence}.json", tracer.snapshot())

    threading.Thread(target=writer, name="trace-snapshots", daemon=True).start()
