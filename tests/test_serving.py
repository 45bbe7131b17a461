"""Tests for the async batched prediction server (`repro.serving`).

One small JavaScript variable-naming model is trained per module and
served in-process; every HTTP-level test talks to a real server on a
loopback socket through :class:`ServingClient`.
"""

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Pipeline
from repro.core.interning import FrozenVocabError
from repro.corpus import deduplicate, generate_corpus
from repro.corpus.generator import CorpusConfig
from repro.serving import (
    BatcherClosed,
    LruCache,
    MicroBatcher,
    ModelHost,
    PredictionServer,
    ServerThread,
    ServingClient,
    ServingError,
)

from oracles import crf_scalar

#: A program whose identifiers never appear in the generated corpus, so
#: predict-time interning must handle genuinely unseen strings.
NOVEL_JS = """
var qzUnseenTotal = 0;
function qzUnseenStep(qzUnseenArg) {
  var qzUnseenLocal = qzUnseenArg + qzUnseenTotal;
  return qzUnseenLocal;
}
"""


@pytest.fixture(scope="module")
def corpus_sources():
    kept, _removed = deduplicate(
        generate_corpus(CorpusConfig(language="javascript", n_projects=4, seed=8))
    )
    return [f.source for f in kept]


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, corpus_sources):
    pipeline = Pipeline(language="javascript", training={"epochs": 2})
    pipeline.train(corpus_sources[:18])
    path = tmp_path_factory.mktemp("serving") / "model.json"
    pipeline.save(str(path))
    return str(path)


@pytest.fixture(scope="module")
def direct(model_path):
    """A privately loaded pipeline: the reference for bit-identity."""
    return Pipeline.load(model_path)


@pytest.fixture(scope="module")
def handle(model_path):
    """A privately loaded scoring handle: what the server answers with."""
    return Pipeline.load(model_path).scoring_handle()


@pytest.fixture(scope="module")
def live_server(model_path):
    host = ModelHost([model_path], workers=0)
    server = PredictionServer(
        host, port=0, batch_size=4, batch_wait_ms=2.0, cache_size=128
    )
    with ServerThread(server) as url:
        yield server, url


class TestScoringHandle:
    def test_requires_training(self):
        with pytest.raises(RuntimeError, match="trained"):
            Pipeline(language="javascript").scoring_handle()

    def test_read_only_predictions_are_bit_identical(self, model_path, direct):
        served = Pipeline.load(model_path)
        handle = served.scoring_handle()
        assert served.space.frozen
        assert handle.predict(NOVEL_JS) == direct.predict(NOVEL_JS)
        assert handle.suggest(NOVEL_JS, k=3) == direct.suggest(NOVEL_JS, k=3)

    def test_unseen_strings_never_grow_the_space(self, model_path):
        served = Pipeline.load(model_path)
        handle = served.scoring_handle()
        paths_before = len(served.space.paths)
        values_before = len(served.space.values)
        for _ in range(3):
            handle.predict(NOVEL_JS)
        assert len(served.space.paths) == paths_before
        assert len(served.space.values) == values_before

    def test_direct_mutation_is_fenced_off_after_freeze(self, model_path):
        served = Pipeline.load(model_path)
        served.scoring_handle()
        # The mutable predict path would intern the novel identifiers
        # into the now-frozen space: that is exactly what must not
        # happen behind a server's back.
        with pytest.raises(FrozenVocabError):
            served.predict(NOVEL_JS)

    def test_extraction_caches_stay_warm_across_requests(self, model_path, direct):
        # The shape/flip caches are split so entries resident in the
        # frozen base survive the per-request overlay rebinds; only
        # overlay-local entries are discarded.  Observable: the base
        # halves stay populated between requests and keep taking hits.
        served = Pipeline.load(model_path)
        handle = served.scoring_handle()
        extractor = served.representation.extractor

        handle.predict(NOVEL_JS)
        first = extractor.cache_stats()
        assert first["base_shape_entries"] > 0  # survived the request
        assert first["base_flip_entries"] > 0
        # Nothing request-local may outlive the request.
        assert first["shape_entries"] == 0
        assert first["flip_entries"] == 0

        assert handle.predict(NOVEL_JS) == direct.predict(NOVEL_JS)
        second = extractor.cache_stats()
        assert second["base_shape_hits"] > first["base_shape_hits"]
        assert second["base_flip_hits"] > first["base_flip_hits"]
        assert second["shape_entries"] == 0 and second["flip_entries"] == 0

    def test_fingerprint_is_layout_independent(self, model_path):
        handle = Pipeline.load(model_path).scoring_handle()
        compact = "var a = b + 1;"
        spaced = "var a   =  b +\n1;"
        assert handle.fingerprint(compact) == handle.fingerprint(spaced)
        assert handle.fingerprint(compact) != handle.fingerprint("var a = b + 2;")

    def test_digest_distinguishes_structure_where_fingerprint_cannot(self):
        # Same terminal sequence, different tree: the 32-bit downsampling
        # fingerprint collides (by design), so the serving cache must key
        # on the structural digest instead.
        from repro.core.extraction import ast_digest, ast_fingerprint
        from repro.lang.base import parse_source

        left = parse_source("javascript", "var x = a + b * c;")
        right = parse_source("javascript", "var x = (a + b) * c;")
        assert ast_fingerprint(left) == ast_fingerprint(right)
        assert ast_digest(left) != ast_digest(right)
        relaid = parse_source("javascript", "var x = a  +  b * c;")
        assert ast_digest(left) == ast_digest(relaid)


class TestModelHost:
    def test_routes_and_cells(self, model_path):
        host = ModelHost([model_path])
        assert host.cells() == ["javascript/variable_naming/ast-paths/crf"]
        handle = host.resolve(None, None)  # unambiguous: single model
        assert handle is host.resolve("javascript", "variable_naming")
        with pytest.raises(LookupError, match="no model serves"):
            host.resolve("javascript", "method_naming")

    def test_rejects_duplicate_cells(self, model_path):
        with pytest.raises(ValueError, match="once"):
            ModelHost([model_path, model_path])

    def test_needs_models(self):
        with pytest.raises(ValueError, match="at least one"):
            ModelHost([])

    def test_one_failing_item_does_not_poison_its_batch(self, model_path, direct):
        from repro.serving.host import PredictRequest

        host = ModelHost([model_path])
        good = PredictRequest(
            source="var ok = v + 1;", language="javascript", task="variable_naming"
        )
        bad = PredictRequest(  # routes to a cell this host does not serve
            source="var ok = v + 1;", language="javascript", task="method_naming"
        )

        async def run():
            return await host.score_batch([good, bad, good])

        results = asyncio.run(run())
        assert results[0]["predictions"] == direct.predict("var ok = v + 1;")
        assert "error" in results[1] and "no model serves" in results[1]["error"]
        assert results[2]["predictions"] == results[0]["predictions"]


class TestHealthAndStats:
    def test_healthz(self, live_server):
        _server, url = live_server
        with ServingClient(url) as client:
            health = client.healthz()
        assert health["status"] == "ok"
        assert health["models"] == ["javascript/variable_naming/ast-paths/crf"]
        assert health["uptime_seconds"] >= 0
        assert health["inflight"] >= 0
        assert health["queued"] >= 0

    def test_stats_shape(self, live_server):
        _server, url = live_server
        with ServingClient(url) as client:
            client.predict(NOVEL_JS)
            stats = client.stats()
        assert {"cache", "batcher", "extraction", "requests", "models"} <= set(stats)
        assert "hit_rate" in stats["cache"]
        cell = "javascript/variable_naming/ast-paths/crf"
        assert "asts" in stats["extraction"][cell]
        # Artifact observability: which format each model loaded from
        # and what the cold start cost (JSON decode vs binary mmap).
        assert stats["models"][cell]["format"] == "json"
        assert stats["models"][cell]["load_ms"] > 0
        # Load observability (what a fleet router merges and fits its
        # capacity model from): instantaneous depth plus per-endpoint
        # fixed-bucket latency histograms.
        assert stats["inflight"] == 1  # the /stats request itself
        assert stats["queue_depth"] == 0
        histogram = stats["latency"]["/predict"]
        assert histogram["count"] >= 1
        assert histogram["sum_ms"] > 0
        assert histogram["p95_ms"] > 0
        assert sum(histogram["counts"]) == histogram["count"]


class TestInferenceEngines:
    def test_scalar_and_compiled_hosts_are_bit_identical(self, model_path):
        """Serving parity: a served handle answers exactly what the scalar
        oracle computes on the same saved model."""
        handle = ModelHost([model_path]).resolve(None, None)
        reference = Pipeline.load(model_path)
        assert handle.predict(NOVEL_JS) == crf_scalar.pipeline_predict(
            reference, NOVEL_JS
        )
        assert handle.suggest(NOVEL_JS, k=3) == crf_scalar.pipeline_suggest(
            reference, NOVEL_JS, k=3
        )


class TestPredict:
    def test_matches_direct_pipeline(self, live_server, direct):
        _server, url = live_server
        with ServingClient(url) as client:
            response = client.predict(NOVEL_JS)
        assert response["predictions"] == direct.predict(NOVEL_JS)
        assert response["cell"] == "javascript/variable_naming/ast-paths/crf"

    def test_top_k_matches_direct_suggest(self, live_server, direct):
        _server, url = live_server
        with ServingClient(url) as client:
            response = client.predict(NOVEL_JS, top=3)
        want = {
            key: [[label, score] for label, score in ranked]
            for key, ranked in direct.suggest(NOVEL_JS, k=3).items()
        }
        assert response["suggestions"] == want

    def test_duplicate_requests_hit_the_cache(self, live_server):
        _server, url = live_server
        source = "var dupCacheProbe = other + 41;"
        with ServingClient(url) as client:
            first = client.predict(source)
            second = client.predict(source)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["predictions"] == first["predictions"]

    def test_layout_variants_share_a_cache_entry(self, live_server):
        _server, url = live_server
        with ServingClient(url) as client:
            first = client.predict("var layoutProbe = x + 2;")
            second = client.predict("var layoutProbe   =  x +\n2;")
        assert second["cached"] is True
        assert second["fingerprint"] == first["fingerprint"]

    def test_structurally_different_programs_do_not_share_cache(
        self, live_server, direct
    ):
        _server, url = live_server
        left = "var x = a + b * c;"
        right = "var x = (a + b) * c;"  # identical terminals, different tree
        with ServingClient(url) as client:
            first = client.predict(left)
            second = client.predict(right)
        assert second["cached"] is False
        assert first["fingerprint"] != second["fingerprint"]
        assert first["predictions"] == direct.predict(left)
        assert second["predictions"] == direct.predict(right)

    def test_cli_predict_server_infers_language_from_extension(
        self, live_server, tmp_path, capsys
    ):
        from repro.cli import main

        _server, url = live_server
        path = tmp_path / "app.js"
        path.write_text("var cliProbe = other + 3;")
        assert main(["predict", str(path), "--server", url]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cell"].startswith("javascript/")
        assert "predictions" in out

    def test_cache_hits_skip_extraction(self, live_server):
        server, url = live_server
        cell = "javascript/variable_naming/ast-paths/crf"
        source = "var extractionProbe = thing + 7;"
        with ServingClient(url) as client:
            before = client.stats()["extraction"][cell]["asts"]
            miss = client.predict(source)
            after_miss = client.stats()["extraction"][cell]["asts"]
            hit = client.predict(source)
            after_hit = client.stats()["extraction"][cell]["asts"]
        assert miss["cached"] is False and hit["cached"] is True
        assert after_miss == before + 1  # the miss extracted exactly once
        assert after_hit == after_miss  # the hit never reached extraction

    def test_concurrent_requests_are_bit_identical(self, live_server, direct):
        _server, url = live_server
        sources = [
            f"var concProbe{i} = base{i} + {i};\n" + NOVEL_JS for i in range(8)
        ]
        workload = sources * 2
        want = {source: direct.predict(source) for source in sources}

        def hit(source):
            with ServingClient(url) as client:
                return source, client.predict(source)["predictions"]

        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(hit, workload))
        assert len(results) == len(workload)
        for source, predictions in results:
            assert predictions == want[source]


class TestMalformedRequests:
    @pytest.fixture()
    def client(self, live_server):
        _server, url = live_server
        with ServingClient(url) as client:
            yield client

    def test_body_not_json(self, client):
        status, payload = client.request("POST", "/predict", b"this is not json")
        assert status == 400
        assert "JSON" in payload["error"]

    def test_body_not_an_object(self, client):
        status, payload = client.request("POST", "/predict", b'["array"]')
        assert status == 400
        assert "object" in payload["error"]

    def test_missing_source(self, client):
        status, payload = client.request("POST", "/predict", b"{}")
        assert status == 400
        assert "source" in payload["error"]

    def test_blank_source(self, client):
        body = json.dumps({"source": "   "}).encode()
        status, payload = client.request("POST", "/predict", body)
        assert status == 400

    def test_bad_top(self, client):
        body = json.dumps({"source": "var a;", "top": -1}).encode()
        status, payload = client.request("POST", "/predict", body)
        assert status == 400
        assert "top" in payload["error"]

    def test_unknown_fields_rejected(self, client):
        body = json.dumps({"source": "var a;", "mode": "yolo"}).encode()
        status, payload = client.request("POST", "/predict", body)
        assert status == 400
        assert "mode" in payload["error"]

    def test_unknown_task_is_404(self, client):
        body = json.dumps({"source": "var a;", "task": "poetry"}).encode()
        status, payload = client.request("POST", "/predict", body)
        assert status == 404
        assert "no model serves" in payload["error"]

    def test_unknown_language_is_404(self, client):
        body = json.dumps({"source": "var a;", "language": "cobol"}).encode()
        status, payload = client.request("POST", "/predict", body)
        assert status == 404

    def test_unparseable_source_is_400(self, client):
        body = json.dumps({"source": "var @@@ not javascript"}).encode()
        status, payload = client.request("POST", "/predict", body)
        assert status == 400
        assert "parse" in payload["error"]

    def test_wrong_method_is_405(self, client):
        status, _payload = client.request("GET", "/predict")
        assert status == 405
        status, _payload = client.request("POST", "/healthz")
        assert status == 405

    def test_unknown_path_is_404(self, client):
        status, payload = client.request("GET", "/nope")
        assert status == 404
        assert "/predict" in payload["error"]

    def test_client_raises_serving_error(self, live_server):
        _server, url = live_server
        with ServingClient(url) as client:
            with pytest.raises(ServingError) as caught:
                client.predict("var a;", task="poetry")
        assert caught.value.status == 404

    def test_oversized_body_is_413(self, live_server):
        from repro.serving.server import MAX_BODY_BYTES

        _server, url = live_server
        huge = json.dumps({"source": "x" * (MAX_BODY_BYTES + 10)}).encode()
        with ServingClient(url) as client:
            status, payload = client.request("POST", "/predict", huge)
        assert status == 413

    def test_oversized_header_line_is_413_not_a_crash(self, live_server):
        import socket

        server, url = live_server
        # One header line beyond the StreamReader limit used to raise an
        # unhandled ValueError in the connection handler.
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nX-Huge: " + b"a" * (80 * 1024) + b"\r\n\r\n"
            )
            status_line = sock.recv(4096).decode("latin-1").splitlines()[0]
        assert "413" in status_line
        with ServingClient(url) as client:  # the server survived
            assert client.healthz()["status"] == "ok"


@pytest.fixture()
def counted_parses(monkeypatch):
    """Count every parse a server makes: for its digest and for scoring."""
    from repro.api.pipeline import ScoringHandle

    counts = {"fingerprinted": 0, "parse": 0}
    fingerprinted = ScoringHandle.fingerprinted
    parse = Pipeline.parse

    def counting_fingerprinted(self, source):
        counts["fingerprinted"] += 1
        return fingerprinted(self, source)

    def counting_parse(self, source, name=""):
        counts["parse"] += 1
        return parse(self, source, name)

    monkeypatch.setattr(ScoringHandle, "fingerprinted", counting_fingerprinted)
    monkeypatch.setattr(Pipeline, "parse", counting_parse)
    return counts


@pytest.fixture()
def fresh_server(model_path):
    """Start a private server (so memo and cache counters start at zero)."""
    runners = []

    def start(cache_size=128):
        server = PredictionServer(
            ModelHost([model_path], workers=0), port=0, cache_size=cache_size
        )
        runner = ServerThread(server)
        runners.append(runner)
        return server, runner.__enter__()

    yield start
    for runner in runners:
        runner.__exit__(None, None, None)


class TestDigestMemo:
    """Byte-identical repeats are answered without parsing the source."""

    def test_identical_repeat_never_parses(
        self, fresh_server, counted_parses, handle
    ):
        server, url = fresh_server()
        source = "var memoProbe = other + 5;\n" + NOVEL_JS
        with ServingClient(url) as client:
            first = client.predict(source)
            counted_parses.update(fingerprinted=0, parse=0)
            second = client.predict(source)
        assert counted_parses == {"fingerprinted": 0, "parse": 0}
        assert first["cached"] is False and second["cached"] is True
        assert second["predictions"] == first["predictions"]
        assert second["predictions"] == handle.predict(source)

    def test_memo_hit_then_cache_miss_parses_once_for_scoring(
        self, fresh_server, counted_parses, handle
    ):
        _server, url = fresh_server()
        source = "var topProbe = base + 9;\n" + NOVEL_JS
        with ServingClient(url) as client:
            client.predict(source, top=0)
            counted_parses.update(fingerprinted=0, parse=0)
            response = client.predict(source, top=5)
        # The digest came from the memo; scoring parsed the source once.
        assert counted_parses == {"fingerprinted": 0, "parse": 1}
        assert response["cached"] is False
        assert response["suggestions"] == {
            key: [[label, score] for label, score in ranked]
            for key, ranked in handle.suggest(source, k=5).items()
        }

    def test_layout_variant_parses_once_and_hits_the_cache(
        self, fresh_server, counted_parses
    ):
        _server, url = fresh_server()
        with ServingClient(url) as client:
            first = client.predict("var variantProbe = x + 2;")
            counted_parses.update(fingerprinted=0, parse=0)
            second = client.predict("var variantProbe   =  x +\n2;")
        assert counted_parses == {"fingerprinted": 1, "parse": 1}
        assert second["cached"] is True
        assert second["fingerprint"] == first["fingerprint"]

    def test_unparseable_source_is_rejected_every_time(
        self, fresh_server, counted_parses
    ):
        server, url = fresh_server()
        body = json.dumps({"source": "var @@@ not javascript"}).encode()
        with ServingClient(url) as client:
            for _ in range(2):
                status, payload = client.request("POST", "/predict", body)
                assert status == 400
                assert "parse" in payload["error"]
        assert counted_parses["fingerprinted"] == 2  # no memo entry to hit
        assert len(server.digests) == 0

    def test_memo_evictions_are_counted_at_capacity(self, fresh_server):
        server, url = fresh_server(cache_size=2)
        with ServingClient(url) as client:
            for i in range(3):
                client.predict(f"var evictProbe{i} = v + {i};")
            digests = client.stats()["digests"]
        assert digests["capacity"] == 2
        assert digests["size"] == 2
        assert digests["evictions"] == 1

    def test_zero_cache_size_disables_memo_and_cache(
        self, fresh_server, counted_parses
    ):
        _server, url = fresh_server(cache_size=0)
        source = "var uncachedProbe = w + 3;"
        with ServingClient(url) as client:
            first = client.predict(source)
            second = client.predict(source)
            stats = client.stats()
        assert first["cached"] is False and second["cached"] is False
        assert counted_parses["fingerprinted"] == 2
        assert stats["digests"]["size"] == 0 and stats["cache"]["size"] == 0
        assert stats["digests"]["hits"] == 0 and stats["cache"]["hits"] == 0

    def test_repeat_counts_as_a_digest_hit_in_stats(self, fresh_server):
        _server, url = fresh_server()
        source = "var statsProbe = y + 4;"
        with ServingClient(url) as client:
            client.predict(source)
            before = client.stats()["digests"]
            client.predict(source)
            after = client.stats()["digests"]
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_unpaired_surrogate_is_a_positioned_400(self, fresh_server):
        server, url = fresh_server()
        body = json.dumps({"source": 'var a = 1;\nvar b = "\ud800";'}).encode()
        assert b"\\ud800" in body  # JSON spells the lone surrogate
        with ServingClient(url) as client:
            status, payload = client.request("POST", "/predict", body)
        assert status == 400
        assert (payload["line"], payload["column"]) == (2, 10)
        assert "surrogate" in payload["error"]
        assert server.digests.stats()["misses"] == 0  # rejected before the memo


class TestGracefulShutdown:
    def test_drain_answers_everything_queued(self, model_path, direct):
        host = ModelHost([model_path], workers=0)
        # A wide-open batch window, so requests pile up in the queue and
        # shutdown begins while they are still waiting.
        server = PredictionServer(host, port=0, batch_size=64, batch_wait_ms=400.0)
        runner = ServerThread(server)
        url = runner.__enter__()
        sources = [f"var drainProbe{i} = v{i} + {i};" for i in range(6)]
        results, errors = {}, []

        def hit(source):
            try:
                with ServingClient(url) as client:
                    results[source] = client.predict(source)["predictions"]
            except Exception as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        threads = [threading.Thread(target=hit, args=(s,)) for s in sources]
        for thread in threads:
            thread.start()
        time.sleep(0.15)  # everyone is parked in the 400ms batch window
        runner.__exit__(None, None, None)  # graceful drain
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert set(results) == set(sources)
        for source in sources:
            assert results[source] == direct.predict(source)
        assert server.batcher.items >= len(sources)


class TestMicroBatcher:
    def test_batches_respect_size_and_return_in_order(self):
        async def run():
            calls = []

            async def handler(items):
                calls.append(list(items))
                return [item * 2 for item in items]

            batcher = MicroBatcher(handler, batch_size=3, batch_wait_ms=50)
            results = await asyncio.gather(*(batcher.submit(i) for i in range(7)))
            await batcher.close()
            return calls, results

        calls, results = asyncio.run(run())
        assert results == [i * 2 for i in range(7)]
        assert sum(len(call) for call in calls) == 7
        assert max(len(call) for call in calls) <= 3

    def test_single_item_flushes_after_wait(self):
        async def run():
            async def handler(items):
                return [item + 1 for item in items]

            batcher = MicroBatcher(handler, batch_size=1000, batch_wait_ms=5)
            started = asyncio.get_running_loop().time()
            result = await batcher.submit(41)
            elapsed = asyncio.get_running_loop().time() - started
            await batcher.close()
            return result, elapsed

        result, elapsed = asyncio.run(run())
        assert result == 42
        assert elapsed < 5.0  # the wait bound flushed a lonely item

    def test_handler_error_reaches_every_submitter(self):
        async def run():
            async def handler(items):
                raise ValueError("boom")

            batcher = MicroBatcher(handler, batch_size=4, batch_wait_ms=5)
            results = await asyncio.gather(
                *(batcher.submit(i) for i in range(3)), return_exceptions=True
            )
            await batcher.close()
            return results

        results = asyncio.run(run())
        assert len(results) == 3
        assert all(isinstance(r, ValueError) for r in results)

    def test_result_count_mismatch_is_an_error(self):
        async def run():
            async def handler(items):
                return [1]  # wrong arity

            batcher = MicroBatcher(handler, batch_size=2, batch_wait_ms=1)
            results = await asyncio.gather(
                *(batcher.submit(i) for i in range(2)), return_exceptions=True
            )
            await batcher.close()
            return results

        results = asyncio.run(run())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_submit_after_close_is_refused(self):
        async def run():
            async def handler(items):
                return items

            batcher = MicroBatcher(handler)
            batcher.start()
            await batcher.close()
            with pytest.raises(BatcherClosed):
                await batcher.submit(1)

        asyncio.run(run())

    def test_close_drains_queued_items(self):
        async def run():
            async def handler(items):
                await asyncio.sleep(0.01)
                return [item * 10 for item in items]

            batcher = MicroBatcher(handler, batch_size=2, batch_wait_ms=200)
            tasks = [asyncio.create_task(batcher.submit(i)) for i in range(5)]
            await asyncio.sleep(0.05)  # let them enqueue into the open window
            await batcher.close()
            return await asyncio.gather(*tasks)

        assert asyncio.run(run()) == [0, 10, 20, 30, 40]


class TestLruCache:
    def test_hit_miss_and_eviction(self):
        cache = LruCache(2)
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b" (least recently used)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["hits"] == 3 and stats["misses"] == 2
        assert 0 < stats["hit_rate"] < 1

    def test_zero_capacity_disables_caching(self):
        cache = LruCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0


class TestClientRetry:
    """The connection-refused retry that hides rolling restarts."""

    def _free_port(self):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            return probe.getsockname()[1]

    def test_no_retries_surfaces_connection_refused(self):
        port = self._free_port()
        client = ServingClient(f"http://127.0.0.1:{port}", retries=0)
        with pytest.raises(ConnectionRefusedError):
            client.healthz()

    def test_retry_bridges_a_late_binding_server(self, model_path):
        # Nothing listens when the first attempt knocks; the server
        # binds during the backoff window and the retry succeeds --
        # exactly the gap a replica leaves between drain and restart.
        port = self._free_port()
        host = ModelHost([model_path], workers=0)
        server = PredictionServer(host, port=port)

        def bind_late():
            time.sleep(0.15)
            with ServerThread(server):
                done.wait(timeout=30)

        done = threading.Event()
        opener = threading.Thread(target=bind_late)
        opener.start()
        try:
            client = ServingClient(
                f"http://127.0.0.1:{port}", retries=4, retry_backoff_s=0.1
            )
            assert client.healthz()["status"] == "ok"
        finally:
            done.set()
            opener.join(timeout=30)
