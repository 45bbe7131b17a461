"""Integration tests for the experiment harness and reports."""

import pytest

from repro.corpus.generator import CorpusConfig
from repro.eval import harness
from repro.eval.harness import (
    ExperimentResult,
    abstraction_sweep,
    downsampling_sweep,
    evaluate_crf,
    evaluate_prediction_map,
    evaluate_w2v,
    grid_search,
    path_context_provider,
    path_graph_builder,
    prepare_language_data,
)
from repro.eval.reports import (
    format_grid,
    format_series,
    format_table,
    format_table2,
)
from repro.eval.metrics import AccuracyCounter
from repro.learning.crf import CompiledCrfModel, TrainingConfig
from repro.learning.word2vec import SgnsConfig

from oracles import crf_scalar


TINY = CorpusConfig(n_projects=4, files_per_project=(3, 5), seed=31)
FAST_TRAIN = TrainingConfig(epochs=2)


@pytest.fixture(scope="module")
def js_data():
    return prepare_language_data("javascript", TINY)


class TestPrepare:
    def test_splits_and_asts(self, js_data):
        train, val, test = js_data.split.sizes()
        assert train > 0 and test > 0
        assert set(js_data.asts) == {
            f.path for f in js_data.split.train + js_data.split.validation + js_data.split.test
        }

    def test_language_override(self):
        data = prepare_language_data("python", CorpusConfig(language="javascript", n_projects=2, seed=1))
        assert data.language == "python"


class TestEvaluateCrf:
    def test_result_fields(self, js_data):
        result = evaluate_crf(
            js_data, path_graph_builder(5, 2), training_config=FAST_TRAIN, name="t"
        )
        assert isinstance(result, ExperimentResult)
        assert result.n > 0
        assert 0.0 <= result.accuracy <= 100.0
        assert result.train_seconds > 0
        assert result.parameters > 0
        assert "t:" in result.summary()

    def test_eval_on_validation(self, js_data):
        result = evaluate_crf(
            js_data,
            path_graph_builder(5, 2),
            training_config=FAST_TRAIN,
            eval_files=js_data.split.validation,
        )
        assert result.n == sum(
            len(path_graph_builder(5, 2)(f, a)) for f, a in js_data.validation
        )

    def test_with_f1(self, js_data):
        result = evaluate_crf(
            js_data, path_graph_builder(5, 2), training_config=FAST_TRAIN, with_f1=True
        )
        assert 0.0 <= result.f1 <= 100.0

    def test_assignments_match_scalar_oracle(self, js_data, monkeypatch):
        """Table cells are scored by the shipped (compiled) engine, and
        every assignment equals the scalar oracle's on the trained model."""
        real = harness.map_inference
        calls = []

        def recording(compiled, graph, **kwargs):
            assignment = real(compiled, graph, **kwargs)
            calls.append((compiled, graph, assignment))
            return assignment

        monkeypatch.setattr(harness, "map_inference", recording)
        result = evaluate_crf(
            js_data, path_graph_builder(5, 2), training_config=FAST_TRAIN
        )
        assert calls
        oracle_accuracy = AccuracyCounter()
        for compiled, graph, assignment in calls:
            assert isinstance(compiled, CompiledCrfModel)
            oracle = crf_scalar.map_inference(compiled.model, graph)
            assert assignment == oracle
            for i, node in enumerate(graph.unknowns):
                oracle_accuracy.add(oracle[i], node.gold)
        assert result.n == oracle_accuracy.total
        assert result.accuracy == oracle_accuracy.as_percent()


class TestEvaluateW2v:
    def test_result(self, js_data):
        result = evaluate_w2v(
            js_data,
            path_context_provider(5, 2),
            SgnsConfig(dim=16, epochs=3),
            name="w2v",
        )
        assert result.n > 0
        assert result.extra["pairs"] > 0


class TestSweeps:
    def test_grid_search_shape(self, js_data):
        results = grid_search(
            js_data, lengths=(3, 5), widths=(1, 2), training_config=FAST_TRAIN
        )
        assert len(results) == 4
        combos = {
            (r.extra["max_length"], r.extra["max_width"]) for r in results
        }
        assert combos == {(3.0, 1.0), (3.0, 2.0), (5.0, 1.0), (5.0, 2.0)}

    def test_downsampling_sweep(self, js_data):
        results = downsampling_sweep(
            js_data, keep_probabilities=(0.5, 1.0), training_config=FAST_TRAIN
        )
        assert [r.extra["keep_probability"] for r in results] == [0.5, 1.0]

    def test_abstraction_sweep(self, js_data):
        results = abstraction_sweep(
            js_data, abstractions=("no-path", "full"), training_config=FAST_TRAIN
        )
        assert [r.name for r in results] == ["no-path", "full"]


class TestPredictionMap:
    def test_constant_predictor(self, js_data):
        from repro.tasks.variable_naming import element_groups

        def gold_map(ast):
            return {b: occ[0].value or "" for b, occ in element_groups(ast).items()}

        def predictor(file, ast):
            return {key: "done" for key in gold_map(ast)}

        result = evaluate_prediction_map(js_data, predictor, gold_map, "const")
        assert 0.0 <= result.accuracy < 100.0


class TestReports:
    def test_format_table_alignment(self):
        text = format_table("T", [("a", "1"), ("bbbb", "22")], ("col", "n"))
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "col" in lines[2]

    def test_format_table2(self, js_data):
        result = evaluate_crf(
            js_data, path_graph_builder(4, 2), training_config=FAST_TRAIN
        )
        text = format_table2([("Variable names", [("AST paths", result)])])
        assert "Variable names" in text
        assert "%" in text

    def test_format_series_and_grid(self, js_data):
        results = grid_search(
            js_data, lengths=(3, 4), widths=(1,), training_config=FAST_TRAIN
        )
        series = format_series("S", results, "max_length", "len")
        assert "len" in series
        grid = format_grid("G", results)
        assert "max_width" in grid
