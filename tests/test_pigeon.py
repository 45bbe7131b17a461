"""Unit tests for PIGEON's train/predict facade (:class:`repro.Pipeline`)."""

import pytest

from repro import Pipeline


TRAIN_JS = [
    """
function wait() {
  var done = false;
  while (!done) {
    if (someCondition()) {
      done = true;
    }
  }
}
""",
    """
function poll() {
  var done = false;
  while (!done) {
    if (checkState()) {
      done = true;
    }
  }
}
""",
    """
function count(values, value) {
  var count = 0;
  for (var v of values) {
    if (v == value) { count++; }
  }
  return count;
}
""",
] * 4 + [
    """
function spin() {
  var done = false;
  while (!done) {
    if (isReady()) {
      done = true;
    }
  }
}
"""
] * 4

TEST_JS = """
function run() {
  var d = false;
  while (!d) {
    if (someCondition()) {
      d = true;
    }
  }
}
"""


class TestConstruction:
    def test_rejects_unknown_language(self):
        with pytest.raises(ValueError):
            Pipeline(language="cobol")

    def test_rejects_unknown_task(self):
        with pytest.raises(ValueError):
            Pipeline(language="javascript", task="poetry")

    def test_rejects_unknown_learner(self):
        with pytest.raises(ValueError):
            Pipeline(language="javascript", learner="gbdt")

    def test_w2v_only_for_variable_naming(self):
        with pytest.raises(ValueError):
            Pipeline(
                language="javascript", task="method_naming", learner="word2vec"
            )

    def test_types_only_for_java(self):
        with pytest.raises(ValueError):
            Pipeline(language="python", task="type_prediction")
        Pipeline(language="java", task="type_prediction")  # ok

    def test_default_parameters_follow_table2(self):
        pipeline = Pipeline(language="javascript", task="variable_naming")
        assert pipeline.representation.extractor.config.max_length == 7
        assert pipeline.representation.extractor.config.max_width == 3
        java = Pipeline(language="java", task="type_prediction")
        assert java.representation.extractor.config.max_length == 4
        assert java.representation.extractor.config.max_width == 1

    def test_explicit_parameters_override(self):
        pipeline = Pipeline(
            language="javascript", extraction={"max_length": 9, "max_width": 5}
        )
        assert pipeline.representation.extractor.config.max_length == 9
        assert pipeline.representation.extractor.config.max_width == 5


class TestCrfFlow:
    def test_predict_before_train_raises(self):
        with pytest.raises(RuntimeError):
            Pipeline(language="javascript").predict(TEST_JS)

    def test_train_predict_roundtrip(self):
        pipeline = Pipeline(language="javascript", training={"epochs": 3})
        stats = pipeline.train(TRAIN_JS)
        assert stats.files_trained == len(TRAIN_JS)
        assert stats.elements_trained > 0
        predictions = pipeline.predict(TEST_JS)
        assert len(predictions) == 1
        assert list(predictions.values())[0] == "done"

    def test_suggest_topk(self):
        pipeline = Pipeline(language="javascript", training={"epochs": 3})
        pipeline.train(TRAIN_JS)
        suggestions = pipeline.suggest(TEST_JS, k=3)
        ranked = list(suggestions.values())[0]
        assert len(ranked) <= 3
        assert ranked[0][0] == "done"
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)


class TestW2vFlow:
    # SGNS's shifted-PMI objective (PMI - log k) drives even true pairs
    # negative when the context vocabulary is tiny, so the miniature
    # corpora of unit tests use a single negative sample.
    _SGNS = dict(dim=16, epochs=12, negatives=1)

    def test_train_predict(self):
        pipeline = Pipeline(
            language="javascript", learner="word2vec", sgns=self._SGNS
        )
        pipeline.train(TRAIN_JS)
        predictions = pipeline.predict(TEST_JS)
        assert predictions
        assert list(predictions.values())[0] == "done"

    def test_suggest(self):
        pipeline = Pipeline(
            language="javascript", learner="word2vec", sgns=self._SGNS
        )
        pipeline.train(TRAIN_JS)
        suggestions = pipeline.suggest(TEST_JS, k=2)
        assert all(len(ranked) <= 2 for ranked in suggestions.values())


class TestMethodNaming:
    def test_java_method_flow(self):
        train = [
            (
                "public class T%d { public int count(java.util.List<Integer> xs, int t) {"
                " int c = 0; for (int r : xs) { if (r == t) { c++; } } return c; } }"
            )
            % i
            for i in range(6)
        ]
        pipeline = Pipeline(
            language="java", task="method_naming", training={"epochs": 3}
        )
        pipeline.train(train)
        predictions = pipeline.predict(train[0])
        assert list(predictions.values()) == ["count"]
