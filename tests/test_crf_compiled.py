"""Oracle suite: the compiled CRF engine against the scalar oracle.

The contract under test is *bit-identity*: for every graph, the
vectorised :class:`~repro.learning.crf.compiled.CompiledCrfModel` must
reproduce the scalar oracle's (``oracles/crf_scalar.py``) MAP
assignments, top-k suggestion scores, loss-augmented margin violators,
tie-break order, and fallbacks exactly -- float-equal, not
approximately.  Covered here:

* real models across all four language frontends and every task
  (variable naming, method naming, Java type prediction);
* loss-augmented inference (the trainer's inner loop) and full trainer
  parity (the trainer, which always scores on the compiled engine,
  trains the same weights as when its inference is swapped for the
  oracle, including weight decay and averaging);
* edge cases: empty candidate beams, labels outside the trained vocab,
  count-and-score ties, write-through after compile, stale packs.
"""

import random

import numpy as np
import pytest

from repro.api import Pipeline
from repro.corpus import deduplicate, generate_corpus
from repro.corpus.generator import CorpusConfig
from repro.core.interning import FeatureSpace
from repro.learning.crf import (
    CompiledCrfModel,
    CrfGraph,
    CrfModel,
    CrfTrainer,
    TrainingConfig,
    map_inference,
    topk_for_node,
)
from repro.learning.crf.inference import UNKNOWN_LABEL, _best_id

from oracles import crf_scalar

#: One cell per language, both graph tasks, plus the Java-only task.
CELLS = [
    ("javascript", "variable_naming"),
    ("python", "variable_naming"),
    ("java", "method_naming"),
    ("csharp", "method_naming"),
    ("java", "type_prediction"),
]


def _sources(language, n_projects=4, seed=11):
    files = generate_corpus(
        CorpusConfig(
            language=language,
            n_projects=n_projects,
            files_per_project=(3, 5),
            seed=seed,
        )
    )
    kept, _ = deduplicate(files)
    return [f.source for f in kept]


@pytest.fixture(scope="module", params=CELLS, ids=lambda cell: "-".join(cell))
def trained_cell(request):
    language, task = request.param
    sources = _sources(language)
    assert len(sources) >= 12, "corpus generator produced too few files"
    pipeline = Pipeline(language=language, task=task, training={"epochs": 2})
    pipeline.train(sources[:9])
    model = pipeline.learner.model
    graphs = [
        pipeline.view(pipeline.parse(source, name=f"held:{i}"))
        for i, source in enumerate(sources[9:12])
    ]
    graphs = [graph for graph in graphs if len(graph)]
    assert graphs, "held-out sources produced no unknown nodes"
    return pipeline, model, model.compile(), graphs


class TestRealModels:
    def test_map_inference_bit_identical(self, trained_cell):
        _, model, compiled, graphs = trained_cell
        for graph in graphs:
            assert map_inference(compiled, graph) == crf_scalar.map_inference(
                model, graph
            )

    def test_loss_augmented_bit_identical(self, trained_cell):
        _, model, compiled, graphs = trained_cell
        for graph in graphs:
            gold = graph.gold_assignment()
            scalar = crf_scalar.map_inference(
                model, graph, loss_augmented=True, gold=gold
            )
            vector = map_inference(compiled, graph, loss_augmented=True, gold=gold)
            assert vector == scalar

    def test_topk_scores_bit_identical(self, trained_cell):
        _, model, compiled, graphs = trained_cell
        for graph in graphs:
            assignment = crf_scalar.map_inference(model, graph)
            for index in range(len(graph)):
                scalar = crf_scalar.topk_for_node(
                    model, graph, index, k=5, assignment=assignment
                )
                vector = topk_for_node(
                    compiled, graph, index, k=5, assignment=assignment
                )
                assert vector == scalar  # labels AND float scores, exactly

    def test_engine_flag_same_predictions(self, trained_cell):
        """The learner's predictions and suggestions equal the oracle's."""
        pipeline, model, _, graphs = trained_cell
        learner = pipeline.learner
        scalar = [crf_scalar.learner_predict(model, graph) for graph in graphs]
        scalar_topk = [
            crf_scalar.learner_suggest(model, graph, k=3) for graph in graphs
        ]
        compiled = [learner.predict(graph) for graph in graphs]
        compiled_topk = [learner.suggest(graph, k=3) for graph in graphs]
        assert compiled == scalar
        assert compiled_topk == scalar_topk


# ----------------------------------------------------------------------
# Synthetic graphs: randomized parity + targeted edge cases
# ----------------------------------------------------------------------
LABELS = [f"lbl{i}" for i in range(24)]
RELS = [f"rel{i}" for i in range(10)]


def _random_graph(space, n_nodes=30, seed=3):
    rng = random.Random(seed)
    graph = CrfGraph(f"g{seed}", space=space)
    for i in range(n_nodes):
        graph.add_unknown(f"k{i}", gold=rng.choice(LABELS))
    for i in range(n_nodes):
        for _ in range(rng.randint(0, 3)):
            graph.add_known_factor(i, rng.choice(RELS), rng.choice(LABELS))
        for _ in range(rng.randint(0, 2)):
            j = rng.randrange(n_nodes)
            if j != i:
                graph.add_unknown_factor(i, j, rng.choice(RELS), rng.choice(RELS))
        for _ in range(rng.randint(0, 2)):
            graph.add_unary_factor(i, rng.choice(RELS))
    return graph


def _random_model(space, seed=7, use_unary=True):
    rng = random.Random(seed)
    model = CrfModel(space=space, use_unary=use_unary)
    for graph in [_random_graph(space, seed=s) for s in range(4)]:
        for node in graph.unknowns:
            model.observe_training_node(node, graph)
    n_values, n_paths = len(space.values), len(space.paths)
    for _ in range(600):
        key = (
            rng.randrange(n_values),
            rng.randrange(n_paths),
            rng.randrange(n_values),
        )
        model.pair_weights[key] = rng.uniform(-2.0, 2.0)
    for _ in range(150):
        model.unary_weights[(rng.randrange(n_values), rng.randrange(n_paths))] = (
            rng.uniform(-2.0, 2.0)
        )
    return model


class TestSyntheticParity:
    @pytest.mark.parametrize("use_unary", [True, False])
    def test_randomized_graphs(self, use_unary):
        space = FeatureSpace()
        model = _random_model(space, use_unary=use_unary)
        compiled = model.compile()
        for seed in range(20, 30):
            graph = _random_graph(space, seed=seed)
            assert map_inference(compiled, graph) == crf_scalar.map_inference(
                model, graph
            )
            gold = graph.gold_assignment()
            assert map_inference(
                compiled, graph, loss_augmented=True, gold=gold
            ) == crf_scalar.map_inference(
                model, graph, loss_augmented=True, gold=gold
            )

    def test_unseen_gold_labels_in_loss_augmented(self):
        space = FeatureSpace()
        model = _random_model(space)
        compiled = model.compile()
        graph = _random_graph(space, seed=41)
        # Gold labels the model has never interned, plus the "?" sentinel:
        # the +1 margin must apply identically in engine and oracle.
        gold = ["never-seen-label"] * (len(graph) - 1) + [UNKNOWN_LABEL]
        assert map_inference(
            compiled, graph, loss_augmented=True, gold=gold
        ) == crf_scalar.map_inference(model, graph, loss_augmented=True, gold=gold)

    def test_unseen_assignment_labels_in_topk(self):
        space = FeatureSpace()
        model = _random_model(space)
        compiled = model.compile()
        graph = _random_graph(space, seed=42)
        # Fix the rest of the graph to strings outside the vocab (what an
        # overlay-interned serving request looks like to the base model).
        assignment = [f"request-local-{i}" for i in range(len(graph))]
        for index in (0, 1, len(graph) - 1):
            assert topk_for_node(
                compiled, graph, index, k=6, assignment=assignment
            ) == crf_scalar.topk_for_node(
                model, graph, index, k=6, assignment=assignment
            )


class TestEdgeCases:
    def test_empty_beam_falls_back_to_unknown_not_stale(self):
        """Satellite fix: no candidates -> the explicit "?" fallback.

        The old scalar code initialised ``best_label`` from
        ``assignment[index]``, which *looked* like a stale-value fallback;
        the engine and the oracle now share one explicit rule.
        """
        graph = CrfGraph()
        graph.add_unknown("a", gold="x")
        model = CrfModel(space=graph.space)  # no candidate index at all
        stale = ["something-stale"]
        assert (
            crf_scalar._best_label(model, graph, 0, [], stale, False, None)
            == UNKNOWN_LABEL
        )
        compiled = model.compile()
        cg = compiled.compile_graph(graph)
        assignment = np.array([-1], dtype=np.int64)
        assert _best_id(compiled, cg, 0, [], assignment, False, None, -1) == -1
        # End to end: an untrained-index model predicts "?" everywhere.
        assert crf_scalar.map_inference(model, graph) == [UNKNOWN_LABEL]
        assert map_inference(compiled, graph) == [UNKNOWN_LABEL]

    def test_tie_break_prefers_first_candidate(self):
        """Equal counts and equal (0.0) scores: the label-string order of
        the candidate ranking decides, identically in engine and oracle."""
        graph = CrfGraph()
        a = graph.add_unknown("a", gold="aaa")
        graph.add_known_factor(a, "rel", "ctx")
        model = CrfModel(space=graph.space)
        rel = model.rel_id("rel")
        ctx = model.label_id("ctx")
        for label in ("bbb", "aaa"):  # insertion order != string order
            model.candidate_index[(rel, ctx)][model.label_id(label)] = 3
            model.label_counts[model.label_id(label)] = 3
        assert crf_scalar.candidates_for(model, graph.unknowns[0], ["?"]) == [
            "aaa",
            "bbb",
        ]
        compiled = model.compile()
        assert crf_scalar.map_inference(model, graph) == ["aaa"]
        assert map_inference(compiled, graph) == ["aaa"]

    def test_write_through_and_overflow(self):
        """set_pair/set_unary keep the pack bit-identical to the dicts,
        through in-place updates, overflow keys, and the repack."""
        space = FeatureSpace()
        model = _random_model(space)
        compiled = model.compile()
        rng = random.Random(5)
        n_values, n_paths = len(space.values), len(space.paths)
        for step in range(600):  # well past the repack threshold
            key = (
                rng.randrange(n_values),
                rng.randrange(n_paths),
                rng.randrange(n_values),
            )
            model.pair_weights[key] = rng.uniform(-1.0, 1.0)
            compiled.set_pair(key, model.pair_weights[key])
            ukey = (rng.randrange(n_values), rng.randrange(n_paths))
            model.unary_weights[ukey] = rng.uniform(-1.0, 1.0)
            compiled.set_unary(ukey, model.unary_weights[ukey])
            if step % 150 == 0:
                graph = _random_graph(space, seed=step)
                assert map_inference(compiled, graph) == crf_scalar.map_inference(
                    model, graph
                )
        graph = _random_graph(space, seed=999)
        assert map_inference(compiled, graph) == crf_scalar.map_inference(
            model, graph
        )

    def test_invalidate_repacks_after_bulk_mutation(self):
        space = FeatureSpace()
        model = _random_model(space)
        compiled = model.compile()
        model.l2_decay(0.5)
        compiled.invalidate()
        graph = _random_graph(space, seed=77)
        assert map_inference(compiled, graph) == crf_scalar.map_inference(
            model, graph
        )

    def test_stale_compiled_graph_raises(self):
        space = FeatureSpace()
        model = _random_model(space)
        compiled = model.compile()
        graph = _random_graph(space, seed=50)
        cg = compiled.compile_graph(graph)
        compiled.invalidate()
        fresh = compiled.compile_graph(graph)  # triggers the repack
        assert fresh.pack_version != cg.pack_version
        with pytest.raises(RuntimeError, match="repacked"):
            compiled.score_candidates(
                cg, 0, np.array([0], dtype=np.int64),
                np.zeros(len(graph), dtype=np.int64),
            )

    def test_columnar_view_caches_and_invalidates(self):
        space = FeatureSpace()
        graph = _random_graph(space, seed=60)
        first = graph.columnar()
        assert graph.columnar() is first  # cached
        assert first.n_nodes == len(graph)
        assert len(first.known_rel) == sum(len(n.known) for n in graph.unknowns)
        graph.add_unary_factor(0, "another-rel")
        second = graph.columnar()
        assert second is not first  # mutation invalidated the cache
        assert len(second.unary_rel) == len(first.unary_rel) + 1


class TestTrainerParity:
    @pytest.mark.parametrize(
        "decay,average", [(1.0, True), (0.9, True), (1.0, False)]
    )
    def test_compiled_training_bit_identical(self, monkeypatch, decay, average):
        def train():
            space = FeatureSpace()
            graphs = [_random_graph(space, n_nodes=20, seed=s) for s in range(8)]
            config = TrainingConfig(epochs=3, weight_decay=decay, average=average)
            model, stats = CrfTrainer(config).train(graphs)
            return model, stats

        compiled_model, compiled_stats = train()
        # The trainer hands its write-through pack to map_inference; the
        # oracle scores the dict model behind it, which the trainer keeps
        # current on every update.
        monkeypatch.setattr(
            "repro.learning.crf.training.map_inference",
            lambda compiled, graph, **kwargs: crf_scalar.map_inference(
                compiled.model, graph, **kwargs
            ),
        )
        scalar_model, scalar_stats = train()
        assert dict(compiled_model.pair_weights) == dict(scalar_model.pair_weights)
        assert dict(compiled_model.unary_weights) == dict(scalar_model.unary_weights)
        assert compiled_stats.updates == scalar_stats.updates


class TestCompiledModelShape:
    def test_pack_is_sorted_and_parallel(self):
        space = FeatureSpace()
        model = _random_model(space)
        compiled = model.compile()
        keys = compiled._keys
        assert keys.dtype == np.int64
        assert compiled._weights.dtype == np.float64
        assert len(keys) == len(compiled._weights)
        assert len(keys) == model.num_parameters()
        assert np.all(np.diff(keys) > 0)  # strictly sorted, unique

    def test_label_base_masks_out_of_vocab_candidates(self):
        space = FeatureSpace()
        model = _random_model(space)
        compiled = model.compile()
        graph = _random_graph(space, seed=30)
        cg = compiled.compile_graph(graph)
        assignment = np.zeros(len(graph), dtype=np.int64)
        beyond = compiled.label_base + 5  # an overlay-interned id
        scores = compiled.score_candidates(
            cg, 0, np.array([-1, beyond], dtype=np.int64), assignment
        )
        assert scores.tolist() == [0.0, 0.0]
