"""Table 4: qualitative study.

(4a) Top-k candidates for the variable ``d`` of Fig. 1a, using the CRF's
top-k suggestion API: the paper's list is done, ended, complete, found,
finished, stop, end, success -- all semantically similar.

(4b) Semantic similarity clusters from word2vec embeddings, e.g.
``count ~ counter ~ total`` and ``i ~ j ~ index``.
"""

from conftest import BENCH_TRAINING, emit
from repro.core.extraction import ExtractionConfig, PathExtractor
from repro.eval.reports import format_table
from repro.learning.crf import CrfTrainer
from repro.learning.crf.inference import map_inference, topk_for_node
from repro.learning.word2vec import SgnsConfig, train_sgns
from repro.lang.base import parse_source
from repro.tasks.variable_naming import build_crf_graph, extract_w2v_pairs

FIG1 = """
function run() {
  var d = false;
  while (!d) {
    if (someCondition()) {
      d = true;
    }
  }
}
"""

PROBES = ("count", "done", "items", "i", "sum", "request")


def run_all(js_data):
    extractor = PathExtractor(ExtractionConfig(max_length=7, max_width=3))

    # (4a) CRF top-k for the d of Fig. 1a.
    graphs = [build_crf_graph(ast, extractor, f.path) for f, ast in js_data.train]
    model, _stats = CrfTrainer(BENCH_TRAINING).train(graphs)
    compiled = model.compile()
    query = build_crf_graph(parse_source("javascript", FIG1), extractor)
    assignment = map_inference(compiled, query)
    index = next(i for i, node in enumerate(query.unknowns) if node.gold == "d")
    ranked = topk_for_node(compiled, query, index, k=8, assignment=assignment)
    rows_a = [(str(i + 1), name, f"{score:.2f}") for i, (name, score) in enumerate(ranked)]
    table_a = format_table(
        "Table 4a: top-k candidates for `d` in Fig. 1a "
        "(paper: done, ended, complete, found, finished, stop, end, success)",
        rows_a,
        ("Rank", "Candidate", "Score"),
    )

    # (4b) Embedding-similarity clusters.
    pairs = []
    for _file, ast in js_data.train:
        pairs.extend(extract_w2v_pairs(ast, extractor))
    w2v, _ = train_sgns(pairs, SgnsConfig(dim=64))
    rows_b = []
    for probe in PROBES:
        neighbors = w2v.most_similar(probe, k=4)
        cluster = " ~ ".join([probe] + [name for name, _sim in neighbors])
        rows_b.append((cluster,))
    table_b = format_table(
        "Table 4b: semantic similarities between names",
        rows_b,
        ("Cluster",),
    )
    return table_a + "\n\n" + table_b


def test_table4_similarity(benchmark, js_data):
    table = benchmark.pedantic(run_all, args=(js_data,), rounds=1, iterations=1)
    emit("table4_similarity", table)
    assert "Table 4a" in table and "Table 4b" in table
