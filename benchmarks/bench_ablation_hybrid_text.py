"""Ablation: combining weighted SimRank with text similarity (paper Section 11).

Sweeps the interpolation weight alpha and reports coverage and editorial
precision of the top-5 rewrites, quantifying how much the lexical component
adds on top of the click graph.
"""

from repro.core.config import SimrankConfig
from repro.core.hybrid import HybridSimilarity
from repro.api.registry import create
from repro.core.rewriter import QueryRewriter
from repro.eval.editorial import EditorialJudge
from repro.eval.reporting import format_table


def _evaluate(workload, graph, queries, method):
    rewriter = QueryRewriter(
        method, bid_terms={str(term) for term in workload.bid_terms}
    ).fit(graph)
    judge = EditorialJudge(workload)
    covered = 0
    relevant = 0
    total = 0
    for query in queries:
        rewrites = rewriter.compute_rewrites(query)
        covered += bool(rewrites.covered)
        for rewrite in rewrites.rewrites:
            total += 1
            relevant += judge.grade(query, rewrite.rewrite) <= 2
    return 100.0 * covered / len(queries), (relevant / total if total else 0.0)


def test_ablation_hybrid_text(benchmark, small_workload, harness_result):
    graph = harness_result.dataset
    queries = harness_result.evaluation_queries[:60]
    config = SimrankConfig(iterations=7, zero_evidence_floor=0.1)

    def run():
        rows = []
        for alpha in (1.0, 0.8, 0.6, 0.4, 0.0):
            method = HybridSimilarity(
                create("weighted_simrank", config=config), alpha=alpha
            )
            coverage, precision = _evaluate(small_workload, graph, queries, method)
            rows.append(
                {
                    "alpha (graph weight)": alpha,
                    "coverage (%)": round(coverage, 1),
                    "precision of top-5": round(precision, 3),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Ablation: weighted SimRank + text similarity hybrid"))
