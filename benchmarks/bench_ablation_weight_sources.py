"""Ablation: which edge statistic weighted SimRank should use as w(q, a).

The paper always uses the expected click rate; this bench compares it against
raw clicks and the unadjusted clicks/impressions ratio via the editorial
precision of the resulting rewrites.
"""

from repro.core.config import SimrankConfig
from repro.api.registry import create
from repro.core.rewriter import QueryRewriter
from repro.eval.editorial import EditorialJudge
from repro.eval.reporting import format_table
from repro.graph.click_graph import WeightSource


def _precision_at_5(workload, graph, queries, source):
    config = SimrankConfig(iterations=7, weight_source=source, zero_evidence_floor=0.1)
    rewriter = QueryRewriter(
        create("weighted_simrank", config=config),
        bid_terms={str(term) for term in workload.bid_terms},
    ).fit(graph)
    judge = EditorialJudge(workload)
    relevant = 0
    total = 0
    for query in queries:
        for rewrite in rewriter.compute_rewrites(query).rewrites:
            total += 1
            relevant += judge.grade(query, rewrite.rewrite) <= 2
    return relevant / total if total else 0.0


def test_ablation_weight_sources(benchmark, small_workload, harness_result):
    graph = harness_result.dataset
    queries = harness_result.evaluation_queries[:60]
    sources = [
        WeightSource.EXPECTED_CLICK_RATE,
        WeightSource.CLICKS,
        WeightSource.CLICK_THROUGH_RATE,
    ]
    results = {}
    for source in sources:
        if source is WeightSource.EXPECTED_CLICK_RATE:
            results[source.value] = benchmark.pedantic(
                lambda: _precision_at_5(small_workload, graph, queries, source),
                rounds=1,
                iterations=1,
            )
        else:
            results[source.value] = _precision_at_5(small_workload, graph, queries, source)
    rows = [
        {"weight source": name, "precision of top-5 rewrites": round(value, 3)}
        for name, value in results.items()
    ]
    print()
    print(format_table(rows, title="Ablation: weight source for weighted SimRank"))
