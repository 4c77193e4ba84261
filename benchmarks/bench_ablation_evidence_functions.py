"""Ablation: geometric (Eq. 7.3) vs exponential (Eq. 7.4) evidence functions.

The paper reports "no substantial differences" between the two; this bench
quantifies that claim on the synthetic workload by comparing the top-5
rewrites each variant produces.
"""

from repro.core.config import EvidenceKind, SimrankConfig
from repro.api.registry import create
from repro.core.rewriter import QueryRewriter
from repro.eval.reporting import format_table


def _rewrites(workload, graph, kind, queries):
    config = SimrankConfig(iterations=7, evidence=kind, zero_evidence_floor=0.1)
    rewriter = QueryRewriter(
        create("evidence_simrank", config=config),
        bid_terms={str(term) for term in workload.bid_terms},
    ).fit(graph)
    return {query: tuple(rewriter.compute_rewrites(query).candidates()) for query in queries}


def test_ablation_evidence_functions(benchmark, small_workload, harness_result):
    graph = harness_result.dataset
    queries = harness_result.evaluation_queries[:60]
    geometric = _rewrites(small_workload, graph, EvidenceKind.GEOMETRIC, queries)
    exponential = benchmark.pedantic(
        lambda: _rewrites(small_workload, graph, EvidenceKind.EXPONENTIAL, queries),
        rounds=1,
        iterations=1,
    )
    identical = sum(1 for query in queries if geometric[query] == exponential[query])
    overlap = []
    for query in queries:
        first, second = set(geometric[query]), set(exponential[query])
        union = first | second
        overlap.append(len(first & second) / len(union) if union else 1.0)
    rows = [
        {
            "queries compared": len(queries),
            "identical top-5 lists (%)": round(100.0 * identical / len(queries), 1),
            "mean Jaccard overlap": round(sum(overlap) / len(overlap), 3),
        }
    ]
    print()
    print(format_table(rows, title="Ablation: geometric vs exponential evidence (Eq. 7.3 vs 7.4)"))
