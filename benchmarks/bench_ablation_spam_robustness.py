"""Ablation: robustness to spam clicks (paper Section 11, future work).

A spammer adds a burst of clicks from unrelated queries onto a handful of
target ads.  We measure how much the editorial precision of each method's
top-5 rewrites degrades, confirming the paper's concern that click-graph
methods need spam-resistant variants.
"""

import random

from repro.core.config import SimrankConfig
from repro.api.registry import create
from repro.core.rewriter import QueryRewriter
from repro.eval.editorial import EditorialJudge
from repro.eval.reporting import format_table
from repro.graph.click_graph import ClickGraph


def _inject_spam(graph: ClickGraph, rng: random.Random, num_target_ads: int = 5, clicks: int = 150):
    """Copy the graph and add heavy spam clicks from random queries to a few ads."""
    spammed = graph.copy()
    ads = sorted(spammed.ads(), key=repr)
    queries = sorted(spammed.queries(), key=repr)
    targets = rng.sample(ads, min(num_target_ads, len(ads)))
    for target in targets:
        for _ in range(12):
            query = queries[rng.randrange(len(queries))]
            spammed.add_edge(
                query, target, impressions=clicks, clicks=clicks, expected_click_rate=0.9, merge=True
            )
    return spammed


def _precision(workload, graph, queries, method_name):
    config = SimrankConfig(iterations=7, zero_evidence_floor=0.1)
    rewriter = QueryRewriter(
        create(method_name, config=config),
        bid_terms={str(term) for term in workload.bid_terms},
    ).fit(graph)
    judge = EditorialJudge(workload)
    relevant, total = 0, 0
    for query in queries:
        for rewrite in rewriter.compute_rewrites(query).rewrites:
            total += 1
            relevant += judge.grade(query, rewrite.rewrite) <= 2
    return relevant / total if total else 0.0


def test_ablation_spam_robustness(benchmark, small_workload, harness_result):
    clean = harness_result.dataset
    queries = harness_result.evaluation_queries[:50]
    spammed = _inject_spam(clean, random.Random(13))

    def run():
        rows = []
        for method_name in ("simrank", "evidence_simrank", "weighted_simrank"):
            before = _precision(small_workload, clean, queries, method_name)
            after = _precision(small_workload, spammed, queries, method_name)
            rows.append(
                {
                    "method": method_name,
                    "precision (clean)": round(before, 3),
                    "precision (spammed)": round(after, 3),
                    "absolute drop": round(before - after, 3),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table(rows, title="Ablation: effect of spam clicks on rewrite precision"))
