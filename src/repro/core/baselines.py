"""Naive similarity baselines.

* :func:`common_ad_count` / :class:`CommonAdSimilarity` -- the "count the
  common ads" similarity the paper uses to motivate SimRank (Table 1).  It
  only looks one hop out, so it cannot relate queries such as "pc" and "tv"
  that share no ad but are both similar to queries that do.
* :class:`JaccardSimilarity` and :class:`CosineSimilarity` -- standard
  neighbourhood-overlap comparators included as extra reference points for
  the ablation benchmarks (not part of the paper's evaluation).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Tuple

from repro.core.scores_array import ArraySimilarityScores
from repro.core.similarity_base import QuerySimilarityMethod
from repro.graph.click_graph import ClickGraph, WeightSource

__all__ = [
    "common_ad_count",
    "CommonAdSimilarity",
    "JaccardSimilarity",
    "CosineSimilarity",
]

Node = Hashable


def common_ad_count(graph: ClickGraph, first: Node, second: Node) -> int:
    """Number of ads clicked for both queries (the Table 1 similarity)."""
    return len(set(graph.ads_of(first)) & set(graph.ads_of(second)))


class _PairwiseOverAds(QuerySimilarityMethod):
    """Shared machinery: score only pairs of queries that share an ad."""

    def _pair_score(self, graph: ClickGraph, first: Node, second: Node) -> float:
        raise NotImplementedError

    def _compute_query_scores(self, graph: ClickGraph) -> ArraySimilarityScores:
        scores: Dict[Tuple[Node, Node], float] = {}
        seen = set()
        for ad in graph.ads():
            co_clicked = sorted(graph.queries_of(ad), key=repr)
            for i, first in enumerate(co_clicked):
                for second in co_clicked[i + 1:]:
                    key = (first, second)
                    if key in seen:
                        continue
                    seen.add(key)
                    value = self._pair_score(graph, first, second)
                    if value != 0.0:
                        scores[(first, second)] = value
        return ArraySimilarityScores.from_pairs(scores)


class CommonAdSimilarity(_PairwiseOverAds):
    """Similarity = number of common ads (Table 1)."""

    name = "common_ads"

    def _pair_score(self, graph: ClickGraph, first: Node, second: Node) -> float:
        return float(common_ad_count(graph, first, second))


class JaccardSimilarity(_PairwiseOverAds):
    """Similarity = |E(q) ∩ E(q')| / |E(q) ∪ E(q')|."""

    name = "jaccard"

    def _pair_score(self, graph: ClickGraph, first: Node, second: Node) -> float:
        first_ads = set(graph.ads_of(first))
        second_ads = set(graph.ads_of(second))
        union = first_ads | second_ads
        if not union:
            return 0.0
        return len(first_ads & second_ads) / len(union)


class CosineSimilarity(_PairwiseOverAds):
    """Cosine of the two queries' weighted click vectors over ads."""

    name = "cosine"

    def __init__(self, source: WeightSource = WeightSource.EXPECTED_CLICK_RATE) -> None:
        super().__init__()
        self.source = source

    def _pair_score(self, graph: ClickGraph, first: Node, second: Node) -> float:
        first_weights = graph.query_weights(first, self.source)
        second_weights = graph.query_weights(second, self.source)
        common = set(first_weights) & set(second_weights)
        if not common:
            return 0.0
        # Summed in a fixed order: iterating the set would tie the last bits
        # of the score to the process's string-hash seed.
        dot = sum(
            first_weights[ad] * second_weights[ad] for ad in sorted(common, key=repr)
        )
        first_norm = math.sqrt(sum(value ** 2 for value in first_weights.values()))
        second_norm = math.sqrt(sum(value ** 2 for value in second_weights.values()))
        if first_norm == 0.0 or second_norm == 0.0:
            return 0.0
        return dot / (first_norm * second_norm)
