"""Pearson-correlation baseline (paper Section 9.1).

The Pearson correlation between two queries measures the strength of a linear
relationship between their click-weight vectors restricted to the ads they
have in common:

.. math::

   sim_{pearson}(q, q') =
   \\frac{\\sum_{a \\in E(q) \\cap E(q')} (w(q, a) - \\bar w_q)(w(q', a) - \\bar w_{q'})}
        {\\sqrt{\\sum_a (w(q, a) - \\bar w_q)^2} \\sqrt{\\sum_a (w(q', a) - \\bar w_{q'})^2}}

where ``\\bar w_q`` is the *average weight of all edges incident to q* (not
just the common ones) and the sums range over the common ads.  When the two
queries share no ad, or the denominator vanishes, the similarity is 0.  The
score lies in ``[-1, 1]``; only positive scores are useful as rewrites.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Tuple

from repro.core.scores_array import ArraySimilarityScores
from repro.core.similarity_base import QuerySimilarityMethod
from repro.graph.click_graph import ClickGraph, WeightSource

__all__ = ["PearsonSimilarity", "pearson_similarity"]

Node = Hashable


def pearson_similarity(
    graph: ClickGraph,
    first: Node,
    second: Node,
    source: WeightSource = WeightSource.EXPECTED_CLICK_RATE,
) -> float:
    """Pearson correlation of two queries' click weights over their common ads."""
    first_weights = graph.query_weights(first, source)
    second_weights = graph.query_weights(second, source)
    common = set(first_weights) & set(second_weights)
    if not common:
        return 0.0

    first_mean = sum(first_weights.values()) / len(first_weights)
    second_mean = sum(second_weights.values()) / len(second_weights)

    numerator = 0.0
    first_variance = 0.0
    second_variance = 0.0
    # Summed in a fixed order: iterating the set would tie the last bits of
    # the score to the process's string-hash seed.
    for ad in sorted(common, key=repr):
        first_dev = first_weights[ad] - first_mean
        second_dev = second_weights[ad] - second_mean
        numerator += first_dev * second_dev
        first_variance += first_dev ** 2
        second_variance += second_dev ** 2
    denominator = math.sqrt(first_variance) * math.sqrt(second_variance)
    if denominator == 0.0:
        return 0.0
    return numerator / denominator


class PearsonSimilarity(QuerySimilarityMethod):
    """All-pairs Pearson similarity over queries sharing at least one ad.

    Only query pairs with at least one common ad can receive a non-zero
    score, which is exactly why the paper finds its query coverage so much
    lower than the SimRank variants'.
    """

    name = "pearson"

    def __init__(
        self,
        source: WeightSource = WeightSource.EXPECTED_CLICK_RATE,
        keep_negative: bool = False,
    ) -> None:
        super().__init__()
        self.source = source
        #: Negative correlations indicate *dissimilar* queries; by default
        #: they are dropped so they never rank above unrelated queries.
        self.keep_negative = keep_negative

    def _compute_query_scores(self, graph: ClickGraph) -> ArraySimilarityScores:
        scores: Dict[Tuple[Node, Node], float] = {}
        # Only pairs sharing an ad can be non-zero: enumerate them via ads.
        seen = set()
        for ad in graph.ads():
            co_clicked = sorted(graph.queries_of(ad), key=repr)
            for i, first in enumerate(co_clicked):
                for second in co_clicked[i + 1:]:
                    key = (first, second)
                    if key in seen:
                        continue
                    seen.add(key)
                    value = pearson_similarity(graph, first, second, self.source)
                    if value == 0.0:
                        continue
                    if value < 0.0 and not self.keep_negative:
                        continue
                    scores[(first, second)] = value
        return ArraySimilarityScores.from_pairs(scores)
