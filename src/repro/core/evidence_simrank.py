"""Evidence-based SimRank (paper Section 7).

The evidence-based similarity of two queries after ``k`` SimRank iterations
is the plain SimRank score multiplied by the evidence factor of the pair
(Equations 7.5 / 7.6):

.. math::

   s_{evidence}(q, q') = evidence(q, q') \\cdot s(q, q')

Only pairs with at least one common neighbour receive a positive evidence
factor; pairs related purely through longer paths keep evidence 0 under the
paper's definition, which is what Theorem 7.1 relies on.  (Because the paper
also reports evidence-based SimRank covering *more* queries than plain
SimRank, :class:`EvidenceSimrank` exposes ``zero_evidence_floor`` to keep a
small fraction of the structural score for such pairs; the default of 0 is
the faithful behaviour.)
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.config import SimrankConfig
from repro.core.evidence import evidence_score
from repro.core.scores_array import ArraySimilarityScores
from repro.core.similarity_base import QuerySimilarityMethod
from repro.core.simrank import BipartiteSimrank, SimrankResult
from repro.graph.click_graph import ClickGraph

__all__ = ["EvidenceSimrank"]

Node = Hashable


class EvidenceSimrank(QuerySimilarityMethod):
    """SimRank scores rescaled by the evidence of each pair."""

    name = "evidence_simrank"

    def __init__(
        self,
        config: Optional[SimrankConfig] = None,
        track_history: bool = False,
        zero_evidence_floor: Optional[float] = None,
        max_pairs: int = 2_000_000,
    ) -> None:
        super().__init__()
        self.config = config or SimrankConfig()
        self.track_history = track_history
        self.zero_evidence_floor = (
            self.config.zero_evidence_floor if zero_evidence_floor is None else zero_evidence_floor
        )
        self.max_pairs = max_pairs
        self._simrank: Optional[BipartiteSimrank] = None
        self._ad_scores: Optional[ArraySimilarityScores] = None
        self._query_history: List[ArraySimilarityScores] = []

    # -------------------------------------------------------------- fit path

    def _compute_query_scores(self, graph: ClickGraph) -> ArraySimilarityScores:
        self._simrank = BipartiteSimrank(
            config=self.config, track_history=self.track_history, max_pairs=self.max_pairs
        )
        # A warm-start seed passes straight through to the inner SimRank.
        # The seed is evidence-scaled (this method's similarities() applies
        # the evidence factor on top of the plain fixpoint) and therefore a
        # less warm starting point than for the other modes -- still valid,
        # since the contraction converges from anywhere.
        self._simrank.fit(graph, initial_scores=self._warm_start_scores)
        result = self._simrank.result

        query_scores = self._apply_evidence(graph, result.query_scores, side="query")
        self._ad_scores = self._apply_evidence(graph, result.ad_scores, side="ad")
        self._query_history = [
            self._apply_evidence(graph, snapshot, side="query")
            for snapshot in result.query_history
        ]
        return query_scores

    # ---------------------------------------------------------------- access

    def restore(self, scores, graph=None) -> "EvidenceSimrank":
        """Adopt precomputed query scores; sub-result and traces are fit-only."""
        super().restore(scores, graph)
        self._simrank = None
        self._ad_scores = None
        self._query_history = []
        return self

    @property
    def simrank_result(self) -> SimrankResult:
        """The underlying plain-SimRank result (before evidence scaling)."""
        self._require_fitted()
        return self._require_fit_extra(
            self._simrank, "plain-SimRank sub-result"
        ).result

    @property
    def query_history(self) -> List[ArraySimilarityScores]:
        """Per-iteration evidence-based query scores (Table 4)."""
        self._require_fitted()
        # The inner SimRank marks genuine fit state: on a snapshot-restored
        # engine an empty list would be indistinguishable from tracking
        # having been off, so fail loudly instead.
        self._require_fit_extra(self._simrank, "iteration history")
        return list(self._query_history)

    def ad_similarity(self, first: Node, second: Node) -> float:
        """Evidence-based similarity of two ads."""
        self._require_fitted()
        return self._require_fit_extra(self._ad_scores, "ad-side scores").score(
            first, second
        )

    # ------------------------------------------------------------- internals

    def _apply_evidence(
        self, graph: ClickGraph, scores: ArraySimilarityScores, side: str
    ) -> ArraySimilarityScores:
        scaled: Dict[Tuple[Node, Node], float] = {}
        for first, second, value in scores.pairs():
            if side == "query":
                common = len(set(graph.ads_of(first)) & set(graph.ads_of(second)))
            else:
                common = len(set(graph.queries_of(first)) & set(graph.queries_of(second)))
            factor = evidence_score(common, self.config.evidence)
            if common == 0:
                factor = self.zero_evidence_floor
            scaled_value = value * factor
            if scaled_value != 0.0:
                scaled[(first, second)] = scaled_value
        return ArraySimilarityScores.from_pairs(scaled)
