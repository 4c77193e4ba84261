"""Bipartite SimRank (paper Section 4, following Jeh & Widom).

The similarity of two queries is the (decayed) average similarity of the ads
they were clicked on, and vice versa:

.. math::

   s(q, q') = \\frac{C_1}{N(q) N(q')} \\sum_{i \\in E(q)} \\sum_{j \\in E(q')} s(i, j)

   s(a, a') = \\frac{C_2}{N(a) N(a')} \\sum_{i \\in E(a)} \\sum_{j \\in E(a')} s(i, j)

with ``s(v, v) = 1``.  The fixpoint is computed by Jacobi iteration starting
from the identity, exactly as in the paper's appendix, so the per-iteration
scores reproduce Tables 3 and 4.

This is the *reference* implementation: it stores scores per node pair and
restricts work to pairs inside the same connected component.  For larger
graphs use the matrix fixpoint of :mod:`repro.core.simrank_kernel`, behind
the dense :class:`~repro.core.simrank_matrix.MatrixSimrank` and the sparse
:class:`~repro.core.simrank_sparse.SparseSimrank` backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.config import SimrankConfig
from repro.core.scores_array import ArraySimilarityScores
from repro.core.similarity_base import QuerySimilarityMethod
from repro.core.warm_start import seed_pair_scores
from repro.graph.click_graph import ClickGraph
from repro.graph.components import connected_components

__all__ = ["BipartiteSimrank", "SimrankResult"]

Node = Hashable
Pair = Tuple[Node, Node]


@dataclass
class SimrankResult:
    """Query- and ad-side similarity scores plus the iteration trace."""

    query_scores: ArraySimilarityScores
    ad_scores: ArraySimilarityScores
    iterations_run: int
    converged: bool = False
    #: Per-iteration snapshots of the query-side scores (index 0 = after the
    #: first iteration).  Only populated when history tracking is requested.
    query_history: List[ArraySimilarityScores] = field(default_factory=list)
    ad_history: List[ArraySimilarityScores] = field(default_factory=list)


class BipartiteSimrank(QuerySimilarityMethod):
    """Plain bipartite SimRank over a click graph."""

    name = "simrank"

    def __init__(
        self,
        config: Optional[SimrankConfig] = None,
        track_history: bool = False,
        max_pairs: int = 2_000_000,
    ) -> None:
        super().__init__()
        self.config = config or SimrankConfig()
        self.track_history = track_history
        self.max_pairs = max_pairs
        self._result: Optional[SimrankResult] = None

    # -------------------------------------------------------------- fit path

    def _compute_query_scores(self, graph: ClickGraph) -> ArraySimilarityScores:
        self._result = self._run(graph)
        return self._result.query_scores

    def restore(self, scores, graph=None) -> "BipartiteSimrank":
        """Adopt precomputed query scores; the full result object is fit-only."""
        super().restore(scores, graph)
        self._result = None
        return self

    @property
    def result(self) -> SimrankResult:
        """Full result (both sides and the iteration trace)."""
        self._require_fitted()
        return self._require_fit_extra(self._result, "SimrankResult")

    def ad_similarity(self, first: Node, second: Node) -> float:
        """Similarity of two ads under the same fixpoint."""
        self._require_fitted()
        return self._require_fit_extra(self._result, "ad-side scores").ad_scores.score(
            first, second
        )

    # ------------------------------------------------------------- iteration

    def _run(self, graph: ClickGraph) -> SimrankResult:
        query_pairs, ad_pairs = _component_pairs(graph, self.max_pairs)
        query_neighbors = {query: list(graph.ads_of(query)) for query in graph.queries()}
        ad_neighbors = {ad: list(graph.queries_of(ad)) for ad in graph.ads()}

        seed = self._warm_start_scores
        if seed is not None:
            # Warm start: the query side takes the previous scores and the
            # ad side is derived by one application of its update, so both
            # sides of the Jacobi alternation start near the fixpoint (a
            # zero ad side would wash the query seed out on step one).
            sim_q = seed_pair_scores(seed, query_pairs)
            sim_a = self._update_side(
                pairs=ad_pairs,
                neighbors=ad_neighbors,
                other_scores=sim_q,
                decay=self.config.c2,
            )
        else:
            sim_q: Dict[Pair, float] = {pair: 0.0 for pair in query_pairs}
            sim_a: Dict[Pair, float] = {pair: 0.0 for pair in ad_pairs}
        history_q: List[ArraySimilarityScores] = []
        history_a: List[ArraySimilarityScores] = []
        converged = False
        iterations_run = 0

        for _ in range(self.config.iterations):
            iterations_run += 1
            new_q = self._update_side(
                pairs=query_pairs,
                neighbors=query_neighbors,
                other_scores=sim_a,
                decay=self.config.c1,
            )
            new_a = self._update_side(
                pairs=ad_pairs,
                neighbors=ad_neighbors,
                other_scores=sim_q,
                decay=self.config.c2,
            )
            delta = _max_delta(sim_q, new_q)
            delta = max(delta, _max_delta(sim_a, new_a))
            sim_q, sim_a = new_q, new_a
            if self.track_history:
                history_q.append(ArraySimilarityScores.from_pairs(sim_q))
                history_a.append(ArraySimilarityScores.from_pairs(sim_a))
            if self.config.tolerance > 0 and delta < self.config.tolerance:
                converged = True
                break

        return SimrankResult(
            query_scores=ArraySimilarityScores.from_pairs(sim_q),
            ad_scores=ArraySimilarityScores.from_pairs(sim_a),
            iterations_run=iterations_run,
            converged=converged,
            query_history=history_q,
            ad_history=history_a,
        )

    @staticmethod
    def _update_side(
        pairs: List[Pair],
        neighbors: Dict[Node, List[Node]],
        other_scores: Dict[Pair, float],
        decay: float,
    ) -> Dict[Pair, float]:
        """One Jacobi update of one side from the other side's previous scores."""
        updated: Dict[Pair, float] = {}
        for first, second in pairs:
            first_neighbors = neighbors[first]
            second_neighbors = neighbors[second]
            if not first_neighbors or not second_neighbors:
                updated[(first, second)] = 0.0
                continue
            total = 0.0
            for i in first_neighbors:
                for j in second_neighbors:
                    if i == j:
                        total += 1.0
                    else:
                        total += other_scores.get((i, j), other_scores.get((j, i), 0.0))
            updated[(first, second)] = (
                decay * total / (len(first_neighbors) * len(second_neighbors))
            )
        return updated


# ---------------------------------------------------------------------- utils


def _component_pairs(graph: ClickGraph, max_pairs: int) -> Tuple[List[Pair], List[Pair]]:
    """All unordered same-side node pairs within each connected component.

    Pairs in different components can never become similar, so restricting to
    components is exact.  Raises ``ValueError`` when the pair count would
    exceed ``max_pairs`` (use the matrix implementation in that case).
    """
    query_pairs: List[Pair] = []
    ad_pairs: List[Pair] = []
    total = 0
    for queries, ads in connected_components(graph):
        query_list = sorted(queries, key=repr)
        ad_list = sorted(ads, key=repr)
        total += len(query_list) * (len(query_list) - 1) // 2
        total += len(ad_list) * (len(ad_list) - 1) // 2
        if total > max_pairs:
            raise ValueError(
                f"SimRank pair count exceeds max_pairs={max_pairs}; "
                "use MatrixSimrank for graphs of this size"
            )
        for i, first in enumerate(query_list):
            for second in query_list[i + 1:]:
                query_pairs.append((first, second))
        for i, first in enumerate(ad_list):
            for second in ad_list[i + 1:]:
                ad_pairs.append((first, second))
    return query_pairs, ad_pairs


def _max_delta(old: Dict[Pair, float], new: Dict[Pair, float]) -> float:
    """Largest absolute per-pair change between two iterations."""
    if not new:
        return 0.0
    return max(abs(new[pair] - old.get(pair, 0.0)) for pair in new)
