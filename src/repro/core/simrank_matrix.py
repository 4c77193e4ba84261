"""Dense-matrix SimRank engine.

The node-pair reference engines follow the paper's equations literally, but
their Python double loops are too slow for subgraph-scale experiments
(hundreds to thousands of queries).  :class:`MatrixSimrank` computes the same
fixpoints with numpy linear algebra: the shared fixpoint of
:mod:`repro.core.simrank_kernel` on its dense adapter.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.simrank_kernel import DenseOps, KernelSimrank

__all__ = ["MatrixSimrank"]

Node = Hashable


class MatrixSimrank(KernelSimrank):
    """Fast SimRank / evidence-based SimRank / weighted SimRank in one engine.

    Takes ``config``, ``mode`` and ``min_score`` (the storage threshold,
    1e-9 by default) as :class:`~repro.core.simrank_kernel.KernelSimrank`.
    """

    def _ops(self) -> DenseOps:
        return DenseOps(self.min_score)

    def _ad_side(self, fit, ops):
        # The raw dense matrix plus a position dict: one lookup per read.
        return fit.ad, {ad: j for j, ad in enumerate(fit.ad_index)}

    def ad_similarity(self, first: Node, second: Node) -> float:
        """Similarity of two ads under the same fixpoint."""
        self._require_fitted()
        matrix, position = self._require_fit_extra(self._ad_scores, "ad-side scores")
        if first == second:
            return 1.0
        i = position.get(first)
        j = position.get(second)
        if i is None or j is None:
            return 0.0
        return float(matrix[i, j])
