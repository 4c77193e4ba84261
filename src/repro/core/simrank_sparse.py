"""Sparse pruned SimRank engine.

Production click graphs are huge but extremely sparse, and the paper's
few-iteration regime keeps the score matrices mostly zero, yet the dense
engine (:class:`~repro.core.simrank_matrix.MatrixSimrank`) multiplies full
``O(n^2)`` blocks of structural zeros.  :class:`SparseSimrank` runs the same
fixpoint (:mod:`repro.core.simrank_kernel`) on its CSR adapter, so every
product costs work proportional to the *nonzeros*, which track the node
pairs within a few hops of each other.  Two sound pruning knobs, defaulting
from ``SimrankConfig.prune_threshold`` / ``prune_top_k``, bound fill-in:

``min_score`` (per-iteration epsilon truncation)
    Entries below it are dropped after every iteration.  The default of 0 is
    *exact*: it agrees with the dense and reference engines to machine
    precision (``tests/equivalence/`` enforces 1e-6).  A positive epsilon is
    lossy but sound: a dropped entry perturbs downstream scores by at most
    ``min_score * c / (1 - c)`` per endpoint.

``top_k`` (per-row retention)
    After truncation, keep the ``top_k`` largest off-diagonal entries of
    each row (symmetrically).  This caps memory at ``O(n * top_k)``; serving
    reads only the top few rewrites per query, so a ``top_k`` comfortably
    above the rewrite depth is serving-exact.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.core.config import SimrankConfig
from repro.core.simrank_kernel import CsrOps, KernelSimrank

__all__ = ["SparseSimrank"]

Node = Hashable


class SparseSimrank(KernelSimrank):
    """SimRank family on sparse matrices with epsilon/top-k pruning."""

    def __init__(
        self,
        config: Optional[SimrankConfig] = None,
        mode: str = "simrank",
        min_score: Optional[float] = None,
        top_k: Optional[int] = None,
    ) -> None:
        """``mode`` is as in the dense engine; ``min_score`` (also the storage
        threshold) and ``top_k`` are the pruning knobs above, ``None`` reading
        ``config.prune_threshold`` / ``config.prune_top_k``; 0 turns either off.
        """
        config = config or SimrankConfig()
        super().__init__(
            config, mode, config.prune_threshold if min_score is None else float(min_score)
        )
        if not 0.0 <= self.min_score < 1.0:
            raise ValueError(f"min_score must be in [0, 1), got {self.min_score}")
        chosen_top_k = self.config.prune_top_k if top_k is None else int(top_k)
        if chosen_top_k < 0:
            raise ValueError(f"top_k must be >= 0, got {chosen_top_k}")
        self.top_k = chosen_top_k or None

    def _ops(self) -> CsrOps:
        return CsrOps(self.min_score, self.top_k)

    def _ad_side(self, fit, ops):
        return ops.store(fit.ad, fit.ad_index)

    def ad_similarity(self, first: Node, second: Node) -> float:
        """Similarity of two ads under the same fixpoint."""
        self._require_fitted()
        return self._require_fit_extra(self._ad_scores, "ad-side scores").score(
            first, second
        )
