"""The sponsored-search front-end.

The front-end receives an incoming query and produces a list of rewrites that
the back-end should also consider when looking for bids (paper Figure 2).
It wraps either a :class:`repro.core.rewriter.QueryRewriter` or -- the
preferred serving setup -- a fitted :class:`repro.api.engine.RewriteEngine`,
whose serving table makes repeated traffic O(1) per query.  When neither is
configured it passes queries through unchanged, which models the system
before click-graph-based rewriting is deployed (useful for bootstrapping the
first click graph).
"""

from __future__ import annotations

from typing import List, Optional

from repro.api.engine import RewriteEngine
from repro.core.rewriter import QueryRewriter

__all__ = ["FrontEnd"]


class FrontEnd:
    """Produces rewrites for incoming queries."""

    def __init__(
        self,
        rewriter: Optional[QueryRewriter] = None,
        max_rewrites: int = 5,
        engine: Optional[RewriteEngine] = None,
    ) -> None:
        """``max_rewrites`` trims the provider's rewrite list per query; it
        cannot exceed what the provider generates (an engine never produces
        more than its ``config.max_rewrites``)."""
        if rewriter is not None and engine is not None:
            raise ValueError("configure either a rewriter or an engine, not both")
        self.rewriter = rewriter
        self.engine = engine
        self.max_rewrites = max_rewrites

    def rewrites(self, query: str) -> List[str]:
        """Rewrites to forward to the back-end alongside the original query."""
        if self.engine is not None:
            return [str(rewrite) for rewrite in self.engine.expansions(query, self.max_rewrites)]
        if self.rewriter is None:
            return []
        rewrite_list = self.rewriter.compute_rewrites(query)
        return [str(rewrite.rewrite) for rewrite in rewrite_list.top(self.max_rewrites)]
