"""In-memory serving store: the classic resident-scores + rewriter path.

:class:`InMemoryServingStore` wraps a fitted
:class:`~repro.core.similarity_base.QuerySimilarityMethod` (its
:class:`~repro.core.scores_array.ArraySimilarityScores` store) and a
:class:`~repro.core.rewriter.QueryRewriter` behind the
:class:`~repro.store.base.ServingStore` protocol: each lookup runs the
similarity top-k and the Section 9.3 filter pipeline against the resident
score store.  This is exactly what a fitted engine serves today -- the
store exists so that the in-memory path and the SQL-materialized path
(:class:`~repro.store.sqlite.SqliteServingStore`) are interchangeable
behind one interface, and so the latency benchmark can compare the two
lookup paths directly.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional

from repro.core.rewriter import QueryRewriter, RewriteList
from repro.store.base import Node, ServingStore, StoreError

__all__ = ["InMemoryServingStore"]


class InMemoryServingStore(ServingStore):
    """Serve rewrite lists by recomputing them from resident fitted scores.

    Usually built with :meth:`from_engine`; constructing directly takes a
    rewriter over a *fitted* method plus the query universe.  The store
    does not memoize -- the engine's LRU cache is the single cache layer,
    exactly as with direct engine serving -- so ``rewrites`` always costs
    one similarity scan plus the filter pipeline.
    """

    kind = "memory"

    def __init__(
        self,
        rewriter: QueryRewriter,
        queries: Iterable[Node],
        engine_config: Optional[Dict[str, object]] = None,
    ) -> None:
        if not rewriter.method.is_fitted:
            raise StoreError(
                "InMemoryServingStore needs a fitted similarity method; "
                "fit (or snapshot-load) the engine first"
            )
        self._rewriter = rewriter
        self._universe = list(queries)
        self._universe_set = set(self._universe)
        self._engine_config = dict(engine_config) if engine_config else None
        self._version = getattr(rewriter.method, "_fit_generation", 0)
        #: Guards the lookup counter against concurrent serving threads.
        self._lock = threading.Lock()
        #: guarded-by: _lock
        self._lookups = 0
        #: guarded-by: _lock
        self._closed = False

    @classmethod
    def from_engine(cls, engine) -> "InMemoryServingStore":
        """Wrap a fitted :class:`~repro.api.engine.RewriteEngine`.

        The store shares the engine's rewriter (lookups are pure reads of
        the fitted scores), serves the engine's precompute universe and
        carries its config, so ``RewriteEngine.from_store(store)`` rebuilds
        an equivalent serving-only engine.
        """
        if not engine.method.is_fitted:
            raise StoreError(
                "cannot wrap an unfitted engine in a serving store; call "
                ".fit(graph) or load a snapshot first"
            )
        return cls(
            engine._rewriter,
            engine._serving_universe(),
            engine_config=engine.config.to_dict(),
        )

    # ------------------------------------------------------------- protocol

    def rewrites(self, query: Node, k: Optional[int] = None) -> RewriteList:
        with self._lock:
            if self._closed:
                raise StoreError("serving store is closed")
            self._lookups += 1
        result = self._rewriter.compute_rewrites(query)
        if k is not None and k < len(result.rewrites):
            result = RewriteList(query=result.query, rewrites=result.rewrites[:k])
        return result

    def contains(self, query: Node) -> bool:
        try:
            return query in self._universe_set
        except TypeError:
            return False  # unhashable identifiers are never graph nodes

    def queries(self) -> List[Node]:
        return list(self._universe)

    @property
    def version(self) -> int:
        return self._version

    def close(self) -> None:
        with self._lock:
            self._closed = True

    @property
    def lookups(self) -> int:
        with self._lock:
            return self._lookups

    def engine_config(self) -> Optional[Dict[str, object]]:
        return dict(self._engine_config) if self._engine_config else None

    def __repr__(self) -> str:
        return (
            f"InMemoryServingStore(queries={len(self._universe)}, "
            f"version={self.version}, lookups={self.lookups})"
        )
