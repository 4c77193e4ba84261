"""Interchangeable serving backends behind one ``ServingStore`` protocol.

Simrank++ is an offline fit that serves per-query top-k rewrite lists
online (paper Section 9.3) -- exactly the shape of a materialized ranking
table.  This package makes the *serving source* pluggable: the engine's
read path (``rewrite`` / ``rewrite_batch`` / ``expansions``) no longer
assumes the full score matrix is resident, only that *something* can
produce the filtered rewrite list of a query.

The implementation is :class:`~repro.store.sqlite.SqliteServingStore`: a
single-file SQLite database materialized at export time
(:meth:`RewriteEngine.export_store`).  Per-query rewrite lists are ranked
inside the storage engine with a window-function query and served back
with indexed point lookups, so resident memory does not grow with nnz --
click graphs bigger than serving RAM become servable.  A fitted engine
serves the same lists from its own in-memory serving table.

``RewriteEngine.from_store(path)`` revives a serving-only engine from an
exported store; it answers every lookup from the store but cannot ``fit`` /
``refresh`` / ``save`` (those raise
:class:`~repro.store.base.ServingOnlyEngineError` -- refit the original
engine and re-export instead).  ``repro.api.sources.resolve_engine_source``
is the one front door over snapshot, store and fresh-fit construction.
"""

from repro.store.base import ServingOnlyEngineError, ServingStore, StoreError
from repro.store.sqlite import (
    STORE_FORMAT_VERSION,
    SqliteServingStore,
    export_serving_store,
)

__all__ = [
    "STORE_FORMAT_VERSION",
    "ServingOnlyEngineError",
    "ServingStore",
    "SqliteServingStore",
    "StoreError",
    "export_serving_store",
]
