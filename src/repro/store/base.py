"""The ``ServingStore`` protocol: anything that can serve rewrite lists.

A serving store answers exactly the questions the online side of the
paper's deployment asks -- "what are this query's filtered, ranked
rewrites?" and "which queries do you know?" -- without prescribing where
the answers live, e.g. a materialized SQLite ranking table
(:class:`~repro.store.sqlite.SqliteServingStore`).  A store-backed
:class:`~repro.api.engine.RewriteEngine` answers every lookup from its
store, so the store never changes served results -- they are byte-equal to
the fitted engine's -- only the resident-memory/latency trade-off.

Implementations must be thread-safe for concurrent :meth:`rewrites` calls:
the serving tier issues lookups from multiple executor threads against one
store instance.
"""

from __future__ import annotations

import abc
from typing import Dict, Hashable, List, Optional

from repro.core.rewriter import RewriteList

__all__ = ["Node", "ServingOnlyEngineError", "ServingStore", "StoreError"]

Node = Hashable


class StoreError(RuntimeError):
    """A serving store could not be written, opened or read.

    The store-layer sibling of :class:`repro.api.snapshot.SnapshotError`:
    raised for unexportable engines/node ids, missing or corrupt store
    files, foreign format versions, and lookups on a closed store.
    """


class ServingOnlyEngineError(RuntimeError):
    """A control-plane operation was called on a store-backed engine.

    Engines revived with :meth:`RewriteEngine.from_store` hold materialized
    rewrite lists, not the fitted score matrix, so ``fit`` / ``refresh`` /
    ``save`` / ``explain`` / ``export_store`` have nothing to operate on.
    Refit (or load) the original engine and re-export the store instead.
    """


class ServingStore(abc.ABC):
    """Abstract serving source: per-query filtered top-k rewrite lists.

    The contract every implementation must honour:

    * :meth:`rewrites` is **deterministic and pure** -- repeated calls for
      the same query return equal :class:`~repro.core.rewriter.RewriteList`
      values, byte-equal under ``RewriteList.as_tuples()`` to what the
      fitted engine the store was built from would serve.  Unknown queries
      get an *empty* rewrite list, never an error, matching the fitted
      engine.
    * :meth:`queries` is the exporting engine's serving universe: the full
      query set of the fitted graph (isolated queries included).
    * Lookups are thread-safe; :attr:`lookups` counts them for ``/stats``.
    """

    #: Short implementation tag surfaced by ``/stats`` (``"sqlite"``).
    kind: str = "abstract"

    # ------------------------------------------------------------- protocol

    @abc.abstractmethod
    def rewrites(self, query: Node, k: Optional[int] = None) -> RewriteList:
        """The filtered, ranked rewrites of ``query`` (top ``k`` if given)."""

    @abc.abstractmethod
    def contains(self, query: Node) -> bool:
        """Whether ``query`` belongs to the store's query universe."""

    @abc.abstractmethod
    def queries(self) -> List[Node]:
        """The store's full query universe (the precompute set)."""

    @property
    @abc.abstractmethod
    def version(self) -> int:
        """Identifier of the fitted state the store serves.

        For materialized stores, the recorded store version; surfaced via
        ``/stats`` so operators can tell which export a serving node
        answers from.
        """

    @abc.abstractmethod
    def close(self) -> None:
        """Release held resources; lookups afterwards raise ``StoreError``."""

    # ----------------------------------------------------------- accounting

    @property
    @abc.abstractmethod
    def lookups(self) -> int:
        """How many :meth:`rewrites` lookups this store has answered."""

    def engine_config(self) -> Optional[Dict[str, object]]:
        """The exporting engine's serialized config, when recorded.

        ``RewriteEngine.from_store`` rebuilds the serving knobs
        (``max_rewrites``) from this; ``None`` means the
        store carries no config and the engine defaults apply.
        """
        return None

    def describe(self) -> Dict[str, object]:
        """JSON-ready store facts for ``/stats``."""
        return {
            "kind": self.kind,
            "version": self.version,
            "lookups": self.lookups,
        }

    # ---------------------------------------------------------- convenience

    def __enter__(self) -> "ServingStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __contains__(self, query: Node) -> bool:
        return self.contains(query)
