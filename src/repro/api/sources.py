"""One front door over every way to obtain a servable engine.

Three construction paths grew up independently -- snapshot revival (with
sibling fallback) in the serving tier, synthetic fit in
``serving/app.py``, snapshot-or-refit in the eval harness -- each with its
own error handling and none aware of serving stores.
:func:`resolve_engine_source` is the single resolver they all now
delegate to: give it exactly one source (a serving store, a snapshot
directory, or a click graph to fit) and get back a
:class:`ResolvedEngine` that says what was built and where it actually
came from.

The resolver owns the crash-safe startup policy: a corrupt snapshot falls
back to the newest *loadable* sibling snapshot (``kind ==
"snapshot-sibling"``) rather than refusing to serve, warning once per
skipped candidate.  Store and fit sources fail loudly -- there is nothing
safe to fall back to.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Union

from repro.api.config import EngineConfig
from repro.api.engine import RewriteEngine
from repro.api.snapshot import MANIFEST_FILENAME, SnapshotError
from repro.graph.click_graph import ClickGraph

if TYPE_CHECKING:
    from repro.store.base import ServingStore

__all__ = ["ResolvedEngine", "resolve_engine_source"]

PathLike = Union[str, Path]


@dataclass(frozen=True)
class ResolvedEngine:
    """What :func:`resolve_engine_source` built and where it came from.

    ``kind`` is ``"store"`` / ``"snapshot"`` / ``"snapshot-sibling"`` /
    ``"fitted"``; ``origin`` is the store file or snapshot directory that
    actually backs the engine (``None`` for a fresh fit).  ``degraded`` is
    True exactly when a sibling snapshot was served in place of the
    requested one -- the signal the serving tier surfaces at startup.
    """

    engine: RewriteEngine
    kind: str
    origin: Optional[Path] = None

    @property
    def degraded(self) -> bool:
        return self.kind == "snapshot-sibling"


def _sibling_snapshots(failed: Path) -> List[Path]:
    """Completed sibling snapshot dirs of ``failed``, newest manifest first.

    Mirrors ``EngineSnapshotStore.list_snapshots``: dotted directories are
    in-progress staging areas, and a directory without a manifest never
    finished its rename-publish.  Manifest mtime orders candidates because
    the manifest is the last file staged before publish.
    """
    parent = failed.parent
    if not parent.is_dir():
        return []
    candidates = [
        entry
        for entry in parent.iterdir()
        if entry.is_dir()
        and not entry.name.startswith(".")
        and entry != failed
        and (entry / MANIFEST_FILENAME).is_file()
    ]
    candidates.sort(
        key=lambda entry: (entry / MANIFEST_FILENAME).stat().st_mtime, reverse=True
    )
    return candidates


def _resolve_snapshot(
    requested: Path,
    fallback_siblings: bool,
    warn: Optional[Callable[[str], None]],
) -> ResolvedEngine:
    try:
        return ResolvedEngine(
            engine=RewriteEngine.load(requested), kind="snapshot", origin=requested
        )
    except SnapshotError as original:
        if not fallback_siblings:
            raise
        if warn is not None:
            warn(f"snapshot {requested} failed to load: {original}")
        for candidate in _sibling_snapshots(requested):
            try:
                engine = RewriteEngine.load(candidate)
            except SnapshotError as error:
                if warn is not None:
                    warn(f"fallback snapshot {candidate} also failed: {error}")
                continue
            if warn is not None:
                warn(f"serving fallback snapshot {candidate}")
            return ResolvedEngine(
                engine=engine, kind="snapshot-sibling", origin=candidate
            )
        # No sibling loads either: surface what was wrong with the snapshot
        # the operator actually asked for, not the last candidate tried.
        raise original


def _resolve_store(source: Union[PathLike, "ServingStore"]) -> ResolvedEngine:
    engine = RewriteEngine.from_store(source)
    store = engine.serving_store
    origin = getattr(store, "path", None)
    return ResolvedEngine(
        engine=engine,
        kind="store",
        origin=Path(origin) if origin is not None else None,
    )


def resolve_engine_source(
    *,
    store: Optional[Union[PathLike, "ServingStore"]] = None,
    snapshot: Optional[PathLike] = None,
    graph: Optional[ClickGraph] = None,
    config: Optional[EngineConfig] = None,
    bid_terms: Optional[Iterable[str]] = None,
    fallback_siblings: bool = True,
    warn: Optional[Callable[[str], None]] = None,
) -> ResolvedEngine:
    """Build a servable engine from exactly one source.

    Parameters
    ----------
    store:
        A serving-store file path or an open
        :class:`~repro.store.base.ServingStore`: yields a serving-only
        engine (``kind == "store"``).  Store problems raise
        :class:`~repro.store.base.StoreError` -- no fallback exists.
    snapshot:
        A snapshot directory: yields a revived engine (``kind ==
        "snapshot"``).  When it is corrupt and ``fallback_siblings`` is
        True (the default), the newest loadable sibling snapshot is served
        instead (``kind == "snapshot-sibling"``, ``degraded`` True),
        calling ``warn`` once per skipped candidate; with no loadable
        sibling the *original* :class:`SnapshotError` propagates.
    graph:
        A click graph: fits a fresh engine on it with ``config`` /
        ``bid_terms`` (``kind == "fitted"``, ``origin`` None).
    config, bid_terms:
        Only meaningful with ``graph``; snapshot and store sources carry
        their own recorded configuration.

    Returns a :class:`ResolvedEngine`; raises ``ValueError`` unless
    exactly one of ``store`` / ``snapshot`` / ``graph`` is given.
    """
    sources = [name for name, value in
               (("store", store), ("snapshot", snapshot), ("graph", graph))
               if value is not None]
    if len(sources) != 1:
        raise ValueError(
            "resolve_engine_source needs exactly one of store=, snapshot= "
            f"or graph=; got {sources or 'none'}"
        )
    if (config is not None or bid_terms is not None) and graph is None:
        raise ValueError(
            "config/bid_terms only apply to graph= sources; snapshot and "
            "store sources carry their own recorded configuration"
        )
    if store is not None:
        return _resolve_store(store)
    if snapshot is not None:
        return _resolve_snapshot(Path(snapshot), fallback_siblings, warn)
    engine = RewriteEngine.from_graph(graph, config=config, bid_terms=bid_terms).fit()
    return ResolvedEngine(engine=engine, kind="fitted", origin=None)
