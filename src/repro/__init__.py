"""Simrank++: query rewriting through link analysis of the click graph.

A full reproduction of Antonellis, Garcia-Molina & Chang (VLDB 2008):
plain bipartite SimRank, evidence-based SimRank and weighted SimRank
("Simrank++") over weighted query-ad click graphs, plus every substrate the
paper's evaluation depends on -- click-graph construction and storage, local
graph partitioning, a sponsored-search serving simulator, a synthetic
Yahoo!-like workload generator, a simulated editorial judge and the complete
evaluation harness that regenerates the paper's tables and figures.

The serving front door is :class:`~repro.api.engine.RewriteEngine`: fit a
similarity method on a click graph once (offline), then serve filtered
top-k rewrite lists from one serving table (online).

Quickstart::

    from repro import ClickGraph, EngineConfig, RewriteEngine

    graph = ClickGraph()
    graph.add_edge("camera", "hp.com", impressions=500, clicks=40)
    graph.add_edge("digital camera", "hp.com", impressions=400, clicks=35)

    engine = RewriteEngine.from_graph(
        graph, EngineConfig(method="weighted_simrank")
    ).fit()
    for rewrite in engine.rewrite("camera").rewrites:
        print(rewrite.rewrite, rewrite.score)
    print(engine.explain("camera", "digital camera").reason)

Custom similarity methods plug into the registry without touching core::

    from repro import register_method

    @register_method("my_method", backends=("matrix",))
    def build_my_method(config, backend):
        return MyMethod(config=config)

    engine = RewriteEngine.from_graph(graph, EngineConfig(method="my_method")).fit()

Fitted engines also serve without the score matrix resident:
``engine.export_store(path)`` materializes the rewrite lists into a
single-file SQLite serving store and ``RewriteEngine.from_store(path)``
revives a serving-only engine answering byte-equal rewrites via indexed
point lookups (see :mod:`repro.store`);
:func:`~repro.api.sources.resolve_engine_source` is the one front door
over store / snapshot / fresh-fit engine construction.

Migrating to 3.0
----------------

3.0 keeps one serving cache: the engine's table of per-query rewrite lists,
which holds at most one entry per row of the fitted score store.

* ``EngineConfig(cache_size=N)`` -> drop the argument; the table is bounded
  by the fit, not by a knob.  ``EngineConfig.from_dict`` still accepts and
  discards a recorded ``cache_size``, so 1.x/2.0 snapshots and serving
  stores keep loading.
* ``CacheInfo.evictions`` / ``CacheInfo.capacity`` -> gone; ``CacheInfo``
  reports ``hits``, ``misses`` and ``size``.
* ``QueryRewriter.rewrites_for(query)`` ->
  ``QueryRewriter.compute_rewrites(query)`` (the rewriter memoizes nothing;
  serve through :class:`~repro.api.engine.RewriteEngine` for a table).
* ``InMemoryServingStore.from_engine(engine)`` (``repro.store.memory``) ->
  serve the fitted ``engine`` itself, or export a store with
  ``engine.export_store(path)``.

Migrating to 2.0
----------------

2.0 removes the pieces that 1.x deprecated, and ships one score container:

* ``SimilarityScores()`` plus ``.set(a, b, value)`` ->
  ``ArraySimilarityScores.from_pairs({(a, b): value, ...})``.  Every
  method's ``similarities()`` returns an
  :class:`~repro.core.scores_array.ArraySimilarityScores` with the same
  read interface (``score``, ``top``, ``neighbors``, ``pairs`` ...).
* ``create_method(name, config, backend)`` ->
  :func:`repro.api.registry.create` (same arguments).
* ``load_engine_with_fallback(path)`` ->
  :func:`repro.api.sources.resolve_engine_source` with ``snapshot=path``
  (or ``store=path`` for a serving-store file); the returned
  ``ResolvedEngine`` carries ``.engine`` and the loaded ``.origin``.
"""

from repro.api import (
    EngineConfig,
    EngineSnapshotStore,
    ResolvedEngine,
    RewriteEngine,
    available_methods,
    register_method,
    resolve_engine_source,
)
from repro.core import (
    BipartiteSimrank,
    EvidenceSimrank,
    MatrixSimrank,
    PearsonSimilarity,
    QueryRewriter,
    ShardedSimrank,
    SparseSimrank,
    ArraySimilarityScores,
    SimrankConfig,
    WeightedSimrank,
)
from repro.eval import EditorialJudge, ExperimentHarness
from repro.serving import EngineHolder, RewriteServer, ServerConfig
from repro.graph import (
    ClickGraph,
    ClickGraphDelta,
    ClickGraphStore,
    DeltaBuilder,
    EdgeStats,
    WeightSource,
)
from repro.store import (
    ServingOnlyEngineError,
    ServingStore,
    SqliteServingStore,
    StoreError,
)
from repro.synth import generate_workload, yahoo_like_workload

__version__ = "3.0.0"

__all__ = [
    "EngineConfig",
    "EngineSnapshotStore",
    "ResolvedEngine",
    "RewriteEngine",
    "available_methods",
    "register_method",
    "resolve_engine_source",
    "ServingOnlyEngineError",
    "ServingStore",
    "SqliteServingStore",
    "StoreError",
    "BipartiteSimrank",
    "EvidenceSimrank",
    "MatrixSimrank",
    "PearsonSimilarity",
    "QueryRewriter",
    "ShardedSimrank",
    "SparseSimrank",
    "ArraySimilarityScores",
    "SimrankConfig",
    "WeightedSimrank",
    "EditorialJudge",
    "ExperimentHarness",
    "EngineHolder",
    "RewriteServer",
    "ServerConfig",
    "ClickGraph",
    "ClickGraphDelta",
    "ClickGraphStore",
    "DeltaBuilder",
    "EdgeStats",
    "WeightSource",
    "generate_workload",
    "yahoo_like_workload",
    "__version__",
]
