"""The public serving API: method registry, engine configuration, rewrite engine.

This package is the single front door to the library for serving workloads:

* :mod:`repro.api.registry` -- a decorator-based registry of query-similarity
  methods.  Downstream code registers custom methods with
  :func:`~repro.api.registry.register_method` without editing core modules.
* :class:`~repro.api.config.EngineConfig` -- one validated, serializable
  configuration object unifying the SimRank parameters with the rewrite
  front-end knobs (bid-term filtering, dedup, candidate pool, max rewrites).
* :class:`~repro.api.engine.RewriteEngine` -- the fit -> serve facade: fit a
  similarity method on a click graph once (offline), then serve top-k
  rewrite lists from one serving table with O(1) repeated lookups (online), matching the paper's
  offline-computation / online-serving deployment story (Section 9.3).

Choosing a backend
------------------

The SimRank family ships five interchangeable backends, selected with
``EngineConfig(backend=...)`` (or ``--backend`` on the experiments CLI); all
compute the same fixpoint and agree within 1e-6 -- the standing
``tests/equivalence/`` harness asserts exactly that for every mode (the
``sparse`` backend with truncation disabled, its default).  When in doubt,
pick ``auto`` and let the planner decide from the graph's shape.

``reference``
    The node-pair implementations that follow the paper's equations
    literally.  Slowest (Python double loops), but they expose per-iteration
    traces; use them for tiny graphs, debugging and paper-table
    reproduction.
``matrix``
    One dense numpy fixpoint over the whole node set: the shared fixpoint of
    :mod:`repro.core.simrank_kernel` on its dense adapter.  The right choice
    for a single well-connected component of up to a few thousand nodes --
    the dense products are BLAS-fast but cost O(n^2) memory regardless of
    structure.
``sharded``
    Decomposes the click graph into connected components and runs a
    whole-graph engine per component, stitching the per-component score
    matrices block-diagonally (cross-component pairs provably score zero).
    The right choice for realistic click graphs, which are highly
    disconnected: memory and time scale with the largest component, not the
    whole graph, and independent components can be fitted on a thread pool
    (``ShardedSimrank(n_jobs=...)``).  ``ShardedSimrank(inner_backend=
    "sparse")`` composes sharding with the sparse engine below.
    ``benchmarks/bench_sharded_backend.py`` gates the speedup (>= 2x over
    ``matrix`` on a 10-component graph).
``sparse``
    The same Jacobi iteration -- the one in :mod:`repro.core.simrank_kernel`,
    on its CSR adapter -- on ``scipy.sparse`` CSR matrices, so each
    iteration costs work proportional to the *nonzeros* of the score
    matrices instead of n^2 -- the right choice for huge sparse click graphs
    even when they are well connected.  Two pruning knobs on
    ``SimrankConfig`` bound fill-in: ``prune_threshold`` drops entries below
    an epsilon after every iteration and ``prune_top_k`` caps the retained
    entries per row.  Both default to off, which makes the computation exact
    (the same fixpoint as ``matrix`` to machine precision); with pruning on, scores
    are approximate -- a dropped entry perturbs downstream scores by at most
    ``prune_threshold * c / (1 - c)`` per endpoint -- but top-k *serving* is
    unaffected as long as ``prune_top_k`` comfortably exceeds the rewrite
    depth.  ``benchmarks/bench_sparse_backend.py`` gates the speedup (>= 3x
    over ``matrix`` on a 1500-node sparse scenario, measured ~14x) and
    records the ``BENCH_sparse_backend.json`` perf trajectory.
``auto``
    A planner (:mod:`repro.core.planner`) that inspects the click graph at
    fit time -- component-size histogram, bipartite density, node count --
    and runs whichever of the above the shape favours: one dense or sparse
    fit for (near-)single-component graphs, or the sharded engine with a
    dense/sparse inner engine chosen *per shard*.  The decision is recorded
    in an inspectable :class:`~repro.core.planner.PlanReport`
    (``engine.plan_report``, persisted in snapshot manifests, printed by
    ``simrankpp-experiments --backend auto``).  Scores are identical to the
    fixed backend the plan names.  ``benchmarks/bench_backend_auto.py``
    gates auto within ~10% of the best fixed backend per scenario.

Parallel fitting
----------------

The sharded and auto backends fit independent components on a worker pool:
``EngineConfig(n_jobs=N)`` (or ``ShardedSimrank(n_jobs=...)``) sets the
worker count, with ``-1`` meaning one worker per *available* CPU --
affinity-aware via :func:`repro.core.parallel.available_cpu_count`, so
cgroup-restricted containers are not oversubscribed.  ``executor=`` picks
the pool flavour: ``"thread"`` (cheap, GIL-bound outside numpy),
``"process"`` (true multi-core: shards are batched into cost-balanced
picklable payloads, warm-start seeds shipped per shard) or ``"auto"`` (the
default -- processes only when the estimated work amortises the fork/pickle
overhead).  ``benchmarks/bench_backend_auto.py`` gates ``n_jobs=4`` process
fitting at >= 2.5x a single-core fit on a many-component graph.

Every method and backend serves scores through one container,
:class:`~repro.core.scores_array.ArraySimilarityScores`, which wraps the
final score matrix directly.

Snapshots and the serving table
-------------------------------

The fit -> serve split survives process restarts: ``engine.save(path)``
writes a versioned snapshot (the CSR score store via
``scipy.sparse.save_npz`` plus a JSON manifest with the ``EngineConfig``,
bid terms and fit metadata), and ``RewriteEngine.load(path)`` revives a
servable engine *without refitting* -- identical rewrite lists, for every
backend.
:class:`~repro.api.snapshot.EngineSnapshotStore` manages named snapshots
under one directory, the eval harness and ``simrankpp-experiments``
(``--save-engine`` / ``--load-engine``) wire it end to end, and
``benchmarks/bench_engine_snapshot.py`` gates snapshot loading at >= 20x
faster than refitting.

Incremental refresh
-------------------

Production click graphs change continuously; a full refit per change is the
cold path.  ``engine.refresh(delta)`` takes a
:class:`~repro.graph.delta.ClickGraphDelta` (captured with
``ClickGraphDelta.between(old, new)`` or recorded with
:class:`~repro.graph.delta.DeltaBuilder`), applies it to the bound graph,
refits warm-started from the current scores -- the sharded backend refits
*only* the components an edge change touched and reuses the rest verbatim
-- and drops only the serving-table entries whose results could have
changed.  Snapshots double as warm-start seeds:
:func:`~repro.api.snapshot.warm_start_from_snapshot` (or
``RewriteEngine.load(path).fit(graph, warm_start=True)``) refits a revived
engine on a moved graph in a handful of iterations.
``benchmarks/bench_engine_refresh.py`` gates refresh at >= 5x faster than
a cold refit on a delta touching <= 10% of components.

The engine's one serving table holds at most one rewrite list per row of
the fitted score store: a query is computed on its first lookup and then
served from the table, while queries without a score row get an empty list
and no entry.  The table is therefore bounded by the fit, not by the
traffic, and needs no size knob.

Serving stores and the engine-source resolver
---------------------------------------------

Serving does not even require the score matrix resident:
``engine.export_store(path)`` materializes the per-query rewrite lists
into a single-file SQLite serving store (ranked inside the database by a
window-function query under the exact in-memory tie-break, then filtered
by the real Section 9.3 pipeline -- :mod:`repro.store`), and
``RewriteEngine.from_store(path)`` revives a serving-only engine that
answers byte-equal rewrite lists via indexed point lookups, keeping no
table of its own.  :func:`repro.api.sources.resolve_engine_source` is the
one front door over every engine source -- serving store, snapshot
directory (with crash-safe sibling fallback) or fresh fit -- used by the
serving CLI and the eval harness alike.
``benchmarks/bench_sql_serving.py`` gates store-backed serving at
byte-equal profiles, p99 lookup latency within 5x of in-memory and
measurably lower peak RSS than full-snapshot serving.
"""

from repro.api.config import ConfigError, EngineConfig
from repro.api.engine import CacheInfo, Explanation, RefreshInfo, RewriteEngine
from repro.api.registry import (
    PAPER_METHODS,
    SIMRANK_BACKENDS,
    DuplicateMethodError,
    MethodSpec,
    RegistryError,
    UnknownBackendError,
    UnknownMethodError,
    available_backends,
    available_methods,
    create,
    method_spec,
    register_method,
    unregister_method,
)
from repro.api.snapshot import (
    SNAPSHOT_FORMAT_VERSION,
    EngineSnapshotStore,
    SnapshotError,
    read_snapshot,
    warm_start_from_snapshot,
    write_snapshot,
)
from repro.api.sources import ResolvedEngine, resolve_engine_source

__all__ = [
    "ResolvedEngine",
    "resolve_engine_source",
    "ConfigError",
    "EngineConfig",
    "CacheInfo",
    "Explanation",
    "RefreshInfo",
    "RewriteEngine",
    "SNAPSHOT_FORMAT_VERSION",
    "EngineSnapshotStore",
    "SnapshotError",
    "read_snapshot",
    "warm_start_from_snapshot",
    "write_snapshot",
    "PAPER_METHODS",
    "SIMRANK_BACKENDS",
    "DuplicateMethodError",
    "MethodSpec",
    "RegistryError",
    "UnknownBackendError",
    "UnknownMethodError",
    "available_backends",
    "available_methods",
    "create",
    "method_spec",
    "register_method",
    "unregister_method",
]
