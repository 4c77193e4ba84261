"""Workload-shape planner behind ``backend="auto"``.

No fixed SimRank backend wins everywhere.  The repo's own trajectory data
(``benchmarks/BENCH_sparse_backend.json``) records the sparse CSR engine as a
0.73x *slowdown* against dense numpy at 375 nodes but an 11.6x speedup at
1500; the sharded engine only pays off when the graph actually decomposes
into several components.  Instead of making every caller re-derive that
folklore, :func:`plan_fit` inspects the click graph's shape -- component-size
histogram, bipartite edge density, node count -- and picks an execution
strategy:

* ``single-dense`` / ``single-sparse`` -- the graph is (nearly) one
  connected component, so sharding buys nothing; fit one engine over the
  whole graph, dense below the sparse crossover and sparse above it.
* ``sharded`` -- the graph decomposes; fit per component with a dense or
  sparse inner engine chosen *per shard* from the shard's own size, on the
  thread or process pool the workload justifies.

The decision is recorded in an inspectable :class:`PlanReport` (surfaced by
:attr:`repro.api.engine.RewriteEngine.plan_report`, persisted into snapshot
manifests, and printed by ``simrankpp-experiments --backend auto``), so "why
did auto do that?" is always answerable.  :class:`AutoSimrank` is the method
the registry instantiates for ``backend="auto"``: it plans at fit time and
delegates to the chosen concrete engine, reusing the delegate across refits
so the sharded tier's dirty-component detection keeps working under
warm-started refreshes.

All thresholds are module constants with the benchmark evidence beside them;
they are deliberately coarse -- the gate in ``benchmarks/bench_backend_auto.py``
only requires auto to stay within ~10% of the best fixed backend, not to win.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.core.config import SimrankConfig
from repro.core.parallel import pick_executor, resolve_worker_count
from repro.core.similarity_base import QuerySimilarityMethod
from repro.core.simrank_kernel import method_name
from repro.core.simrank_matrix import MatrixSimrank
from repro.core.simrank_sharded import ShardedSimrank
from repro.core.simrank_sparse import SparseSimrank
from repro.graph.click_graph import ClickGraph
from repro.graph.components import connected_components

__all__ = [
    "AutoSimrank",
    "GraphProfile",
    "PlanReport",
    "ShardDecision",
    "choose_component_backend",
    "plan_fit",
    "profile_graph",
]

Node = Hashable

#: Node count at which the sparse CSR engine overtakes dense numpy.
#: BENCH_sparse_backend.json: sparse is 0.73x at 375 nodes, 2.8x at 750 --
#: the crossover sits between, so components below this stay dense.
SPARSE_NODE_THRESHOLD = 500

#: Bipartite edge density (edges over queries*ads) above which a large
#: component stays dense anyway: at high fill the CSR products carry nearly
#: all of n^2 anyway and lose to BLAS on the same data.
DENSE_DENSITY_CEILING = 0.25

#: A graph whose largest component holds at least this fraction of the
#: edge-carrying nodes is treated as single-component: sharding would fit
#: one big shard plus crumbs, and the stitching overhead buys nothing.
SINGLE_FIT_FRACTION = 0.95

_EXECUTORS = ("thread", "process", "auto")


@dataclass(frozen=True)
class GraphProfile:
    """Shape statistics of a click graph, as the planner saw them."""

    num_queries: int
    num_ads: int
    num_edges: int
    density: float
    #: Nodes per edge-carrying component, largest first (isolated nodes are
    #: excluded: they cannot score against anything and are never fitted).
    component_sizes: Tuple[int, ...]

    @property
    def num_nodes(self) -> int:
        return self.num_queries + self.num_ads

    @property
    def num_components(self) -> int:
        return len(self.component_sizes)

    @property
    def largest_fraction(self) -> float:
        """Share of edge-carrying nodes held by the largest component."""
        total = sum(self.component_sizes)
        if total == 0:
            return 1.0
        return self.component_sizes[0] / total

    def to_dict(self) -> Dict[str, Any]:
        return {
            "num_queries": self.num_queries,
            "num_ads": self.num_ads,
            "num_edges": self.num_edges,
            "density": self.density,
            "component_sizes": list(self.component_sizes),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "GraphProfile":
        return cls(
            num_queries=int(payload["num_queries"]),
            num_ads=int(payload["num_ads"]),
            num_edges=int(payload["num_edges"]),
            density=float(payload["density"]),
            component_sizes=tuple(int(size) for size in payload["component_sizes"]),
        )


@dataclass(frozen=True)
class ShardDecision:
    """Inner backend chosen for one shard (one edge-carrying component)."""

    nodes: int
    edges: int
    backend: str

    def to_dict(self) -> Dict[str, Any]:
        return {"nodes": self.nodes, "edges": self.edges, "backend": self.backend}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ShardDecision":
        return cls(
            nodes=int(payload["nodes"]),
            edges=int(payload["edges"]),
            backend=str(payload["backend"]),
        )


@dataclass(frozen=True)
class PlanReport:
    """One ``backend="auto"`` decision, inspectable and serializable.

    Attributes
    ----------
    strategy:
        ``"single-dense"``, ``"single-sparse"`` or ``"sharded"``.
    executor:
        Resolved pool flavour for the shard fits (``"thread"`` or
        ``"process"``; single-fit strategies always report ``"thread"``).
    n_jobs:
        The caller's parallelism request, verbatim (``-1`` = all CPUs).
    workers:
        Worker count the request resolved to on this machine.
    profile:
        The graph shape the decision was made from.
    shards:
        Per-shard inner-backend decisions, largest component first
        (empty for single-fit strategies).
    rationale:
        One human-readable sentence saying why.
    """

    strategy: str
    executor: str
    n_jobs: int
    workers: int
    profile: GraphProfile
    shards: Tuple[ShardDecision, ...] = field(default_factory=tuple)
    rationale: str = ""

    def summary(self) -> str:
        """One-line rendering for CLI output and logs."""
        shape = (
            f"{self.profile.num_nodes} nodes, {self.profile.num_edges} edges, "
            f"{self.profile.num_components} components"
        )
        if self.strategy == "sharded":
            dense = sum(1 for shard in self.shards if shard.backend == "matrix")
            sparse = len(self.shards) - dense
            detail = (
                f"{len(self.shards)} shards ({dense} dense / {sparse} sparse), "
                f"executor={self.executor}, workers={self.workers}"
            )
        else:
            detail = "one fit over the whole graph"
        return f"plan: {self.strategy} [{shape}; {detail}] -- {self.rationale}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "strategy": self.strategy,
            "executor": self.executor,
            "n_jobs": self.n_jobs,
            "workers": self.workers,
            "profile": self.profile.to_dict(),
            "shards": [shard.to_dict() for shard in self.shards],
            "rationale": self.rationale,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PlanReport":
        return cls(
            strategy=str(payload["strategy"]),
            executor=str(payload["executor"]),
            n_jobs=int(payload["n_jobs"]),
            workers=int(payload["workers"]),
            profile=GraphProfile.from_dict(payload["profile"]),
            shards=tuple(
                ShardDecision.from_dict(shard) for shard in payload.get("shards", [])
            ),
            rationale=str(payload.get("rationale", "")),
        )


# ----------------------------------------------------------------- decisions


def choose_component_backend(nodes: int, edges: int) -> str:
    """Dense or sparse engine for one component of ``nodes`` / ``edges``.

    Dense below :data:`SPARSE_NODE_THRESHOLD` (small dense matrices beat CSR
    bookkeeping), and above it sparse -- unless the component is so dense
    (> :data:`DENSE_DENSITY_CEILING` of a balanced bipartite fill) that CSR
    products would carry nearly the full ``n^2`` anyway.
    """
    if nodes < SPARSE_NODE_THRESHOLD:
        return "matrix"
    possible = max((nodes / 2.0) ** 2, 1.0)  # balanced bipartite upper bound
    if edges / possible > DENSE_DENSITY_CEILING:
        return "matrix"
    return "sparse"


def profile_graph(graph: ClickGraph) -> GraphProfile:
    """Measure the shape statistics :func:`plan_fit` decides from."""
    sizes = sorted(
        (
            len(queries) + len(ads)
            for queries, ads in connected_components(graph)
            if queries and ads  # one-sided components are isolated nodes
        ),
        reverse=True,
    )
    num_queries = graph.num_queries
    num_ads = graph.num_ads
    possible = max(num_queries * num_ads, 1)
    return GraphProfile(
        num_queries=num_queries,
        num_ads=num_ads,
        num_edges=graph.num_edges,
        density=graph.num_edges / possible,
        component_sizes=tuple(sizes),
    )


def plan_fit(
    graph: ClickGraph, n_jobs: int = 1, executor: str = "auto"
) -> PlanReport:
    """Choose the execution strategy for fitting SimRank on ``graph``."""
    profile = profile_graph(graph)
    if profile.num_components <= 1 or profile.largest_fraction >= SINGLE_FIT_FRACTION:
        backend = choose_component_backend(profile.num_nodes, profile.num_edges)
        strategy = f"single-{'dense' if backend == 'matrix' else 'sparse'}"
        if profile.num_components <= 1:
            why = "the graph is a single connected component, sharding buys nothing"
        else:
            why = (
                f"the largest component holds {profile.largest_fraction:.0%} of the "
                "nodes, sharding would fit one big shard plus crumbs"
            )
        return PlanReport(
            strategy=strategy,
            executor="thread",
            n_jobs=n_jobs,
            workers=1,
            profile=profile,
            rationale=f"{why}; {profile.num_nodes} nodes fit {backend}",
        )

    decisions = []
    for queries, ads in connected_components(graph):
        if not queries or not ads:
            continue
        nodes = len(queries) + len(ads)
        edges = sum(len(graph.ads_of(query)) for query in queries)
        decisions.append(
            ShardDecision(
                nodes=nodes, edges=edges, backend=choose_component_backend(nodes, edges)
            )
        )
    decisions.sort(key=lambda decision: -decision.nodes)
    workers = resolve_worker_count(n_jobs, len(decisions))
    resolved = executor
    if resolved == "auto":
        resolved = pick_executor([decision.nodes for decision in decisions], workers)
    return PlanReport(
        strategy="sharded",
        executor=resolved,
        n_jobs=n_jobs,
        workers=workers,
        profile=profile,
        shards=tuple(decisions),
        rationale=(
            f"{profile.num_components} independent components fit per shard; "
            f"{resolved} pool over {workers} worker(s)"
        ),
    )


# ------------------------------------------------------------------- method


class AutoSimrank(QuerySimilarityMethod):
    """The ``backend="auto"`` method: plan at fit time, delegate the fit.

    Each :meth:`fit` runs :func:`plan_fit` on the incoming graph and hands
    the actual computation to the planned concrete engine
    (:class:`MatrixSimrank`, :class:`SparseSimrank` or
    :class:`ShardedSimrank` with per-shard inner choice).  The scores are
    therefore *identical* to the fixed backend the plan names -- auto only
    decides which one runs.  When consecutive fits plan the same strategy
    the delegate is kept, so warm-started refreshes retain the sharded
    tier's dirty-component reuse and the iterative engines' seeded starts.

    The decision of the last fit is exposed as :attr:`plan`.
    """

    def __init__(
        self,
        config: Optional[SimrankConfig] = None,
        mode: str = "simrank",
        min_score: float = 1e-9,
        n_jobs: int = 1,
        executor: str = "auto",
    ) -> None:
        super().__init__()
        self.name = method_name(mode)
        if n_jobs == 0 or n_jobs < -1:
            raise ValueError(f"n_jobs must be a positive integer or -1, got {n_jobs}")
        if executor not in _EXECUTORS:
            raise ValueError(f"executor must be one of {_EXECUTORS}, got {executor!r}")
        self.config = config or SimrankConfig()
        self.mode = mode
        self.min_score = min_score
        self.n_jobs = n_jobs
        self.executor = executor
        #: The :class:`PlanReport` of the last successful fit (fit-only
        #: extra: cleared by :meth:`restore`, absent on snapshot loads).
        self.plan: Optional[PlanReport] = None
        #: Whether the last fit received a warm-start seed.
        self.warm_started: bool = False
        self._delegate: Optional[QuerySimilarityMethod] = None

    # -------------------------------------------------------------- fit path

    def _compute_query_scores(self, graph: ClickGraph):
        seed = self._warm_start_scores
        plan = plan_fit(graph, n_jobs=self.n_jobs, executor=self.executor)
        delegate = self._delegate_for(plan)
        delegate.fit(graph, initial_scores=seed)
        # Publish auto-level state only after the delegate fit succeeded, so
        # a failed refit leaves the previous plan/delegate (and, via the base
        # class contract, the previous scores) untouched and still serving.
        self._delegate = delegate
        self.plan = plan
        self.warm_started = seed is not None
        return delegate.similarities()

    def _delegate_for(self, plan: PlanReport) -> QuerySimilarityMethod:
        previous = self.plan
        if (
            self._delegate is not None
            and previous is not None
            and previous.strategy == plan.strategy
        ):
            return self._delegate
        if plan.strategy == "sharded":
            return ShardedSimrank(
                config=self.config,
                mode=self.mode,
                min_score=self.min_score,
                n_jobs=self.n_jobs,
                inner_backend="auto",
                executor=self.executor,
            )
        if plan.strategy == "single-sparse":
            return SparseSimrank(config=self.config, mode=self.mode)
        return MatrixSimrank(
            config=self.config, mode=self.mode, min_score=self.min_score
        )

    # ---------------------------------------------------------------- access

    @property
    def delegate(self) -> Optional[QuerySimilarityMethod]:
        """The concrete engine the last fit ran on (None before any fit)."""
        return self._delegate

    @property
    def iterations_run(self) -> Optional[int]:
        """Iterations of the delegate's last fit, when it tracks them."""
        return getattr(self._delegate, "iterations_run", None)

    @property
    def reused_shards(self) -> Optional[int]:
        """Shards reused verbatim by a sharded delegate (else None)."""
        return getattr(self._delegate, "reused_shards", None)

    @property
    def refitted_shards(self) -> Optional[int]:
        return getattr(self._delegate, "refitted_shards", None)

    def ad_similarity(self, first: Node, second: Node) -> float:
        """Ad-side similarity under the delegate's fixpoint."""
        self._require_fitted()
        delegate = self._require_fit_extra(self._delegate, "ad-side scores")
        return delegate.ad_similarity(first, second)

    def restore(self, scores, graph=None) -> "AutoSimrank":
        """Adopt precomputed scores; the plan and delegate are fit-only."""
        super().restore(scores, graph)
        self.plan = None
        self.warm_started = False
        self._delegate = None
        return self
