"""Serving rewrites from SQL, end to end (ISSUE: ``repro.store``).

The paper's offline/online split (Section 9.3) ships *top-k rewrite
lists*, not score matrices -- the online tier only ever answers "best k
rewrites for this query".  This walkthrough materializes exactly that
into a single SQLite file and serves from it:

1. **fit** a weighted-SimRank engine (the offline batch job);
2. **export** its per-query rewrite tables with
   :meth:`RewriteEngine.export_store` -- one indexed, read-only SQLite
   file, typically a fraction of the full snapshot's resident footprint;
3. **verify** a store-backed engine (:meth:`RewriteEngine.from_store`)
   serves *byte-identical* rewrites, one store lookup per query;
4. **serve** it over HTTP and read the store's lookup counters off
   ``/stats``;
5. **show the guard rails**: store-backed engines are serving-only --
   ``fit``/``refresh``/``save`` raise :class:`ServingOnlyEngineError`.

Everything is stdlib-only.  Run with::

    python examples/sql_serving_demo.py
"""

import asyncio
import tempfile
from pathlib import Path

from repro import (
    EngineConfig,
    RewriteEngine,
    ServingOnlyEngineError,
    SimrankConfig,
    yahoo_like_workload,
)
from repro.serving import EngineHolder, RewriteServer, ServerConfig, request_once


def fit_offline() -> RewriteEngine:
    """Step 1: the offline batch fit."""
    workload = yahoo_like_workload("tiny", seed=29)
    config = EngineConfig(
        method="weighted_simrank",
        similarity=SimrankConfig(iterations=10, tolerance=1e-8),
    )
    return RewriteEngine.from_graph(
        workload.click_graph, config, bid_terms=workload.bid_terms
    ).fit()


def directory_bytes(path: Path) -> int:
    return sum(child.stat().st_size for child in path.iterdir())


async def serve_from_store(store_engine: RewriteEngine, query: str) -> None:
    """Step 4: the online tier, reading rewrites straight off SQLite."""
    async with RewriteServer(EngineHolder(store_engine), ServerConfig(port=0)) as server:
        host, port = server.address
        print(f"4. serving on http://{host}:{port} (source: SQLite store)")
        status, payload = await request_once(
            host, port, "POST", "/rewrite", {"query": query}
        )
        print(f"   rewrite {query!r}: HTTP {status} {payload['rewrites']}")
        status, payload = await request_once(host, port, "GET", "/stats")
        store_stats = payload["engine"]["store"]
        print(
            f"   /stats store section: kind={store_stats['kind']}, "
            f"version {store_stats['version']}, "
            f"{store_stats['lookups']} lookups "
            f"({store_stats['empty_lookups']} empty)"
        )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        engine = fit_offline()
        print(
            f"1. fitted: {engine.graph.num_queries} queries, "
            f"{engine.graph.num_ads} ads"
        )

        snapshot_dir = engine.save(workdir / "snapshot")
        store_path = engine.export_store(workdir / "rewrites.sqlite")
        print(
            f"2. exported {store_path.name}: {store_path.stat().st_size:,} bytes "
            f"on disk (snapshot: {directory_bytes(snapshot_dir):,}); the win is "
            "resident memory -- serving reads are point lookups, the score matrix "
            "never loads (benchmarks/bench_sql_serving.py measures the gap)"
        )

        served = RewriteEngine.from_store(store_path)
        queries = served.serving_store.queries()
        assert served.serving_profile(queries) == engine.serving_profile(queries)
        print(f"3. store-backed serving byte-equal over all {len(queries)} queries")

        query = str(queries[0])
        asyncio.run(serve_from_store(served, query))

        try:
            served.refresh(None)
        except ServingOnlyEngineError as error:
            print(f"5. control plane stays offline: {error}")


if __name__ == "__main__":
    main()
