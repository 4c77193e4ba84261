"""Store-backed RewriteEngine: serving parity, typed errors, /stats wiring."""

from __future__ import annotations

import asyncio

import pytest

from repro.api.config import EngineConfig
from repro.api.engine import RewriteEngine
from repro.core.config import SimrankConfig
from repro.serving import EngineHolder, RewriteServer, request_once
from repro.store import ServingOnlyEngineError


def build_engine(graph, **config_kwargs):
    config = EngineConfig(
        method="weighted_simrank",
        similarity=SimrankConfig(iterations=7, tolerance=1e-8),
        **config_kwargs,
    )
    return RewriteEngine.from_graph(
        graph, config, bid_terms={str(q) for q in graph.queries()}
    ).fit()


@pytest.fixture
def engine(small_weighted_graph):
    return build_engine(small_weighted_graph)


@pytest.fixture
def served(engine, tmp_path):
    return RewriteEngine.from_store(engine.export_store(tmp_path / "s.sqlite"))


class TestStoreBackedServing:
    def test_every_lookup_reads_the_store(self, engine, served):
        assert served.rewrite("camera") == engine.rewrite("camera")
        assert served.rewrite("camera") == engine.rewrite("camera")
        info = served.cache_info()
        # No serving table: both calls are store lookups.
        assert (info.hits, info.misses, info.size) == (0, 2, 0)
        assert served.serving_store.lookups == 2

    def test_expansions_and_batch(self, engine, served):
        assert served.expansions("camera") == engine.expansions("camera")
        batch = ["camera", "pc", "camera"]
        assert served.rewrite_batch(batch) == engine.rewrite_batch(batch)

    def test_unhashable_queries_serve_what_the_fitted_engine_serves(
        self, engine, served
    ):
        """The ServingStore contract: unknown input answers an empty list,
        matching the fitted engine."""
        queries = [["camera"], "camera", ["camera"]]
        assert served.rewrite(["camera"]) == engine.rewrite(["camera"])
        assert served.rewrite_batch(queries) == engine.rewrite_batch(queries)
        assert served.serving_profile(queries) == engine.serving_profile(queries)

    def test_is_fitted_and_repr(self, served):
        assert served.is_fitted
        assert "store-backed (sqlite)" in repr(served)

    def test_precompute_is_a_no_op_without_a_table(self, served):
        assert served.precompute() == 0
        assert served.cache_info().size == 0
        assert served.serving_store.lookups == 0

    def test_from_store_rebuilds_recorded_config(self, engine, served):
        assert served.config.to_dict() == engine.config.to_dict()

    def test_copy_shares_the_store(self, served):
        clone = served.copy()
        assert clone.serving_store is served.serving_store
        assert clone.rewrite("camera") == served.rewrite("camera")

    @pytest.mark.parametrize(
        "operation, args",
        [
            ("fit", ()),
            ("refresh", (None,)),
            ("save", ("somewhere",)),
            ("explain", ("camera", "digital camera")),
            ("export_store", ("somewhere.sqlite",)),
        ],
    )
    def test_control_plane_raises_typed_error(self, served, operation, args):
        with pytest.raises(ServingOnlyEngineError, match=operation):
            getattr(served, operation)(*args)


class TestStoreBackedServer:
    def test_server_serves_and_stats_reports_the_store(self, engine, served):
        async def scenario():
            async with RewriteServer(EngineHolder(served)) as server:
                address = server.address
                rewrite = await request_once(
                    address[0], address[1], "POST", "/rewrite", {"query": "camera"}
                )
                stats = await request_once(address[0], address[1], "GET", "/stats")
                return rewrite, stats

        (status_r, payload), (status_s, stats) = asyncio.run(scenario())
        assert status_r == 200
        expected = [
            {"rewrite": r.rewrite, "rank": r.rank, "score": r.score}
            for r in engine.rewrite("camera").rewrites
        ]
        assert payload["rewrites"] == expected
        assert status_s == 200
        store_stats = stats["engine"]["store"]
        assert store_stats["kind"] == "sqlite"
        assert store_stats["lookups"] == 1
        assert store_stats["empty_lookups"] == 0

    def test_direct_engines_report_no_store(self, engine):
        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                return await request_once(*server.address, "GET", "/stats")

        status, stats = asyncio.run(scenario())
        assert status == 200
        assert stats["engine"]["store"] is None

    def test_reload_accepts_a_store_file(self, engine, tmp_path):
        store_path = engine.export_store(tmp_path / "rewrites.sqlite")
        holder = EngineHolder(engine)

        async def scenario():
            async with RewriteServer(holder) as server:
                host, port = server.address
                reloaded = await request_once(
                    host, port, "POST", "/reload", {"path": str(store_path)}
                )
                served = await request_once(
                    host, port, "POST", "/rewrite", {"query": "camera"}
                )
                stats = await request_once(host, port, "GET", "/stats")
                return reloaded, served, stats

        (status_l, reloaded), (status_r, served), (_, stats) = asyncio.run(scenario())
        assert status_l == 200
        assert reloaded["version"] == 2
        assert status_r == 200
        expected = [
            {"rewrite": r.rewrite, "rank": r.rank, "score": r.score}
            for r in engine.rewrite("camera").rewrites
        ]
        assert served["rewrites"] == expected
        assert stats["engine"]["store"]["kind"] == "sqlite"

    def test_corrupt_store_reload_is_clean_error_never_retried(
        self, engine, tmp_path
    ):
        junk = tmp_path / "junk.sqlite"
        junk.write_bytes(b"this is not a sqlite database, not even close!")
        holder = EngineHolder(engine)

        async def scenario():
            async with RewriteServer(holder) as server:
                host, port = server.address
                reloaded = await request_once(
                    host, port, "POST", "/reload", {"path": str(junk)}
                )
                served = await request_once(
                    host, port, "POST", "/rewrite", {"query": "camera"}
                )
                stats = await request_once(host, port, "GET", "/stats")
                return reloaded, served, stats

        (status_l, reloaded), (status_r, _), (_, stats) = asyncio.run(scenario())
        assert status_l == 500
        assert "store rejected" in reloaded["error"]
        assert holder.version == 1, "the corrupt reload must publish nothing"
        assert status_r == 200, "old engine must keep serving"
        assert stats["health"]["publish"]["failures"] == 1, (
            "a corrupt store file is permanent for its input: never retried"
        )
        assert "StoreError" in stats["health"]["publish"]["last_error"]
