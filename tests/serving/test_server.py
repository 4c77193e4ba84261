"""RewriteServer: endpoints, micro-batching, refresh-under-traffic consistency.

The concurrency test here is the serving tier's acceptance contract: N
async clients hammer ``/rewrite`` while refresh and hot-reload cycles swap
the engine underneath them, and every single response must (a) succeed and
(b) exactly match the ground-truth ``rewrite()`` output of the one engine
version that served it -- pre- or post-swap, never a mixture.
"""

import asyncio

import pytest

from repro.api.config import EngineConfig
from repro.api.engine import RewriteEngine
from repro.core.config import SimrankConfig
from repro.graph.delta import DeltaBuilder
from repro.serving import server as server_module
from repro.serving import (
    EngineHolder,
    RewriteServer,
    ServerConfig,
    ZipfSchedule,
    delta_to_payload,
    request_once,
    run_load,
)


def build_engine(graph, tolerance=1e-8):
    config = EngineConfig(
        method="weighted_simrank",
        similarity=SimrankConfig(iterations=30, tolerance=tolerance),
        bid_filtering=False,
    )
    return RewriteEngine.from_graph(graph, config).fit()


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def engine(small_weighted_graph):
    return build_engine(small_weighted_graph)


class TestEndpoints:
    def test_healthz_reports_version_and_fitted(self, engine):
        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                return await request_once(*server.address, "GET", "/healthz")

        status, payload = run(scenario())
        assert status == 200
        assert payload["status"] == "healthy"
        assert payload["version"] == 1
        assert payload["fitted"] is True
        assert payload["breaker"] == "closed"
        assert payload["staleness_s"] >= 0.0

    def test_rewrite_matches_engine_ground_truth(self, engine):
        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                return await request_once(
                    *server.address, "POST", "/rewrite", {"query": "camera"}
                )

        status, payload = run(scenario())
        assert status == 200
        assert payload["version"] == 1
        expected = [
            {"rewrite": r.rewrite, "rank": r.rank, "score": r.score}
            for r in engine.rewrite("camera").rewrites
        ]
        assert payload["rewrites"] == expected

    def test_rewrite_batch_is_aligned_and_single_version(self, engine):
        queries = ["camera", "pc", "camera", "flower"]

        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                return await request_once(
                    *server.address, "POST", "/rewrite_batch", {"queries": queries}
                )

        status, payload = run(scenario())
        assert status == 200
        assert [row["query"] for row in payload["results"]] == queries
        # Duplicates in one batch serve byte-identical rewrites.
        assert payload["results"][0]["rewrites"] == payload["results"][2]["rewrites"]

    def test_refresh_swaps_version_and_serves_new_state(self, engine):
        delta = (
            DeltaBuilder(engine.graph)
            .set_edge("tablet", "bestbuy.com", impressions=150, clicks=15)
            .build()
        )

        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                address = server.address
                before = await request_once(
                    address[0], address[1], "POST", "/rewrite", {"query": "tablet"}
                )
                refreshed = await request_once(
                    address[0], address[1], "POST", "/refresh", delta_to_payload(delta)
                )
                after = await request_once(
                    address[0], address[1], "POST", "/rewrite", {"query": "tablet"}
                )
                return before, refreshed, after

        (status_b, before), (status_r, refreshed), (status_a, after) = run(scenario())
        assert (status_b, status_r, status_a) == (200, 200, 200)
        assert before["version"] == 1 and before["rewrites"] == []
        assert refreshed["version"] == 2
        assert refreshed["refresh"]["refit"] is True
        assert after["version"] == 2 and after["rewrites"]  # tablet now covered

    def test_reload_hot_swaps_a_snapshot(self, engine, small_weighted_graph, tmp_path):
        # Offline: a *different* fit (no flower cluster) snapshotted to disk.
        trimmed = small_weighted_graph.copy()
        trimmed.remove_edge("flower", "teleflora.com")
        trimmed.remove_edge("flower", "orchids.com")
        offline = build_engine(trimmed)
        offline.save(tmp_path / "snap")

        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                address = server.address
                reloaded = await request_once(
                    address[0],
                    address[1],
                    "POST",
                    "/reload",
                    {"path": str(tmp_path / "snap"), "precompute": True},
                )
                after = await request_once(
                    address[0], address[1], "POST", "/rewrite", {"query": "orchids"}
                )
                return reloaded, after

        (status_r, reloaded), (status_a, after) = run(scenario())
        assert status_r == 200 and reloaded["version"] == 2
        assert status_a == 200 and after["version"] == 2
        expected = [
            {"rewrite": r.rewrite, "rank": r.rank, "score": r.score}
            for r in offline.rewrite("orchids").rewrites
        ]
        assert after["rewrites"] == expected

    def test_stats_reports_batching_and_cache(self, engine):
        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                address = server.address
                for _ in range(3):
                    await request_once(
                        address[0], address[1], "POST", "/rewrite", {"query": "camera"}
                    )
                return await request_once(address[0], address[1], "GET", "/stats")

        status, stats = run(scenario())
        assert status == 200
        assert stats["requests"]["total"] == 4  # 3 rewrites + the /stats call itself
        assert stats["requests"]["by_endpoint"]["/rewrite"] == 3
        assert stats["batching"]["batches"] >= 1
        assert stats["engine"]["version"] == 1
        assert stats["engine"]["cache"]["size"] >= 1
        assert stats["latency_ms"]["count"] == 3


class TestStatsCardinality:
    def test_unknown_paths_share_one_counter(self, engine):
        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                host, port = server.address
                for i in range(300):
                    await request_once(host, port, "GET", f"/random-{i}")
                return await request_once(host, port, "GET", "/stats")

        status, stats = run(scenario())
        assert status == 200
        by_endpoint = stats["requests"]["by_endpoint"]
        assert len(by_endpoint) <= 6 + 1  # the route table's paths + "other"
        assert by_endpoint["other"] == 300
        assert stats["requests"]["by_status"]["404"] == 300


    def test_unknown_query_flood_leaves_the_table_within_the_score_rows(self, engine):
        """Regression: every distinct query string off the wire used to get
        a serving-cache entry, so random traffic grew it without bound."""
        unknown = [f"unknown-{i:05d}" for i in range(10_000)]

        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                host, port = server.address
                for start in range(0, len(unknown), 2_000):
                    batch = unknown[start:start + 2_000] + ["camera"]
                    status, _ = await request_once(
                        host, port, "POST", "/rewrite_batch", {"queries": batch}
                    )
                    assert status == 200
                return await request_once(host, port, "GET", "/stats")

        status, stats = run(scenario())
        assert status == 200
        cache = stats["engine"]["cache"]
        assert 1 <= cache["size"] <= len(engine.method.similarities().index)
        assert cache["misses"] >= len(unknown)


class TestErrors:
    def test_unknown_endpoint_404(self, engine):
        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                return await request_once(*server.address, "GET", "/nope")

        status, payload = run(scenario())
        assert status == 404 and "unknown endpoint" in payload["error"]

    def test_wrong_method_405(self, engine):
        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                return await request_once(*server.address, "GET", "/rewrite")

        status, payload = run(scenario())
        assert status == 405

    def test_missing_query_400(self, engine):
        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                return await request_once(*server.address, "POST", "/rewrite", {})

        status, payload = run(scenario())
        assert status == 400 and "query" in payload["error"]

    def test_invalid_json_400(self, engine):
        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                body = b"{not json"
                writer.write(
                    b"POST /rewrite HTTP/1.1\r\nHost: x\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                await writer.drain()
                line = await reader.readline()
                writer.close()
                return int(line.split()[1])

        assert run(scenario()) == 400

    def test_stale_delta_refresh_400_and_keeps_serving(self, engine):
        delta = DeltaBuilder(engine.graph).remove_edge("camera", "hp.com").build()

        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                address = server.address
                first = await request_once(
                    address[0], address[1], "POST", "/refresh", delta_to_payload(delta)
                )
                second = await request_once(
                    address[0], address[1], "POST", "/refresh", delta_to_payload(delta)
                )
                health = await request_once(address[0], address[1], "GET", "/healthz")
                return first, second, health

        (s1, first), (s2, second), (s3, health) = run(scenario())
        assert s1 == 200 and first["version"] == 2
        assert s2 == 400  # the same removal again no longer matches the graph
        assert s3 == 200 and health["version"] == 2  # nothing was published


async def raw_exchange(address, request: bytes):
    """Send raw bytes on a fresh connection; the response, read to EOF."""
    reader, writer = await asyncio.open_connection(*address)
    writer.write(request)
    await writer.drain()
    # EOF within the timeout proves the server closed the connection.
    response = await asyncio.wait_for(reader.read(), timeout=10)
    writer.close()
    return response


class TestMalformedFraming:
    """Framing errors answer 4xx and close; the server keeps serving."""

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"POST /rewrite HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            b"POST /rewrite HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nX-Padding: " + b"a" * 70_000 + b"\r\n\r\n",
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        ],
        ids=["content-length-abc", "content-length-negative", "long-header", "long-line"],
    )
    def test_400_then_next_connection_served(self, engine, request_bytes):
        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                response = await raw_exchange(server.address, request_bytes)
                health = await request_once(*server.address, "GET", "/healthz")
                return response, health

        response, (status, health) = run(scenario())
        head = response.split(b"\r\n\r\n", 1)[0].decode("latin-1")
        assert head.startswith("HTTP/1.1 400 ")
        assert "Connection: close" in head
        assert status == 200 and health["fitted"] is True

    def test_header_line_flood_answers_431_then_next_connection_served(self, engine):
        headers = b"".join(b"X-Flood-%d: v\r\n" % i for i in range(1000))
        flood = b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n"

        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                response = await raw_exchange(server.address, flood)
                health = await request_once(*server.address, "GET", "/healthz")
                return response, health

        response, (status, health) = run(scenario())
        head = response.split(b"\r\n\r\n", 1)[0].decode("latin-1")
        assert head.startswith("HTTP/1.1 431 ")
        assert "Connection: close" in head
        assert status == 200 and health["fitted"] is True

    def test_header_lines_up_to_the_cap_are_served(self, engine):
        headers = b"".join(b"X-Ok-%d: v\r\n" % i for i in range(99))
        request = (
            b"GET /healthz HTTP/1.1\r\n" + headers + b"Connection: close\r\n\r\n"
        )

        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                return await raw_exchange(server.address, request)

        head = run(scenario()).split(b"\r\n\r\n", 1)[0].decode("latin-1")
        assert head.startswith("HTTP/1.1 200 ")


    @pytest.mark.parametrize(
        "partial",
        [
            b"POST /rewrite HTTP/1.1\r\nContent-Length: 20\r\n",
            b'POST /rewrite HTTP/1.1\r\nContent-Length: 20\r\n\r\n{"query": ',
        ],
        ids=["headers-stalled", "body-stalled"],
    )
    def test_stalled_request_answers_408_then_next_connection_served(
        self, engine, monkeypatch, partial
    ):
        """Once the request line has arrived, headers and body must follow
        within the read deadline; a stalled client gets 408 and EOF."""
        monkeypatch.setattr(server_module, "_REQUEST_READ_TIMEOUT_S", 0.2)

        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                reader, writer = await asyncio.open_connection(*server.address)
                writer.write(partial)
                await writer.drain()
                # EOF within the timeout proves the server closed the connection.
                response = await asyncio.wait_for(reader.read(), timeout=10)
                writer.close()
                health = await request_once(*server.address, "GET", "/healthz")
                return response, health

        response, (status, health) = run(scenario())
        head = response.split(b"\r\n\r\n", 1)[0].decode("latin-1")
        assert head.startswith("HTTP/1.1 408 Request Timeout")
        assert "Connection: close" in head
        assert status == 200 and health["fitted"] is True

    def test_idle_keep_alive_wait_is_not_bounded(self, engine, monkeypatch):
        """The deadline starts at the request line: a connection idle past it
        between requests (as the load generator's are) is still served."""
        monkeypatch.setattr(server_module, "_REQUEST_READ_TIMEOUT_S", 0.2)

        async def scenario():
            async with RewriteServer(EngineHolder(engine)) as server:
                reader, writer = await asyncio.open_connection(*server.address)
                await asyncio.sleep(0.5)
                writer.write(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                await writer.drain()
                response = await asyncio.wait_for(reader.read(), timeout=10)
                writer.close()
                return response

        head = run(scenario()).split(b"\r\n\r\n", 1)[0].decode("latin-1")
        assert head.startswith("HTTP/1.1 200 ")


class TestShutdown:
    def test_stop_drains_and_refuses_new_connections(self, engine):
        async def scenario():
            server = RewriteServer(EngineHolder(engine))
            await server.start()
            host, port = server.address
            inflight = [
                asyncio.create_task(
                    request_once(host, port, "POST", "/rewrite", {"query": "camera"})
                )
                for _ in range(8)
            ]
            results = await asyncio.gather(*inflight)
            await server.stop()
            with pytest.raises(OSError):
                await asyncio.open_connection(host, port)
            return results

        results = run(scenario())
        assert all(status == 200 for status, _ in results)

    def test_stop_is_idempotent(self, engine):
        async def scenario():
            server = RewriteServer(EngineHolder(engine))
            await server.start()
            await server.stop()
            await server.stop()  # second stop is a no-op

        run(scenario())


class TestConcurrentServingWithRefreshCycles:
    """The satellite test: no errors, no torn reads, under swap churn."""

    def test_zipf_load_with_refresh_and_reload_cycles(
        self, small_weighted_graph, tmp_path
    ):
        engine = build_engine(small_weighted_graph)
        # A hot-reload candidate: an independently fitted snapshot.
        build_engine(small_weighted_graph.copy()).save(tmp_path / "snap")
        holder = EngineHolder(engine)
        # Record every published engine so responses can be verified
        # against the exact version that served them.
        engines_by_version = {holder.version: holder.engine}
        holder.add_swap_listener(
            lambda version, published: engines_by_version.setdefault(version, published)
        )
        queries = sorted(str(q) for q in small_weighted_graph.queries())
        schedule = ZipfSchedule(queries, alpha=1.2, seed=7).sample(300)

        async def refresh_cycles(server, rounds):
            # Incremental refreshes first (each needs the live click graph),
            # then a hot-reload, which swaps in the graphless snapshot engine.
            host, port = server.address
            for i in range(rounds):
                delta = (
                    DeltaBuilder(holder.engine.graph)
                    .set_edge(
                        f"hot-query-{i}", "bestbuy.com", impressions=100, clicks=10
                    )
                    .build()
                )
                status, _ = await request_once(
                    host, port, "POST", "/refresh", delta_to_payload(delta)
                )
                assert status == 200
                await asyncio.sleep(0.005)
            status, _ = await request_once(
                host, port, "POST", "/reload", {"path": str(tmp_path / "snap")}
            )
            assert status == 200

        async def scenario():
            config = ServerConfig(max_batch_size=8, batch_linger_ms=0.5)
            async with RewriteServer(holder, config) as server:
                refresher = asyncio.create_task(refresh_cycles(server, rounds=4))
                report = await run_load(
                    *server.address,
                    schedule,
                    concurrency=8,
                    record_responses=True,
                )
                await refresher
                return report

        report = run(scenario())
        assert report.failed == 0, report.errors[:3]
        assert report.succeeded == len(schedule)
        assert len(report.versions) >= 2  # swaps actually happened mid-load
        # Every response must equal the ground truth of the engine version
        # that served it -- the no-torn-reads guarantee.
        for response in report.responses:
            served_by = engines_by_version[response.version]
            expected = tuple(
                (r.rewrite, r.rank, r.score)
                for r in served_by.rewrite(response.query).rewrites
            )
            assert response.rewrites == expected, (
                f"torn read: {response.query!r} at version {response.version}"
            )
