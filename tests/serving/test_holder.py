"""EngineHolder: copy-on-write swap semantics and the no-torn-reads contract."""

import threading

import pytest

from repro.api.config import EngineConfig
from repro.api.engine import RewriteEngine
from repro.core.config import SimrankConfig
from repro.graph.delta import DeltaBuilder
from repro.serving.holder import EngineHolder


def build_engine(graph, tolerance=1e-8):
    config = EngineConfig(
        method="weighted_simrank",
        similarity=SimrankConfig(iterations=30, tolerance=tolerance),
        bid_filtering=False,
    )
    return RewriteEngine.from_graph(graph, config).fit()


def grow_delta(graph):
    """A delta that adds a new edge inside the electronics cluster."""
    return (
        DeltaBuilder(graph)
        .set_edge("tablet", "bestbuy.com", impressions=150, clicks=15)
        .build()
    )


def profile(engine, queries):
    return engine.serving_profile(queries)


class TestSwap:
    def test_current_returns_engine_and_version_atomically(self, small_weighted_graph):
        engine = build_engine(small_weighted_graph)
        holder = EngineHolder(engine)
        current, version = holder.current()
        assert current is engine
        assert version == 1
        assert holder.engine is engine
        assert holder.version == 1

    def test_swap_bumps_version_and_publishes(self, small_weighted_graph):
        first = build_engine(small_weighted_graph)
        second = build_engine(small_weighted_graph)
        holder = EngineHolder(first)
        assert holder.swap(second) == 2
        assert holder.engine is second
        assert holder.swaps == 1

    def test_swap_listener_sees_every_publish(self, small_weighted_graph):
        holder = EngineHolder(build_engine(small_weighted_graph))
        seen = []
        holder.add_swap_listener(lambda version, engine: seen.append(version))
        holder.swap(build_engine(small_weighted_graph))
        holder.refresh(grow_delta(holder.engine.graph))
        assert seen == [2, 3]


class TestRefreshIsCopyOnWrite:
    def test_refresh_publishes_a_new_engine_object(self, small_weighted_graph):
        holder = EngineHolder(build_engine(small_weighted_graph))
        old = holder.engine
        version = holder.refresh(grow_delta(small_weighted_graph))
        assert version == 2
        assert holder.engine is not old

    def test_reader_holding_old_engine_never_observes_refresh_state(
        self, small_weighted_graph
    ):
        """The satellite contract: the published refresh mutates only a copy.

        A reader that grabbed the engine before the refresh keeps seeing the
        complete pre-refresh state -- same graph edge set, same scores, same
        serving profile -- no matter how the refresh behind it went.
        """
        holder = EngineHolder(build_engine(small_weighted_graph))
        old_engine = holder.engine
        queries = sorted(str(q) for q in small_weighted_graph.queries())
        before_profile = profile(old_engine, queries)
        before_edges = {(q, a) for q, a, _ in old_engine.graph.edges()}
        before_refresh_info = old_engine.last_refresh

        holder.refresh(grow_delta(small_weighted_graph))

        assert {(q, a) for q, a, _ in old_engine.graph.edges()} == before_edges
        assert "tablet" not in set(old_engine.graph.queries())
        assert profile(old_engine, queries) == before_profile
        assert old_engine.last_refresh is before_refresh_info
        # ... while the published engine did move forward.
        new_engine = holder.engine
        assert "tablet" in set(new_engine.graph.queries())
        assert new_engine.last_refresh is not None
        assert new_engine.last_refresh.refit

    def test_failed_refresh_publishes_nothing(self, small_weighted_graph):
        holder = EngineHolder(build_engine(small_weighted_graph))
        old_engine, old_version = holder.current()
        bad_delta = (
            DeltaBuilder(small_weighted_graph)
            .remove_edge("camera", "hp.com")
            .build()
        )
        # Make the delta stale: apply it through a refresh first, then try
        # to apply the same removal again -- the second must be rejected.
        holder.refresh(bad_delta)
        with pytest.raises((KeyError, ValueError)):
            holder.refresh(bad_delta)
        engine_after, version_after = holder.current()
        assert version_after == old_version + 1  # only the first publish
        assert engine_after is not old_engine

    def test_concurrent_refreshes_serialize_and_lose_no_delta(
        self, small_weighted_graph
    ):
        holder = EngineHolder(build_engine(small_weighted_graph))
        deltas = [
            DeltaBuilder(small_weighted_graph)
            .set_edge(f"new-query-{i}", "bestbuy.com", impressions=100, clicks=10)
            .build()
            for i in range(4)
        ]
        threads = [
            threading.Thread(target=holder.refresh, args=(delta,)) for delta in deltas
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert holder.version == 1 + len(deltas)
        served_queries = set(holder.engine.graph.queries())
        assert {f"new-query-{i}" for i in range(4)} <= served_queries


class TestReload:
    def test_reload_swaps_in_a_snapshot_engine(self, small_weighted_graph, tmp_path):
        engine = build_engine(small_weighted_graph)
        queries = sorted(str(q) for q in small_weighted_graph.queries())
        engine.save(tmp_path / "snap")
        holder = EngineHolder(build_engine(small_weighted_graph))
        version = holder.reload(tmp_path / "snap", precompute=True)
        assert version == 2
        revived = holder.engine
        assert revived.graph is None  # snapshot engines carry no graph
        assert profile(revived, queries) == profile(engine, queries)
        assert revived.cache_info().size > 0  # precompute warmed it

    def test_last_swap_seconds_is_recorded(self, small_weighted_graph):
        holder = EngineHolder(build_engine(small_weighted_graph))
        assert holder.last_swap_seconds is None
        holder.refresh(grow_delta(small_weighted_graph))
        assert holder.last_swap_seconds is not None
        assert holder.last_swap_seconds >= 0
