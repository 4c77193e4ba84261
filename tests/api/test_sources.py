"""resolve_engine_source: one front door over store / snapshot / fresh fit."""

from __future__ import annotations

import pytest

from repro.api.config import EngineConfig
from repro.api.engine import RewriteEngine
from repro.api.snapshot import SCORES_FILENAME, SnapshotError
from repro.api.sources import resolve_engine_source
from repro.core.config import SimrankConfig
from repro.store import SqliteServingStore, StoreError


def build_engine(graph):
    config = EngineConfig(
        method="weighted_simrank",
        similarity=SimrankConfig(iterations=7, tolerance=1e-8),
    )
    return RewriteEngine.from_graph(
        graph, config, bid_terms={str(q) for q in graph.queries()}
    ).fit()


@pytest.fixture
def engine(small_weighted_graph):
    return build_engine(small_weighted_graph)


class TestSourceValidation:
    def test_requires_exactly_one_source(self, engine, tmp_path):
        with pytest.raises(ValueError, match="exactly one"):
            resolve_engine_source()
        with pytest.raises(ValueError, match="exactly one"):
            resolve_engine_source(
                snapshot=tmp_path / "snap", graph=engine.graph
            )

    def test_config_only_applies_to_graph_sources(self, tmp_path):
        with pytest.raises(ValueError, match="graph"):
            resolve_engine_source(
                snapshot=tmp_path / "snap", config=EngineConfig()
            )


class TestGraphSource:
    def test_fits_fresh_engine(self, small_weighted_graph):
        resolved = resolve_engine_source(
            graph=small_weighted_graph,
            config=EngineConfig(method="weighted_simrank"),
            bid_terms={str(q) for q in small_weighted_graph.queries()},
        )
        assert resolved.kind == "fitted"
        assert resolved.origin is None
        assert not resolved.degraded
        assert resolved.engine.is_fitted
        assert resolved.engine.rewrite("camera").rewrites


class TestSnapshotSource:
    def test_loads_the_requested_snapshot(self, engine, tmp_path):
        engine.save(tmp_path / "snap")
        resolved = resolve_engine_source(snapshot=tmp_path / "snap")
        assert resolved.kind == "snapshot"
        assert resolved.origin == tmp_path / "snap"
        assert not resolved.degraded
        queries = engine._serving_universe()
        assert resolved.engine.serving_profile(queries) == engine.serving_profile(
            queries
        )

    def test_corrupt_snapshot_falls_back_to_newest_sibling(self, engine, tmp_path):
        engine.save(tmp_path / "good")
        corrupt = engine.save(tmp_path / "corrupt")
        (corrupt / SCORES_FILENAME).write_bytes(b"torn")
        warnings_seen = []
        resolved = resolve_engine_source(
            snapshot=corrupt, warn=warnings_seen.append
        )
        assert resolved.kind == "snapshot-sibling"
        assert resolved.degraded
        assert resolved.origin == tmp_path / "good"
        assert any("failed to load" in message for message in warnings_seen)

    def test_fallback_can_be_disabled(self, engine, tmp_path):
        engine.save(tmp_path / "good")
        corrupt = engine.save(tmp_path / "corrupt")
        (corrupt / SCORES_FILENAME).write_bytes(b"torn")
        with pytest.raises(SnapshotError):
            resolve_engine_source(snapshot=corrupt, fallback_siblings=False)

    def test_no_loadable_sibling_reraises_the_original_error(self, tmp_path):
        with pytest.raises(SnapshotError):
            resolve_engine_source(snapshot=tmp_path / "missing")


class TestStoreSource:
    def test_store_path(self, engine, tmp_path):
        store_path = engine.export_store(tmp_path / "rewrites.sqlite")
        resolved = resolve_engine_source(store=store_path)
        assert resolved.kind == "store"
        assert resolved.origin == store_path
        queries = engine._serving_universe()
        assert resolved.engine.serving_profile(queries) == engine.serving_profile(
            queries
        )

    def test_open_store_instance(self, engine, tmp_path):
        store_path = engine.export_store(tmp_path / "rewrites.sqlite")
        resolved = resolve_engine_source(store=SqliteServingStore(store_path))
        assert resolved.kind == "store"
        assert resolved.origin == store_path
        assert resolved.engine.rewrite("camera") == engine.rewrite("camera")

    def test_store_errors_propagate_without_fallback(self, tmp_path):
        with pytest.raises(StoreError):
            resolve_engine_source(store=tmp_path / "missing.sqlite")

