"""RewriteEngine lifecycle, serving cache, explanations and EngineConfig."""

import pytest

from repro.api.config import EngineConfig
from repro.api.engine import RewriteEngine
from repro.core.config import EvidenceKind, SimrankConfig
from repro.graph.click_graph import WeightSource


def counting_top_rewrites(engine):
    """Wrap the engine's similarity top-k so tests can count invocations."""
    calls = {"count": 0}
    original = engine.method.top_rewrites

    def wrapper(*args, **kwargs):
        calls["count"] += 1
        return original(*args, **kwargs)

    engine.method.top_rewrites = wrapper
    return calls


class TestLifecycle:
    def test_serving_before_fit_raises(self):
        engine = RewriteEngine(EngineConfig(method="simrank"))
        with pytest.raises(RuntimeError):
            engine.rewrite("camera")
        with pytest.raises(RuntimeError):
            engine.explain("camera", "digital camera")
        with pytest.raises(RuntimeError):
            engine.precompute()

    def test_fit_without_a_graph_raises(self):
        with pytest.raises(RuntimeError):
            RewriteEngine(EngineConfig(method="simrank")).fit()

    def test_from_graph_then_fit(self, small_weighted_graph):
        engine = RewriteEngine.from_graph(small_weighted_graph, EngineConfig(method="simrank"))
        assert not engine.is_fitted
        assert engine.fit() is engine
        assert engine.is_fitted
        assert engine.graph is small_weighted_graph
        assert engine.rewrite("camera").covered

    def test_fit_accepts_a_graph_directly(self, small_weighted_graph):
        engine = RewriteEngine(EngineConfig(method="simrank")).fit(small_weighted_graph)
        assert engine.rewrite("camera").covered

    def test_refit_clears_the_cache(self, small_weighted_graph):
        engine = RewriteEngine.from_graph(small_weighted_graph, EngineConfig(method="simrank")).fit()
        engine.rewrite("camera")
        assert engine.cache_info().size == 1
        engine.fit(small_weighted_graph)
        assert engine.cache_info() == type(engine.cache_info())(hits=0, misses=0, size=0)

    def test_refit_on_a_changed_graph_serves_fresh_rewrites(self, small_weighted_graph):
        """Regression: a second fit() must empty the serving table.

        Serving a query, refitting on a graph where that query's edges changed,
        and serving again must reflect the new graph -- a stale table entry
        would silently return the first fit's rewrites.
        """
        engine = RewriteEngine.from_graph(
            small_weighted_graph, EngineConfig(method="simrank")
        ).fit()
        before = [r.rewrite for r in engine.rewrite("camera").rewrites]
        assert "digital camera" in before

        rewired = small_weighted_graph.copy()
        for ad in list(rewired.ads_of("digital camera")):
            rewired.remove_edge("digital camera", ad)
        engine.fit(rewired)
        after = [r.rewrite for r in engine.rewrite("camera").rewrites]
        assert "digital camera" not in after

    def test_out_of_band_restore_invalidates_serving_caches(
        self, small_weighted_graph
    ):
        """Swapping the method's scores via restore() must not serve a stale
        cache built on the old fit (silently mixing two fits)."""
        engine = RewriteEngine.from_graph(
            small_weighted_graph, EngineConfig(method="simrank")
        ).fit()
        before = [r.rewrite for r in engine.rewrite("camera").rewrites]
        assert "digital camera" in before

        rewired = small_weighted_graph.copy()
        for ad in list(rewired.ads_of("digital camera")):
            rewired.remove_edge("digital camera", ad)
        other = RewriteEngine.from_graph(
            rewired, EngineConfig(method="simrank")
        ).fit()
        engine.method.restore(other.method.similarities())
        after = [r.rewrite for r in engine.rewrite("camera").rewrites]
        assert "digital camera" not in after

    def test_unknown_method_fails_at_construction(self):
        with pytest.raises(ValueError):
            RewriteEngine(EngineConfig(method="not-a-method"))


class TestServingCache:
    @pytest.fixture
    def engine(self, small_weighted_graph):
        return RewriteEngine.from_graph(
            small_weighted_graph, EngineConfig(method="weighted_simrank")
        ).fit()

    def test_repeated_rewrites_run_topk_once(self, engine):
        calls = counting_top_rewrites(engine)
        first = engine.rewrite("camera")
        second = engine.rewrite("camera")
        assert calls["count"] == 1
        assert second is first

    def test_rewrite_batch_is_aligned_and_deduplicated(self, engine):
        calls = counting_top_rewrites(engine)
        queries = ["camera", "pc", "camera", "flower", "pc", "camera"]
        results = engine.rewrite_batch(queries)
        assert [result.query for result in results] == queries
        assert calls["count"] == 3  # one similarity scan per unique query
        info = engine.cache_info()
        assert info.misses == 3
        assert info.hits == 3
        assert info.size == 3
        assert info.hit_rate == pytest.approx(0.5)

    def test_precompute_warms_every_graph_query(self, engine, small_weighted_graph):
        warmed = engine.precompute()
        assert warmed == len(list(small_weighted_graph.queries()))
        calls = counting_top_rewrites(engine)
        engine.rewrite_batch(sorted(str(q) for q in small_weighted_graph.queries()))
        assert calls["count"] == 0  # everything served from the cache

    def test_clear_cache_resets_counters(self, engine):
        engine.rewrite("camera")
        engine.rewrite("camera")
        engine.clear_cache()
        info = engine.cache_info()
        assert (info.hits, info.misses, info.size) == (0, 0, 0)

    def test_full_lifecycle_bookkeeping(self, engine, small_weighted_graph):
        """cache_info across precompute -> rewrite_batch -> clear_cache."""
        num_queries = len(list(small_weighted_graph.queries()))
        assert engine.precompute() == num_queries
        info = engine.cache_info()
        assert (info.misses, info.size) == (num_queries, num_queries)
        engine.rewrite_batch(["camera", "pc", "camera"])
        info = engine.cache_info()
        assert info.hits == 3
        assert info.misses == num_queries
        engine.clear_cache()
        assert engine.cache_info() == type(info)(hits=0, misses=0, size=0)

    def test_precompute_skips_queries_already_in_the_table(self, engine):
        engine.rewrite("camera")
        assert engine.precompute(["camera", "pc", "pc"]) == 1
        assert engine.cache_info().size == 2

    def test_unknown_queries_get_no_scan_and_no_entry(self, engine):
        """Queries without a score row never enter the table, so a flood of
        them cannot grow it; they are answered with an empty list."""
        calls = counting_top_rewrites(engine)
        results = engine.rewrite_batch([f"unknown-{i}" for i in range(50)])
        assert all(not result.covered for result in results)
        assert [result.query for result in results] == [f"unknown-{i}" for i in range(50)]
        assert calls["count"] == 0
        info = engine.cache_info()
        assert (info.size, info.misses) == (0, 50)
        assert engine.precompute(["unknown-0"]) == 0

    def test_unknown_queries_serve_what_the_pipeline_computes(self, engine):
        for query in ("unknown", "", 42):
            assert engine.rewrite(query).as_tuples() == (
                engine._rewriter.compute_rewrites(query).as_tuples()
            )

    def test_unhashable_query_serves_an_empty_list(self, engine):
        calls = counting_top_rewrites(engine)
        result = engine.rewrite(["camera"])
        assert (result.query, result.rewrites) == (["camera"], [])
        assert calls["count"] == 0
        assert engine.cache_info().size == 0

    def test_unhashable_queries_in_a_batch_serve_empty_lists(self, engine):
        queries = ["camera", ["camera"], {"pc": 1}, "camera"]
        results = engine.rewrite_batch(queries)
        assert [result.query for result in results] == queries
        assert [result.covered for result in results] == [True, False, False, True]
        assert results[3] is results[0]
        assert engine.cache_info().size == 1

    def test_expansions_returns_plain_terms(self, engine):
        expansions = engine.expansions("camera", max_rewrites=2)
        assert len(expansions) <= 2
        assert all(term != "camera" for term in expansions)


class TestConcurrentServing:
    """The serving half of the thread-safety contract (see the module
    docstring of ``repro.api.engine``): rewrite()/rewrite_batch() from many
    threads against one engine stay correct and keep the table bounded."""

    def test_threaded_rewrites_match_ground_truth(self, small_weighted_graph):
        from concurrent.futures import ThreadPoolExecutor

        engine = RewriteEngine.from_graph(
            small_weighted_graph, EngineConfig(method="weighted_simrank")
        ).fit()
        queries = sorted(str(q) for q in small_weighted_graph.queries())
        expected = {q: engine.rewrite(q).as_tuples() for q in queries}
        engine.clear_cache()
        stream = [queries[(i * 7) % len(queries)] for i in range(200)]
        stream += [f"unknown-{i}" for i in range(100)]
        expected.update({f"unknown-{i}": [] for i in range(100)})

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(engine.rewrite, stream))

        for query, result in zip(stream, results):
            assert result.as_tuples() == expected[query]
        info = engine.cache_info()
        assert info.size == len(queries)  # one entry per scored query, no more
        # Double-computes under racing misses are allowed, torn counters
        # are not: every request is accounted a hit or a miss.
        assert info.hits + info.misses >= len(stream)

    def test_threaded_batches_share_one_cache_safely(self, small_weighted_graph):
        from concurrent.futures import ThreadPoolExecutor

        engine = RewriteEngine.from_graph(
            small_weighted_graph, EngineConfig(method="weighted_simrank")
        ).fit()
        queries = sorted(str(q) for q in small_weighted_graph.queries())
        expected = {q: engine.rewrite(q).as_tuples() for q in queries}
        engine.clear_cache()
        batches = [queries[i:] + queries[:i] for i in range(len(queries))] * 4

        with ThreadPoolExecutor(max_workers=6) as pool:
            all_results = list(pool.map(engine.rewrite_batch, batches))

        for batch, results in zip(batches, all_results):
            for query, result in zip(batch, results):
                assert result.as_tuples() == expected[query]
        assert engine.cache_info().size == len(queries)


class TestExplain:
    @pytest.fixture
    def engine(self, small_weighted_graph):
        return RewriteEngine.from_graph(
            small_weighted_graph,
            EngineConfig(method="weighted_simrank", max_rewrites=3),
            bid_terms={"digital camera", "pc"},
        ).fit()

    def test_accepted_rewrite(self, engine):
        explanation = engine.explain("camera", "digital camera")
        assert explanation.accepted
        assert explanation.reason == "accepted"
        assert explanation.rank == 1
        assert explanation.similarity > 0

    def test_bid_term_filtered_rewrite(self, engine):
        explanation = engine.explain("camera", "laptop")
        assert not explanation.accepted
        assert explanation.reason == "not_in_bid_terms"
        assert explanation.rank is None

    def test_unrelated_rewrite(self, engine):
        explanation = engine.explain("camera", "no-such-query")
        assert not explanation.accepted
        assert explanation.reason == "below_similarity_floor"
        assert explanation.similarity == 0.0

    def test_trace_covers_the_candidate_pool(self, engine):
        explanation = engine.explain("camera", "digital camera")
        fates = {decision.fate for decision in explanation.candidates}
        assert "accepted" in fates
        assert "not_in_bid_terms" in fates
        accepted = [decision for decision in explanation.candidates if decision.accepted]
        assert [decision.rank for decision in accepted] == list(range(1, len(accepted) + 1))

    def test_bid_filtering_can_be_disabled(self, small_weighted_graph):
        engine = RewriteEngine.from_graph(
            small_weighted_graph,
            EngineConfig(method="weighted_simrank", bid_filtering=False),
            bid_terms={"digital camera"},
        ).fit()
        candidates = engine.rewrite("camera").candidates()
        assert "laptop" in candidates or len(candidates) > 1


class TestEngineConfig:
    def test_defaults_follow_the_paper(self):
        config = EngineConfig()
        assert config.method == "weighted_simrank"
        assert config.max_rewrites == 5
        assert config.candidate_pool == 100
        assert config.deduplicate and config.bid_filtering

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": ""},
            {"max_rewrites": 0},
            {"max_rewrites": 10, "candidate_pool": 5},
            {"min_score": -0.1},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)

    def test_dict_round_trip(self):
        config = EngineConfig(
            method="evidence_simrank",
            backend="reference",
            similarity=SimrankConfig(
                c1=0.6,
                iterations=3,
                weight_source=WeightSource.CLICKS,
                evidence=EvidenceKind.EXPONENTIAL,
                zero_evidence_floor=0.1,
            ),
            max_rewrites=4,
            candidate_pool=50,
            min_score=0.05,
            deduplicate=False,
            bid_filtering=False,
        )
        payload = config.to_dict()
        assert payload["similarity"]["weight_source"] == "clicks"
        assert payload["similarity"]["evidence"] == "exponential"
        assert EngineConfig.from_dict(payload) == config

    @pytest.mark.parametrize("recorded", [None, 256])
    def test_from_dict_discards_a_recorded_cache_size(self, recorded):
        """Every 1.x/2.0 snapshot manifest and store records cache_size."""
        assert "cache_size" not in EngineConfig().to_dict()
        payload = dict(EngineConfig(max_rewrites=3).to_dict(), cache_size=recorded)
        assert EngineConfig.from_dict(payload) == EngineConfig(max_rewrites=3)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            EngineConfig.from_dict({"method": "simrank", "turbo": True})
        with pytest.raises(ValueError):
            EngineConfig.from_dict({"similarity": {"decay": 0.8}})

    def test_replace(self):
        config = EngineConfig().replace(method="simrank", max_rewrites=2)
        assert config.method == "simrank"
        assert config.max_rewrites == 2

    def test_engine_round_trips_through_to_dict(self, small_weighted_graph):
        config = EngineConfig(method="simrank", max_rewrites=2)
        engine = RewriteEngine.from_graph(small_weighted_graph, config).fit()
        clone = RewriteEngine.from_dict(engine.to_dict(), graph=small_weighted_graph).fit()
        assert clone.config == config
        assert clone.rewrite("camera").candidates() == engine.rewrite("camera").candidates()
