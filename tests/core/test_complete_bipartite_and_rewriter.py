"""Closed-form oracle checks (Appendices A/B) and query-rewriter pipeline tests."""

import pytest

from repro.core.complete_bipartite import (
    evidence_simrank_k12_score,
    evidence_simrank_k22_score,
    simrank_k12_score,
    simrank_k22_score,
    simrank_km2_scores,
)
from repro.core.config import SimrankConfig
from repro.core.rewriter import QueryRewriter
from repro.core.simrank import BipartiteSimrank
from repro.core.similarity_base import QuerySimilarityMethod
from repro.core.scores_array import ArraySimilarityScores
from repro.synth.scenarios import complete_bipartite_graph


class TestClosedForms:
    def test_k22_closed_form_matches_iteration(self, k22_graph, paper_config):
        """Theorem A.1(i): the closed form equals the actual iteration trace."""
        simrank = BipartiteSimrank(paper_config, track_history=True).fit(k22_graph)
        for k in range(1, paper_config.iterations + 1):
            observed = simrank.result.ad_history[k - 1].score("hp.com", "bestbuy.com")
            assert observed == pytest.approx(simrank_k22_score(k), abs=1e-12)

    def test_k22_limit_below_c2(self):
        """Theorem A.1(ii): the limit never exceeds C2."""
        assert simrank_k22_score(200, c1=0.8, c2=0.8) <= 0.8
        assert simrank_k22_score(200, c1=1.0, c2=1.0) == pytest.approx(1.0, abs=1e-6)

    def test_k12_score_is_c2(self):
        assert simrank_k12_score(0) == 0.0
        for k in (1, 3, 10):
            assert simrank_k12_score(k, c2=0.7) == 0.7

    def test_evidence_closed_forms(self):
        assert evidence_simrank_k12_score(5, c2=0.8) == pytest.approx(0.4)
        assert evidence_simrank_k22_score(1) == pytest.approx(0.3)
        assert evidence_simrank_k22_score(2) == pytest.approx(0.42)

    def test_theorem_6_2_general_m(self):
        """Theorem 6.2(i): the K_{m,2} ad pair scores decrease as m grows."""
        for k in (1, 3, 7):
            scores = [simrank_km2_scores(m, k)[k][0] for m in (1, 2, 3, 5, 8)]
            assert all(earlier >= later for earlier, later in zip(scores, scores[1:]))

    def test_km2_matches_direct_iteration(self, paper_config):
        graph = complete_bipartite_graph(3, 2)
        simrank = BipartiteSimrank(paper_config, track_history=True).fit(graph)
        closed = simrank_km2_scores(3, paper_config.iterations)
        for k in range(1, paper_config.iterations + 1):
            assert simrank.result.ad_history[k - 1].score("a0", "a1") == pytest.approx(
                closed[k][0], abs=1e-12
            )
            assert simrank.result.query_history[k - 1].score("q0", "q1") == pytest.approx(
                closed[k][1], abs=1e-12
            )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            simrank_k22_score(-1)
        with pytest.raises(ValueError):
            simrank_km2_scores(0, 3)
        with pytest.raises(ValueError):
            simrank_km2_scores(2, 0)


class _FixedScoresMethod(QuerySimilarityMethod):
    """Test double with hand-written similarity scores."""

    name = "fixed"

    def __init__(self, pairs):
        super().__init__()
        self._pairs = pairs

    def _compute_query_scores(self, graph):
        return ArraySimilarityScores.from_pairs(self._pairs)


class TestQueryRewriter:
    def _method(self):
        return _FixedScoresMethod(
            {
                ("camera", "digital camera"): 0.9,
                ("camera", "cameras"): 0.85,       # stem-duplicate of the query itself
                ("camera", "photo printer"): 0.6,
                ("camera", "unbid query"): 0.55,
                ("camera", "tripod"): 0.5,
                ("camera", "pc"): 0.4,
            }
        )

    def test_pipeline_applies_dedup_bid_filter_and_cap(self, fig3_graph):
        bid_terms = {"digital camera", "photo printer", "tripod", "pc"}
        rewriter = QueryRewriter(self._method(), bid_terms=bid_terms, max_rewrites=3)
        rewriter.fit(fig3_graph)
        rewrites = rewriter.compute_rewrites("camera")
        assert rewrites.candidates() == ["digital camera", "photo printer", "tripod"]
        assert rewrites.depth == 3
        assert rewrites.covered
        ranks = [rewrite.rank for rewrite in rewrites.rewrites]
        assert ranks == [1, 2, 3]

    def test_stemming_dedup_drops_query_variants(self, fig3_graph):
        rewriter = QueryRewriter(self._method(), bid_terms=None, max_rewrites=5)
        rewriter.fit(fig3_graph)
        candidates = rewriter.compute_rewrites("camera").candidates()
        assert "cameras" not in candidates

    def test_dedup_can_be_disabled(self, fig3_graph):
        rewriter = QueryRewriter(self._method(), deduplicate=False)
        rewriter.fit(fig3_graph)
        assert "cameras" in rewriter.compute_rewrites("camera").candidates()

    def test_bid_filter_none_keeps_everything(self, fig3_graph):
        rewriter = QueryRewriter(self._method(), bid_terms=None, max_rewrites=10, candidate_pool=10)
        rewriter.fit(fig3_graph)
        assert "unbid query" in rewriter.compute_rewrites("camera").candidates()

    def test_min_score_threshold(self, fig3_graph):
        rewriter = QueryRewriter(self._method(), min_score=0.7)
        rewriter.fit(fig3_graph)
        assert rewriter.compute_rewrites("camera").candidates() == ["digital camera"]

    def test_coverage_and_depth_histogram(self, fig3_graph):
        rewriter = QueryRewriter(self._method(), max_rewrites=5)
        rewriter.fit(fig3_graph)
        queries = ["camera", "query with no rewrites"]
        assert rewriter.coverage(queries) == pytest.approx(0.5)
        histogram = rewriter.depth_histogram(queries)
        assert histogram[0] == 1
        assert sum(histogram) == 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            QueryRewriter(self._method(), max_rewrites=0)
        with pytest.raises(ValueError):
            QueryRewriter(self._method(), max_rewrites=10, candidate_pool=5)

    def test_integration_with_real_method(self, fig3_graph, paper_config):
        method = BipartiteSimrank(paper_config)
        rewriter = QueryRewriter(method, bid_terms={"digital camera", "tv", "pc"})
        rewriter.fit(fig3_graph)
        rewrites = rewriter.compute_rewrites("camera")
        assert rewrites.depth >= 2
        assert set(rewrites.candidates()) <= {"digital camera", "tv", "pc"}

    def test_compute_rewrites_memoizes_nothing(self, fig3_graph):
        """The engine's table is the only serving cache: every rewriter call
        runs the similarity top-k afresh."""
        rewriter = QueryRewriter(self._method(), max_rewrites=5).fit(fig3_graph)
        calls = {"count": 0}
        original = rewriter.method.top_rewrites

        def counting(*args, **kwargs):
            calls["count"] += 1
            return original(*args, **kwargs)

        rewriter.method.top_rewrites = counting
        first = rewriter.compute_rewrites("camera")
        assert rewriter.compute_rewrites("camera") == first
        assert calls["count"] == 2

    def test_bid_terms_match_stemming_and_casing_variants(self, fig3_graph):
        """Regression: the filter compared raw strings, dropping bid-term variants."""
        rewriter = QueryRewriter(
            self._method(),
            bid_terms={"Digital Cameras", "PRINTER PHOTO", "tripods"},
            max_rewrites=5,
        ).fit(fig3_graph)
        candidates = rewriter.compute_rewrites("camera").candidates()
        # "digital camera" / "photo printer" / "tripod" stem to the same
        # signatures as the bid terms above and must survive the filter.
        assert candidates == ["digital camera", "photo printer", "tripod"]

    def test_bid_term_reassignment_refreshes_the_filter(self, fig3_graph):
        rewriter = QueryRewriter(self._method(), bid_terms={"digital camera"}).fit(fig3_graph)
        assert rewriter.compute_rewrites("camera").candidates() == ["digital camera"]
        rewriter.bid_terms = {"tripod"}
        rewriter.clear_cache()
        assert rewriter.compute_rewrites("camera").candidates() == ["tripod"]

    def test_in_place_bid_term_mutation_refreshes_after_clear_cache(self, fig3_graph):
        """Regression: identity-based staleness missed in-place set mutations."""
        bid_terms = {"digital camera"}
        rewriter = QueryRewriter(self._method(), bid_terms=bid_terms).fit(fig3_graph)
        assert rewriter.compute_rewrites("camera").candidates() == ["digital camera"]
        bid_terms.add("tripod")
        rewriter.clear_cache()
        assert rewriter.compute_rewrites("camera").candidates() == ["digital camera", "tripod"]

    def test_explain_candidates_traces_every_fate(self, fig3_graph):
        rewriter = QueryRewriter(
            self._method(),
            bid_terms={"digital camera", "cameras", "photo printer", "tripod", "pc"},
            max_rewrites=3,
        ).fit(fig3_graph)
        decisions = {d.candidate: d for d in rewriter.explain_candidates("camera")}
        assert decisions["digital camera"].fate == "accepted"
        assert decisions["digital camera"].rank == 1
        assert decisions["cameras"].fate == "duplicate"  # stem-dup of the query
        assert decisions["unbid query"].fate == "not_in_bid_terms"
        assert decisions["pc"].fate == "beyond_max_rewrites"
