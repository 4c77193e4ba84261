"""Tests for the text-based and hybrid similarity extension (paper Section 11)."""

import pytest

from repro.core.config import SimrankConfig
from repro.core.hybrid import HybridSimilarity, TextSimilarity, text_similarity
from repro.core.simrank_matrix import MatrixSimrank
from repro.graph.click_graph import ClickGraph
from repro.synth.yahoo_like import yahoo_like_workload


class TestTextSimilarity:
    def test_pairwise_function(self):
        assert text_similarity("digital camera", "camera") == pytest.approx(0.5)
        assert text_similarity("digital cameras", "digital camera") == pytest.approx(1.0)
        assert text_similarity("flower", "laptop") == 0.0
        assert text_similarity("", "") == 0.0

    def test_method_over_graph(self, fig3_graph):
        method = TextSimilarity().fit(fig3_graph)
        assert method.query_similarity("camera", "digital camera") == pytest.approx(0.5)
        # "pc" and "tv" share no token, so text similarity cannot relate them.
        assert method.query_similarity("pc", "tv") == 0.0
        assert method.query_similarity("camera", "camera") == 1.0

    def test_scores_are_bounded(self, tiny_workload):
        method = TextSimilarity().fit(tiny_workload.click_graph)
        for _, _, value in method.similarities().pairs():
            assert 0.0 < value <= 1.0


class TestHybridSimilarity:
    @pytest.fixture
    def graph(self):
        graph = ClickGraph()
        graph.add_edge("camera", "hp.com", impressions=100, clicks=10)
        graph.add_edge("digital camera", "hp.com", impressions=100, clicks=10)
        graph.add_edge("pc", "dell.com", impressions=100, clicks=10)
        graph.add_edge("cheap pc", "dell.com", impressions=100, clicks=10)
        # "camera store" has no click edges shared with "camera".
        graph.add_edge("camera store", "localshop.com", impressions=50, clicks=5)
        return graph

    def test_alpha_extremes(self, graph):
        config = SimrankConfig(iterations=5)
        graph_only = HybridSimilarity(MatrixSimrank(config), alpha=1.0).fit(graph)
        text_only = HybridSimilarity(MatrixSimrank(config), alpha=0.0).fit(graph)
        pure_graph = MatrixSimrank(config).fit(graph)
        assert graph_only.query_similarity("camera", "digital camera") == pytest.approx(
            pure_graph.query_similarity("camera", "digital camera")
        )
        assert text_only.query_similarity("camera", "camera store") == pytest.approx(0.5)

    def test_hybrid_covers_pairs_from_both_components(self, graph):
        hybrid = HybridSimilarity(MatrixSimrank(SimrankConfig(iterations=5)), alpha=0.6).fit(graph)
        # Click-only relationship (no shared tokens).
        assert hybrid.query_similarity("pc", "cheap pc") > 0.0
        # Text-only relationship (no shared ads).
        assert hybrid.query_similarity("camera", "camera store") > 0.0
        graph_part, text_part = hybrid.component_scores("camera", "camera store")
        assert graph_part == 0.0 and text_part > 0.0

    def test_hybrid_is_linear_combination(self, graph):
        """``alpha * graph + (1 - alpha) * text`` on every pair of either part.

        Every pair is checked, not a sample, and the hybrid must store each
        unordered pair of the union exactly once: a pair the two component
        stores list in opposite orientations is scored once, never summed.
        """
        config = SimrankConfig(iterations=5)
        alpha = 0.3
        for click_graph in (graph, yahoo_like_workload("small").click_graph):
            hybrid = HybridSimilarity(MatrixSimrank(config), alpha=alpha).fit(click_graph)
            pure_graph = MatrixSimrank(config).fit(click_graph)
            text = TextSimilarity().fit(click_graph)
            pairs = {(a, b) for a, b, _ in pure_graph.similarities().pairs()}
            pairs |= {(a, b) for a, b, _ in text.similarities().pairs()}
            assert len(hybrid.similarities()) == len({frozenset(pair) for pair in pairs})
            for first, second in pairs:
                expected = alpha * pure_graph.query_similarity(first, second) + (
                    1 - alpha
                ) * text.query_similarity(first, second)
                assert hybrid.query_similarity(first, second) == pytest.approx(expected)

    def test_warm_start_refit_does_not_serve_stale_graph_scores(self, graph):
        """An in-place mutated graph + seeded refit must refit the inner method.

        This is the RewriteEngine.refresh pattern: the bound graph object is
        mutated in place and the method refit with ``initial_scores``; the
        identity-based reuse of a pre-fitted inner method must not keep the
        pre-mutation graph scores alive.
        """
        config = SimrankConfig(iterations=5)
        hybrid = HybridSimilarity(MatrixSimrank(config), alpha=1.0).fit(graph)
        before = hybrid.query_similarity("camera", "digital camera")

        graph.remove_edge("digital camera", "hp.com")  # in place, like refresh
        hybrid.fit(graph, initial_scores=hybrid.similarities())
        after = hybrid.query_similarity("camera", "digital camera")
        fresh = MatrixSimrank(config).fit(graph)
        assert after == pytest.approx(
            fresh.query_similarity("camera", "digital camera")
        )
        assert after != pytest.approx(before)

    def test_plain_refit_after_in_place_mutation_is_fresh_too(self, graph):
        """The unseeded path must refit the inner method as well."""
        config = SimrankConfig(iterations=5)
        hybrid = HybridSimilarity(MatrixSimrank(config), alpha=1.0).fit(graph)
        assert hybrid.query_similarity("camera", "digital camera") > 0.0
        graph.remove_edge("digital camera", "hp.com")
        hybrid.fit(graph)  # no seed: still must not serve stale inner scores
        assert hybrid.query_similarity("camera", "digital camera") == 0.0

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            HybridSimilarity(MatrixSimrank(SimrankConfig(iterations=3)), alpha=1.5)

    def test_name_mentions_components(self):
        hybrid = HybridSimilarity(MatrixSimrank(SimrankConfig(iterations=3), mode="weighted"), alpha=0.5)
        assert "weighted_simrank" in hybrid.name
