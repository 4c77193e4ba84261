"""The dense-matrix engine must agree with the reference node-pair implementations."""

import pytest

from repro.core.config import SimrankConfig
from repro.core.evidence_simrank import EvidenceSimrank
from repro.core.simrank import BipartiteSimrank
from repro.core.simrank_matrix import MatrixSimrank
from repro.core.simrank_sparse import SparseSimrank
from repro.core.weighted_simrank import WeightedSimrank
from repro.graph.click_graph import ClickGraph


def _assert_same_scores(reference, matrix, graph, tolerance=1e-9):
    queries = sorted(graph.queries(), key=repr)
    for i, first in enumerate(queries):
        for second in queries[i + 1:]:
            assert matrix.query_similarity(first, second) == pytest.approx(
                reference.query_similarity(first, second), abs=tolerance
            ), f"mismatch for pair ({first!r}, {second!r})"


class TestAgreementWithReference:
    def test_plain_simrank_matches(self, fig3_graph, paper_config):
        reference = BipartiteSimrank(paper_config).fit(fig3_graph)
        matrix = MatrixSimrank(paper_config, mode="simrank").fit(fig3_graph)
        _assert_same_scores(reference, matrix, fig3_graph)

    def test_evidence_simrank_matches(self, fig3_graph, paper_config):
        reference = EvidenceSimrank(paper_config).fit(fig3_graph)
        matrix = MatrixSimrank(paper_config, mode="evidence").fit(fig3_graph)
        _assert_same_scores(reference, matrix, fig3_graph)

    def test_weighted_simrank_matches(self, small_weighted_graph, paper_config):
        reference = WeightedSimrank(paper_config).fit(small_weighted_graph)
        matrix = MatrixSimrank(paper_config, mode="weighted").fit(small_weighted_graph)
        _assert_same_scores(reference, matrix, small_weighted_graph, tolerance=1e-8)

    def test_weighted_with_floor_matches(self, fig3_graph):
        config = SimrankConfig(iterations=5, zero_evidence_floor=0.1)
        reference = WeightedSimrank(config).fit(fig3_graph)
        matrix = MatrixSimrank(config, mode="weighted").fit(fig3_graph)
        _assert_same_scores(reference, matrix, fig3_graph, tolerance=1e-8)

    def test_agreement_on_synthetic_workload_subgraph(self, tiny_workload, paper_config):
        from repro.graph.components import largest_component

        graph = largest_component(tiny_workload.click_graph)
        reference = BipartiteSimrank(paper_config).fit(graph)
        matrix = MatrixSimrank(paper_config, mode="simrank").fit(graph)
        # Spot-check a handful of pairs rather than all O(n^2).
        queries = sorted(graph.queries(), key=repr)[:12]
        for i, first in enumerate(queries):
            for second in queries[i + 1:]:
                assert matrix.query_similarity(first, second) == pytest.approx(
                    reference.query_similarity(first, second), abs=1e-9
                )


class TestMatrixEngineBehaviour:
    def test_mode_validation(self, paper_config):
        with pytest.raises(ValueError):
            MatrixSimrank(paper_config, mode="bogus")

    def test_reported_name_follows_mode(self, paper_config):
        assert MatrixSimrank(paper_config, mode="simrank").name == "simrank"
        assert MatrixSimrank(paper_config, mode="evidence").name == "evidence_simrank"
        assert MatrixSimrank(paper_config, mode="weighted").name == "weighted_simrank"

    def test_empty_graph(self, paper_config):
        method = MatrixSimrank(paper_config).fit(ClickGraph())
        assert len(method.similarities()) == 0

    def test_ad_similarity_and_matrix_access(self, fig3_graph, paper_config):
        method = MatrixSimrank(paper_config, mode="simrank").fit(fig3_graph)
        assert method.ad_similarity("hp.com", "hp.com") == 1.0
        assert method.ad_similarity("hp.com", "bestbuy.com") > 0.0
        assert method.ad_similarity("hp.com", "unknown-ad") == 0.0
        matrix, index = method.query_matrix()
        assert matrix.shape == (len(index), len(index))

    def test_min_score_threshold_drops_tiny_scores(self, fig3_graph, paper_config):
        strict = MatrixSimrank(paper_config, mode="simrank", min_score=0.5).fit(fig3_graph)
        loose = MatrixSimrank(paper_config, mode="simrank", min_score=1e-12).fit(fig3_graph)
        assert len(strict.similarities()) <= len(loose.similarities())


class TestToleranceEarlyExit:
    """``SimrankConfig.tolerance`` must actually cut iterations short."""

    @pytest.fixture
    def fast_decay_config(self):
        # c = 0.6 makes the per-iteration delta shrink fast enough that a
        # 1e-3 tolerance triggers well before the 30-iteration budget.
        return SimrankConfig(c1=0.6, c2=0.6, iterations=30)

    def test_fewer_iterations_actually_run(self, fig3_graph, fast_decay_config):
        full = MatrixSimrank(fast_decay_config, mode="simrank").fit(fig3_graph)
        early = MatrixSimrank(
            SimrankConfig(c1=0.6, c2=0.6, iterations=30, tolerance=1e-3),
            mode="simrank",
        ).fit(fig3_graph)
        assert full.iterations_run == 30
        assert early.iterations_run < full.iterations_run

    def test_early_exit_scores_match_full_run_within_tolerance(
        self, fig3_graph, fast_decay_config
    ):
        full = MatrixSimrank(fast_decay_config, mode="simrank").fit(fig3_graph)
        early = MatrixSimrank(
            SimrankConfig(c1=0.6, c2=0.6, iterations=30, tolerance=1e-3),
            mode="simrank",
        ).fit(fig3_graph)
        # Residual after stopping is bounded by tolerance * c / (1 - c).
        assert full.similarities().max_difference(early.similarities()) < 2e-3

    def test_zero_tolerance_never_exits_early(self, fig3_graph, fast_decay_config):
        method = MatrixSimrank(fast_decay_config, mode="simrank").fit(fig3_graph)
        assert method.iterations_run == fast_decay_config.iterations


class TestEvidenceMatrixHoisting:
    """The evidence factors depend only on the graph: one computation per fit.

    Both adapters of the shared fixpoint build them through the kernel's one
    evidence builder, so the count is checked for the dense and the CSR one.
    """

    @pytest.fixture
    def evidence_call_counter(self, monkeypatch):
        import repro.core.simrank_kernel as module

        calls = []
        original = module._evidence_factors

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "_evidence_factors", counting)
        return calls

    @pytest.mark.parametrize("engine", [MatrixSimrank, SparseSimrank])
    @pytest.mark.parametrize("mode", ["weighted", "evidence"])
    def test_computed_once_per_side_not_per_iteration(
        self, fig3_graph, evidence_call_counter, mode, engine
    ):
        config = SimrankConfig(iterations=6, zero_evidence_floor=0.1)
        engine(config, mode=mode).fit(fig3_graph)
        assert len(evidence_call_counter) == 2  # query side + ad side

    @pytest.mark.parametrize("engine", [MatrixSimrank, SparseSimrank])
    def test_plain_simrank_never_computes_evidence(
        self, fig3_graph, paper_config, evidence_call_counter, engine
    ):
        engine(paper_config, mode="simrank").fit(fig3_graph)
        assert evidence_call_counter == []


class TestAdaptersShareTheLoop:
    """Exact dense and exact CSR fits run the one loop to the same exit."""

    @pytest.mark.parametrize("mode", ["simrank", "evidence", "weighted"])
    def test_same_iterations_under_tolerance_early_exit(self, mode):
        from repro.synth.scenarios import multi_component_graph

        graph = multi_component_graph(
            num_components=3, queries_per_component=5, ads_per_component=4,
            extra_edges=4, seed=23,
        )
        config = SimrankConfig(
            c1=0.6, c2=0.6, iterations=60, tolerance=1e-6, zero_evidence_floor=0.1
        )
        dense = MatrixSimrank(config, mode=mode, min_score=0).fit(graph)
        exact_csr = SparseSimrank(config, mode=mode, min_score=0, top_k=0).fit(graph)
        assert dense.iterations_run < config.iterations
        assert dense.iterations_run == exact_csr.iterations_run
        assert dense.similarities().max_difference(exact_csr.similarities()) < 1e-12


class TestIsolatedNodeSkipping:
    """Zero-degree nodes stay out of the dense iteration entirely."""

    @pytest.fixture
    def fig3_with_isolates(self, fig3_graph):
        fig3_graph.add_query("never clicked")
        fig3_graph.add_ad("never-shown.com")
        return fig3_graph

    def test_isolated_nodes_not_in_matrices(self, fig3_with_isolates, paper_config):
        method = MatrixSimrank(paper_config, mode="simrank").fit(fig3_with_isolates)
        matrix, index = method.query_matrix()
        assert "never clicked" not in index
        assert matrix.shape == (5, 5)  # the five connected Figure 3 queries

    def test_isolated_nodes_still_score_correctly(self, fig3_with_isolates, paper_config):
        method = MatrixSimrank(paper_config, mode="simrank").fit(fig3_with_isolates)
        assert method.query_similarity("never clicked", "never clicked") == 1.0
        assert method.query_similarity("never clicked", "camera") == 0.0
        assert method.ad_similarity("never-shown.com", "never-shown.com") == 1.0
        assert method.ad_similarity("never-shown.com", "hp.com") == 0.0

    @pytest.mark.parametrize("mode", ["simrank", "evidence", "weighted"])
    def test_connected_scores_unchanged_by_isolates(self, fig3_graph, paper_config, mode):
        config = SimrankConfig(
            c1=paper_config.c1, c2=paper_config.c2,
            iterations=paper_config.iterations, zero_evidence_floor=0.1,
        )
        plain = MatrixSimrank(config, mode=mode).fit(fig3_graph)
        padded_graph = fig3_graph.copy()
        for extra in range(5):
            padded_graph.add_query(f"isolated q{extra}")
            padded_graph.add_ad(f"isolated-a{extra}.com")
        padded = MatrixSimrank(config, mode=mode).fit(padded_graph)
        assert plain.similarities().max_difference(padded.similarities()) == 0.0
