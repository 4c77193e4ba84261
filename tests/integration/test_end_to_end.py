"""End-to-end integration: serving simulator -> logs -> click graph -> rewriting -> evaluation.

This exercises the full data path of the paper's Figure 2: the back-end
serves ads and logs clicks, the logs become a click graph, the click graph
feeds weighted SimRank, and the resulting rewrites are plugged back into the
front-end and graded by the editorial judge.
"""

import pytest

from repro.core.config import SimrankConfig
from repro.api.registry import create
from repro.core.rewriter import QueryRewriter
from repro.eval.editorial import EditorialJudge
from repro.graph.storage import ClickGraphStore
from repro.search.ads import AdDatabase
from repro.search.backend import Backend
from repro.search.bids import Bid, BidDatabase
from repro.search.click_model import PositionBiasedClickModel
from repro.search.frontend import FrontEnd
from repro.search.system import SponsoredSearchSystem
from repro.search.user_model import TopicalUserModel


@pytest.fixture(scope="module")
def serving_setup(request):
    """A sponsored-search system over the tiny synthetic workload."""
    from repro.synth.yahoo_like import yahoo_like_workload

    workload = yahoo_like_workload("tiny")
    ads = AdDatabase.from_workload_ads(workload.ad_topics)
    bids = BidDatabase()
    # Advertisers bid on the queries of their own topic (one bid per ad-topic pair
    # would be enormous; one bid per query on a couple of same-topic ads suffices).
    ads_by_topic = {}
    for ad in ads:
        ads_by_topic.setdefault(ad.topic, []).append(ad.ad_id)
    for index, (query, topic) in enumerate(sorted(workload.query_topics.items())):
        candidates = ads_by_topic.get(topic, [])
        for offset in range(2):
            if candidates:
                ad_id = candidates[(index + offset) % len(candidates)]
                bids.add(Bid(query=query, ad_id=ad_id, price=1.0 + 0.1 * offset))
    click_model = PositionBiasedClickModel(decay=0.7, max_positions=4)
    backend = Backend(ads, bids, click_model=click_model, num_slots=3)
    user_model = TopicalUserModel(
        workload.topic_model, workload.query_topics, workload.ad_topics, seed=5
    )
    system = SponsoredSearchSystem(backend, user_model, click_model=click_model, seed=5)
    return workload, system, bids


def test_serving_produces_logs_and_click_graph(serving_setup):
    workload, system, bids = serving_setup
    traffic = workload.traffic[:3000]
    report = system.serve_traffic(traffic)
    assert report.queries_served == len(traffic)
    assert report.impressions > 0
    assert 0.0 < report.click_through_rate < 1.0

    graph = system.build_click_graph()
    assert graph.num_edges > 0
    assert graph.num_queries > 0
    # Every edge in the click graph has at least one click by construction.
    assert all(stats.clicks >= 1 for _, _, stats in graph.edges())


def test_click_graph_drives_useful_rewrites(serving_setup, tmp_path):
    workload, system, bids = serving_setup
    if len(system.log) == 0:
        system.serve_traffic(workload.traffic[:3000])
    graph = system.build_click_graph()

    # Persist and reload through the SQLite store, as a deployment would.
    with ClickGraphStore(tmp_path / "serving.db") as store:
        store.save_graph("simulated", graph)
        store.save_bid_terms("period", bids.bid_terms())
        graph = store.load_graph("simulated")
        bid_terms = store.load_bid_terms("period")

    config = SimrankConfig(iterations=5, zero_evidence_floor=0.1)
    method = create("weighted_simrank", config=config)
    rewriter = QueryRewriter(method, bid_terms=bid_terms, max_rewrites=5)
    rewriter.fit(graph)

    judge = EditorialJudge(workload)
    graded = []
    for query in list(graph.queries())[:30]:
        for rewrite in rewriter.compute_rewrites(query).rewrites:
            graded.append(judge.grade(query, rewrite.rewrite))
    assert graded, "expected at least some rewrites from the simulated click graph"
    # The majority of rewrites should be at least marginally related (grade <= 3):
    # the serving loop only shows ads with bids on same-topic queries.
    relevant = sum(1 for grade in graded if grade <= 3)
    assert relevant / len(graded) > 0.6


def test_rewriting_frontend_feeds_back_into_serving(serving_setup):
    workload, system, bids = serving_setup
    if len(system.log) == 0:
        system.serve_traffic(workload.traffic[:3000])
    graph = system.build_click_graph()
    config = SimrankConfig(iterations=4, zero_evidence_floor=0.1)
    rewriter = QueryRewriter(
        create("weighted_simrank", config=config),
        bid_terms=bids.bid_terms(),
        max_rewrites=3,
    ).fit(graph)
    system.frontend = FrontEnd(rewriter, max_rewrites=3)

    before = len(system.log)
    report = system.serve_query(next(iter(graph.queries())))
    assert len(system.log) > before or report == 0


def test_engine_backed_rewrite_expansion_mode(serving_setup):
    """The fit -> serve path: bootstrap traffic, fit an engine offline, attach it."""
    from repro.api.config import EngineConfig
    from repro.api.engine import RewriteEngine

    workload, system, bids = serving_setup
    if len(system.log) == 0:
        system.serve_traffic(workload.traffic[:3000])
    graph = system.build_click_graph()

    engine_config = EngineConfig(
        method="weighted_simrank",
        similarity=SimrankConfig(iterations=4, zero_evidence_floor=0.1),
        max_rewrites=3,
    )
    engine = RewriteEngine.from_graph(graph, engine_config, bid_terms=bids.bid_terms()).fit()
    engine.precompute()
    system.attach_engine(engine)

    report = system.serve_traffic(workload.traffic[:500])
    assert report.queries_served == 500
    assert report.expanded_queries > 0
    assert 0.0 < report.expansion_rate <= 1.0
    # Precomputation means serving never recomputes a known query's rewrites.
    info = engine.cache_info()
    assert info.hits > 0
    assert info.size >= graph.num_queries
