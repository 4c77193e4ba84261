"""End-to-end sponsored-search pipeline on a synthetic workload.

Reproduces the data path of the paper's Figure 2:

1. generate a synthetic advertiser/query universe (ground-truth topics),
2. simulate bootstrap serving: the back-end picks bid ads, users click
   position-biased, no rewriting yet,
3. aggregate the logs into a click graph and persist it in SQLite,
4. fit a weighted-SimRank RewriteEngine on the click graph offline and attach
   it to the system, switching serving to rewrite-expansion mode,
5. grade the rewrites with the simulated editorial judge.

Run with::

    python examples/sponsored_search_pipeline.py
"""

import tempfile
from pathlib import Path

from repro import ClickGraphStore, EngineConfig, RewriteEngine, SimrankConfig
from repro.eval.editorial import EditorialJudge
from repro.eval.reporting import format_table
from repro.search.ads import AdDatabase
from repro.search.backend import Backend
from repro.search.bids import Bid, BidDatabase
from repro.search.click_model import PositionBiasedClickModel
from repro.search.system import SponsoredSearchSystem
from repro.search.user_model import TopicalUserModel
from repro.synth.yahoo_like import yahoo_like_workload


def build_bid_database(workload, ads: AdDatabase) -> BidDatabase:
    """Advertisers bid on queries of their own topic."""
    bids = BidDatabase()
    ads_by_topic = {}
    for ad in ads:
        ads_by_topic.setdefault(ad.topic, []).append(ad.ad_id)
    for index, (query, topic) in enumerate(sorted(workload.query_topics.items())):
        topic_ads = ads_by_topic.get(topic, [])
        for offset in range(3):
            if topic_ads:
                bids.add(
                    Bid(
                        query=query,
                        ad_id=topic_ads[(index + offset) % len(topic_ads)],
                        price=1.0 + 0.25 * offset,
                    )
                )
    return bids


def main() -> None:
    workload = yahoo_like_workload("tiny")
    ads = AdDatabase.from_workload_ads(workload.ad_topics)
    bids = build_bid_database(workload, ads)
    click_model = PositionBiasedClickModel(decay=0.7, max_positions=4)
    backend = Backend(ads, bids, click_model=click_model, num_slots=3)
    users = TopicalUserModel(workload.topic_model, workload.query_topics, workload.ad_topics)
    system = SponsoredSearchSystem(backend, users, click_model=click_model)

    report = system.serve_traffic(workload.traffic)
    print(
        f"bootstrap: served {report.queries_served} queries, {report.impressions} impressions, "
        f"{report.clicks} clicks (CTR {report.click_through_rate:.3f}, "
        f"{report.expanded_queries} expanded)"
    )

    graph = system.build_click_graph()
    print(f"aggregated click graph: {graph}")

    with tempfile.TemporaryDirectory() as tmp:
        store_path = Path(tmp) / "serving.db"
        with ClickGraphStore(store_path) as store:
            store.save_graph("two-week", graph)
            store.save_bid_terms("two-week", bids.bid_terms())
            graph = store.load_graph("two-week")
            bid_terms = store.load_bid_terms("two-week")
        print(f"persisted and reloaded the click graph from {store_path.name}")

    engine_config = EngineConfig(
        method="weighted_simrank",
        similarity=SimrankConfig(iterations=7, zero_evidence_floor=0.1),
        max_rewrites=5,
    )
    engine = RewriteEngine.from_graph(graph, engine_config, bid_terms=bid_terms).fit()
    engine.precompute()  # the paper's offline pass: every query pre-expanded
    system.attach_engine(engine, max_rewrites=3)

    expanded_report = system.serve_traffic(workload.traffic)
    print(
        f"rewrite-expansion mode: served {expanded_report.queries_served} queries, "
        f"{expanded_report.expanded_queries} expanded "
        f"({expanded_report.expansion_rate:.0%}), CTR {expanded_report.click_through_rate:.3f}"
    )
    info = engine.cache_info()
    print(f"serving table: {info.size} entries, hit rate {info.hit_rate:.0%}")

    judge = EditorialJudge(workload)
    rows = []
    grade_counts = {1: 0, 2: 0, 3: 0, 4: 0}
    sample_queries = sorted(graph.queries())[:12]
    for query in sample_queries:
        rewrites = engine.rewrite(query)
        graded = [(r.rewrite, judge.grade(query, r.rewrite)) for r in rewrites.rewrites]
        for _, grade in graded:
            grade_counts[grade] += 1
        rows.append(
            {
                "query": query,
                "rewrites (grade)": ", ".join(f"{rw} [{g}]" for rw, g in graded) or "(none)",
            }
        )
    print()
    print(format_table(rows, title="Weighted SimRank rewrites from the simulated click graph"))
    total = sum(grade_counts.values()) or 1
    print()
    print(
        "editorial grade distribution: "
        + ", ".join(f"{grade}: {count} ({100 * count / total:.0f}%)" for grade, count in grade_counts.items())
    )


if __name__ == "__main__":
    main()
