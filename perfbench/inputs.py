"""Workload inputs, made from the workload seed and nothing else.

The program receives only these: a click graph and bid terms as files, a
request schedule, and for the refresh workload a list of graph deltas.
The same seed gives the same inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

#: Zipf exponent of query popularity (the Adjacent experiment's choice).
ZIPF_ALPHA = 1.2

#: The one-component giant graph (ROADMAP item 2's scenario).  It is one
#: fixed graph, so its lists can be checked against one recorded reference;
#: the workload seed orders the materialization.
GIANT_GRAPH = dict(
    num_components=1,
    queries_per_component=3000,
    ads_per_component=2000,
    extra_edges=3000,
    seed=13,
)

#: ``bench_engine_refresh``'s 10-component graph.
REFRESH_GRAPH = dict(
    num_components=10, queries_per_component=200, ads_per_component=130, extra_edges=600
)


def write_graph(graph, bids: Sequence[str], directory: Path) -> Tuple[Path, Path]:
    from repro.graph.io import write_edges_jsonl

    graph_path, bids_path = directory / "graph.jsonl", directory / "bids.json"
    write_edges_jsonl(graph, graph_path)
    bids_path.write_text(json.dumps(sorted(bids)))
    return graph_path, bids_path


def serve_hot_graph(seed: int):
    """The yahoo-like ``small`` universe: (graph, bid terms)."""
    from repro.synth.yahoo_like import yahoo_like_workload

    workload = yahoo_like_workload("small", seed=seed)
    return workload.click_graph, sorted(workload.bid_terms)


def giant_graph():
    from repro.synth.scenarios import multi_component_graph

    graph = multi_component_graph(**GIANT_GRAPH)
    return graph, sorted(str(query) for query in graph.queries())


def refresh_graph(seed: int):
    from repro.synth.scenarios import multi_component_graph

    graph = multi_component_graph(**REFRESH_GRAPH, seed=seed)
    return graph, sorted(str(query) for query in graph.queries())


def popularity(queries: Sequence[str], seed: int) -> List[str]:
    """The query universe, hottest first, in a seeded order."""
    ranked = sorted(queries)
    random.Random(f"popularity:{seed}").shuffle(ranked)
    return ranked


def zipf_queries(ranked: Sequence[str], count: int, rng: random.Random) -> List[str]:
    """``count`` queries drawn with Zipf(:data:`ZIPF_ALPHA`) popularity by rank."""
    weights = [(rank + 1) ** -ZIPF_ALPHA for rank in range(len(ranked))]
    return rng.choices(ranked, weights=weights, k=count)


def open_schedule(
    ranked: Sequence[str], rate: float, seconds: float, seed: str
) -> List[Tuple[float, str]]:
    """Poisson arrivals at ``rate`` per second of Zipf-popular queries.

    Independent users: the gaps between sends are exponential with mean
    ``1 / rate``, so requests bunch and queue as real traffic does.
    """
    rng = random.Random(seed)
    offsets: List[float] = []
    offset = rng.expovariate(rate)
    while offset < seconds:
        offsets.append(offset)
        offset += rng.expovariate(rate)
    return list(zip(offsets, zipf_queries(ranked, len(offsets), rng)))


def refresh_deltas(graph, count: int, seed: int) -> List[Dict[str, object]]:
    """``count`` single-component deltas, each valid after the ones before it.

    Delta ``k`` re-weights three seeded edges of component ``k % 10``: the
    steady trickle of click-statistics updates a serving fleet absorbs.
    """
    from repro.graph.delta import DeltaBuilder
    from repro.serving.server import delta_to_payload

    rng = random.Random(f"deltas:{seed}")
    graph = graph.copy()
    components = REFRESH_GRAPH["num_components"]
    by_component: Dict[int, List[Tuple[str, str]]] = {}
    for query, ad, _ in sorted(graph.edges()):
        by_component.setdefault(int(query.split("_")[0][1:]), []).append((query, ad))
    payloads = []
    for index in range(count):
        builder = DeltaBuilder(graph)
        for query, ad in rng.sample(by_component[index % components], 3):
            stats = graph.edge(query, ad)
            builder.set_edge(
                query,
                ad,
                impressions=stats.impressions + 10,
                clicks=stats.clicks + 1,
                expected_click_rate=stats.expected_click_rate,
            )
        delta = builder.build()
        graph.apply_delta(delta)
        payloads.append(delta_to_payload(delta))
    return payloads
