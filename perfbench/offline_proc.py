"""The offline half: fit an engine, save it, materialize rewrite lists.

Run by ``run.py``, never by hand::

    python3 perfbench/offline_proc.py snapshot --graph F --bids F --snapshot DIR --out F
    python3 perfbench/offline_proc.py giant --graph F --bids F --out F --seed N --seconds S

``snapshot`` fits the ``serve`` subcommand's default engine and saves it
for the server to revive.  ``giant`` fits the one-component giant graph
with ``backend="auto"``, prints ``READY``, then (unless ``--setup-only``)
materializes every query's rewrite list in a seeded order, pass after
pass with the serving cache cleared in between so every lookup is a miss,
until ``--seconds`` have passed, refitting and saving the engine at
intervals between passes (the offline half's refresh and hand-off to
serving).
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List

import common
import tracing
from server_proc import read_inputs, serve_defaults, timed_fits

#: Refits and snapshot saves timed per giant run, spread over its passes.
#: The refits sample the host's speed over the whole run, not only at
#: set-up, so the run's ``fit_s`` median is steadier.
GIANT_SAVES = 10


def snapshot(args: argparse.Namespace, report: Dict[str, Any]) -> None:
    from repro.api.config import EngineConfig
    from repro.api.engine import RewriteEngine
    from repro.core.config import SimrankConfig

    graph, bids, report["build_s"] = read_inputs(args.graph, args.bids)
    defaults = serve_defaults()
    config = EngineConfig(
        method=defaults.method,
        backend=defaults.backend,
        similarity=SimrankConfig(iterations=defaults.iterations, tolerance=defaults.tolerance),
    )
    engine = RewriteEngine.from_graph(graph, config, bid_terms=bids)
    report["fit_s"] = timed_fits(engine)
    started = time.perf_counter()
    engine.save(args.snapshot)
    report["save_s"] = time.perf_counter() - started


def rows(result) -> List[List[Any]]:
    return [[r.rewrite, r.rank, r.score] for r in result.rewrites]


def giant(args: argparse.Namespace, report: Dict[str, Any]) -> None:
    from repro.api.config import EngineConfig
    from repro.api.engine import RewriteEngine

    graph, bids, report["build_s"] = read_inputs(args.graph, args.bids)
    engine = RewriteEngine.from_graph(
        graph, EngineConfig(method="weighted_simrank", backend="auto"), bid_terms=bids
    )
    fit_s = timed_fits(engine, 1)
    report["fit_s"] = fit_s
    print("READY " + json.dumps({}), flush=True)
    if args.setup_only:
        return

    queries = sorted(graph.queries(), key=repr)
    latencies_ms: List[float] = []
    first: Dict[str, Any] = {}
    mismatched = 0
    passes = 0
    pass_rates: List[float] = []
    save_s: List[float] = []
    begin = time.perf_counter()
    deadline = begin + args.seconds
    while time.perf_counter() < deadline and passes < args.max_passes:
        # Refits and saves are spread over the run, between passes.
        if len(save_s) < args.saves and time.perf_counter() >= begin + len(save_s) * (
            args.seconds / args.saves
        ):
            fit_s.extend(timed_fits(engine, 1))
            target = args.scratch / "giant-snapshot"
            started = time.perf_counter()
            engine.save(target)
            save_s.append(time.perf_counter() - started)
            shutil.rmtree(target)
        engine.clear_cache()
        order = list(queries)
        random.Random(f"{args.seed}:{passes}").shuffle(order)
        lists = {}
        busy = 0.0
        for query in order:
            started = time.perf_counter()
            result = engine.rewrite(query)
            elapsed = time.perf_counter() - started
            busy += elapsed
            latencies_ms.append(elapsed * 1000.0)
            lists[query] = rows(result)
        pass_rates.append(len(order) / busy)
        if passes == 0:
            first = lists
        else:
            mismatched += sum(1 for query, got in lists.items() if got != first[query])
        passes += 1
    report.update(
        passes=passes,
        lists=first,
        pass_mismatches=mismatched,
        latencies_ms=latencies_ms,
        pass_rates=pass_rates,
        publish_s=save_s,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("role", choices=["snapshot", "giant"])
    parser.add_argument("--graph", type=Path, required=True)
    parser.add_argument("--bids", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--snapshot", type=Path)
    parser.add_argument("--scratch", type=Path)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--max-passes", type=int, default=10**6)
    parser.add_argument("--saves", type=int, default=GIANT_SAVES)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    report: Dict[str, Any] = {}
    (snapshot if args.role == "snapshot" else giant)(args, report)
    report["peak_rss_mib"] = common.vm_hwm_mib()
    if args.trace:
        report["trace"] = tracer.summary()
    common.write_json(args.out, report)


if __name__ == "__main__":
    main()
