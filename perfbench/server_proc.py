"""The serving process: the program's rewrite server, started by the benchmark.

Run by ``run.py``, never by hand::

    python3 perfbench/server_proc.py --snapshot DIR --out FILE [--trace]
    python3 perfbench/server_proc.py --graph FILE --bids FILE --out FILE [--trace]

With ``--snapshot`` the engine is revived from a snapshot (the production
path: fit offline, snapshot, serve).  With ``--graph`` it is fitted here
with the refresh workload's configuration, so ``POST /refresh`` has a
click graph to apply deltas to.  The server itself uses the ``serve``
subcommand's defaults.  The process prints ``READY {"port": ...}`` once
it accepts connections, serves until SIGTERM, drains, and writes its
peak memory (and, with ``--trace``, its spans) to ``--out``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import time
from pathlib import Path
from typing import List

import common
import tracing

#: Fits timed per set-up where a fit is cheap: the first in a process also
#: pays one-time imports, which the median leaves to ``setup_s``.
FITS = 3


def refresh_engine_config():
    """Engine configuration of the refresh workload (``bench_engine_refresh``'s)."""
    from repro.api.config import EngineConfig
    from repro.core.config import SimrankConfig

    return EngineConfig(
        method="weighted_simrank",
        backend="auto",
        similarity=SimrankConfig(iterations=150, tolerance=1e-8, zero_evidence_floor=0.1),
    )


def serve_defaults():
    """The ``serve`` subcommand's defaults, parsed from its own argument parser."""
    from repro.serving.app import build_serve_parser

    return build_serve_parser().parse_args(["--port", "0"])


def timed_fits(engine, count: int = FITS) -> List[float]:
    """Fit ``engine`` ``count`` times from scratch; the seconds of each call."""
    seconds = []
    for _ in range(count):
        started = time.perf_counter()
        engine.fit()
        seconds.append(time.perf_counter() - started)
    return seconds


def read_inputs(graph_path: Path, bids_path: Path):
    """Build the click graph and bid terms from the benchmark's input files."""
    from repro.graph.io import read_edges_jsonl

    started = time.perf_counter()
    graph = read_edges_jsonl(graph_path)
    build_s = time.perf_counter() - started
    return graph, common.read_json(bids_path), build_s


async def serve(engine, ready: dict) -> None:
    from repro.serving.holder import EngineHolder
    from repro.serving.server import RewriteServer, ServerConfig

    args = serve_defaults()
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_batch_size=args.batch_size,
        batch_linger_ms=args.linger_ms,
        max_concurrency=args.concurrency,
        queue_size=args.queue_size,
        request_timeout_s=args.request_timeout,
    )
    server = RewriteServer(EngineHolder(engine), config)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    ready["port"] = server.address[1]
    print("READY " + json.dumps(ready), flush=True)
    try:
        await stop.wait()
    finally:
        await server.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--snapshot", type=Path)
    parser.add_argument("--graph", type=Path)
    parser.add_argument("--bids", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
    from repro.api.engine import RewriteEngine

    ready: dict = {}
    if args.snapshot is not None:
        started = time.perf_counter()
        engine = RewriteEngine.load(args.snapshot)
        ready["load_s"] = time.perf_counter() - started
    else:
        graph, bids, ready["build_s"] = read_inputs(args.graph, args.bids)
        engine = RewriteEngine.from_graph(graph, refresh_engine_config(), bid_terms=bids)
        ready["fit_s"] = timed_fits(engine)
    asyncio.run(serve(engine, ready))
    report = {"peak_rss_mib": common.vm_hwm_mib()}
    if args.trace:
        report["trace"] = tracer.summary()
    common.write_json(args.out, report)


if __name__ == "__main__":
    main()
