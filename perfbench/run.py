"""The repository's benchmark: the offline fit and the online tier, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each was chosen):

``serve-hot``
    Open-loop Zipf single-query ``POST /rewrite`` traffic, Poisson
    arrivals at a fixed rate, over the
    yahoo-like ``small`` universe.  The engine uses the ``serve``
    subcommand's defaults, is fitted offline, saved as a snapshot and
    revived by a server in its own process; every query is sent once
    before timing starts.
``offline-giant``
    The offline half with no server: one ~5000-node component fitted with
    ``backend="auto"``, then every query's rewrite list materialized in a
    seeded order, every lookup a miss.
``refresh-under-load``
    Open-loop Zipf traffic over ``bench_engine_refresh``'s 10-component
    graph while one admin connection posts single-component deltas on a
    fixed schedule; closed-loop capacity bursts, each with a publish,
    between the rounds of traffic.

The load generator is one process with at most ``min(nproc, 2)``
connections.  The workload seed is an argument; the program receives only
the generated inputs.  Seeds congruent to 4 modulo 5 (4, 9, 14, ...) are
held out: use them only to confirm a claim made on other seeds.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics, measured in a traced
run that follows an untraced one so the tracing overhead can be reported.
The line before it is a JSON detail record: environment fingerprint,
sample counts and tail percentiles, per-phase request accounting.
``perfbench/README.md`` maps each layer metric to the end-to-end metric
and workload it should move.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import random
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import common
import inputs

#: Set-ups per untraced run; ``setup_s`` and ``fit_s`` report their median.
SETUPS = 3
#: The detail record's p99 is a median over windows of at least this many
#: requests (see ``common.windowed``).
WINDOW = 1000
#: serve-hot: the fixed rate latency is reported at.
SERVE_RATE = 400.0
#: Serving workloads run in rounds of fixed-rate traffic and a closed-loop
#: capacity burst; ``rewrites_per_s`` is the median over the bursts.
ROUNDS = 8
#: Share of a round spent in its capacity burst; on serve-hot, fixed-rate
#: traffic takes 0.7 and the reloads what is left.
BURST_SHARE = 0.15
#: serve-hot: snapshot reloads per run, spread over the rounds.
RELOADS = 40
#: refresh-under-load: traffic rate and the refresh period.  The one
#: traffic connection carries one request at a time; the rate keeps it idle
#: most of the time, so a slower host shows as slower service rather than
#: as queueing that magnifies it.
REFRESH_RATE = 100.0
REFRESH_PERIOD_S = 1.0
#: offline-giant: list equality is exact; scores may differ by this much.
SCORE_TOLERANCE = 1e-9
REFERENCE = common.HERE / "reference" / "giant.json.gz"

#: What the detail record keeps of each load-generator phase.
PHASE_DETAIL = ("name", "tally", "lateness_p99_ms", "valid", "sent", "scheduled", "publish_s")

END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "peak_rss_mib": "MiB",
    "latency_p50_ms": "ms",
    "rewrites_per_s": "1/s",
    "publish_p50_s": "s",
}
PER_LAYER = {
    "graph.build_s": "s",
    "graph.apply_delta_s": "s",
    "core.method_fit_s": "s",
    "core.plan_s": "s",
    "core.scores_from_sparse_s": "s",
    "core.iterations_run": "count",
    "core.scores_nnz": "count",
    "core.top_rewrites_us": "us",
    "core.rewriter.compute_rewrites_us": "us",
    "core.rewriter.accept_ratio": "ratio",
    "text.query_signature_us": "us",
    "text.signature_calls_per_miss": "count",
    "api.engine.rewrite_hit_us": "us",
    "api.engine.rewrite_miss_us": "us",
    "api.engine.hit_ratio": "ratio",
    "api.engine.copy_s": "s",
    "api.engine.refresh_s": "s",
    "api.engine.invalidated_per_refresh": "count",
    "api.snapshot.save_s": "s",
    "api.snapshot.load_s": "s",
    "serving.holder.refresh_s": "s",
    "serving.server.service_p50_ms": "ms",
    "serving.server.service_p99_ms": "ms",
    "serving.server.batch_wait_p50_ms": "ms",
    "serving.server.mean_batch": "count",
    "serving.server.queue_high_water": "count",
    "serving.transport_p50_ms": "ms",
    "client.lateness_p99_ms": "ms",
    "trace.overhead_ms": "ms",
}


class Run:
    """One benchmark run: its arguments, scratch directory and accounting."""

    def __init__(self, args: argparse.Namespace, scratch: Path) -> None:
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.scratch = scratch
        self.tally = common.Tally()
        self.detail: Dict[str, Any] = {}
        self.children: List[common.Child] = []
        self._files = 0

    @property
    def timeout_s(self) -> float:
        """How long a child that measures for ``--seconds`` may take."""
        return 2 * self.seconds + 60

    def path(self, name: str) -> Path:
        self._files += 1
        return self.scratch / f"{self._files:03d}-{name}"

    def start(self, script: str, *args: Any) -> common.Child:
        child = common.Child(script, [str(arg) for arg in args])
        self.children.append(child)
        return child

    def stop_all(self) -> None:
        for child in self.children:
            child.stop()

    def loadgen(self, port: int, phases: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        spec, out = self.path("spec.json"), self.path("loadgen.json")
        common.write_json(
            spec,
            {
                "host": "127.0.0.1",
                "port": port,
                "connections": common.load_connections(),
                "phases": phases,
            },
        )
        self.start("loadgen_proc.py", "--spec", spec, "--out", out).wait(self.timeout_s)
        results = common.read_json(out)
        for phase in results:
            phase_tally = common.Tally()
            phase_tally.attempted = phase["tally"]["attempted"]
            phase_tally.succeeded = phase["tally"]["succeeded"]
            phase_tally.failures = dict(phase["tally"]["failures"])
            self.tally.merge(phase_tally)
            self.detail.setdefault("phases", []).append(
                {key: phase[key] for key in PHASE_DETAIL if key in phase}
            )
            # A run is invalid when the generator itself fell behind: its
            # open-loop latencies would then understate the server's.
            self.detail["valid"] = self.detail.get("valid", True) and phase["valid"]
        return results


# ------------------------------------------------------------------ checking


def expected_body(engine, query: str) -> str:
    return json.dumps(
        [
            {"rewrite": r.rewrite, "rank": r.rank, "score": r.score}
            for r in engine.rewrite(query).rewrites
        ],
        sort_keys=True,
    )


def check_bodies(run: Run, phases: List[Dict[str, Any]], engine_for: Callable[[int], Any]) -> None:
    """Compare every served body with ``rewrite()`` of the version that served it."""
    by_version: Dict[int, List[Tuple[str, str, int]]] = {}
    for phase in phases:
        for version, query, body, count in phase["bodies"]:
            by_version.setdefault(version, []).append((query, body, count))
    wrong = checked = 0
    for version in sorted(by_version):
        engine = engine_for(version)
        for query, body, count in by_version[version]:
            checked += count
            if engine is None or expected_body(engine, query) != body:
                wrong += count
    run.tally.wrong(wrong)
    run.detail["responses_checked"] = run.detail.get("responses_checked", 0) + checked
    run.detail["responses_wrong"] = run.detail.get("responses_wrong", 0) + wrong


def lists_match(got: List[List[Any]], ref: List[List[Any]]) -> bool:
    """Exact (rewrite, rank) and scores within :data:`SCORE_TOLERANCE`.

    Candidates whose reference scores tie within the tolerance may trade
    places: their order is set by floating-point noise.
    """
    if len(got) != len(ref):
        return False
    ref_scores = {rewrite: score for rewrite, _, score in ref}
    for (rewrite, rank, score), (ref_rewrite, ref_rank, ref_score) in zip(got, ref):
        if rank != ref_rank or abs(score - ref_score) > SCORE_TOLERANCE:
            return False
        if rewrite != ref_rewrite and (
            rewrite not in ref_scores or abs(ref_scores[rewrite] - ref_score) > SCORE_TOLERANCE
        ):
            return False
    return True


def check_giant_lists(run: Run, lists: Dict[str, List[List[Any]]], mismatches: int) -> None:
    with gzip.open(REFERENCE, "rt") as handle:
        reference = json.load(handle)
    wrong = sum(
        1 for query, ref in reference.items() if not lists_match(lists.get(query, []), ref)
    )
    wrong += sum(1 for query in lists if query not in reference)
    # Later passes were compared with the first inside the worker.
    run.tally.wrong(wrong + mismatches)
    run.detail["lists_checked"] = len(reference)
    run.detail["lists_wrong"] = wrong
    run.detail["pass_mismatches"] = mismatches


# ------------------------------------------------------------------ metrics


def latency_detail(latencies: List[float]) -> Dict[str, Any]:
    """The pooled summary plus each window's p50 and p99."""
    parts = common.windows(latencies, WINDOW)
    return {
        **common.timing_summary(latencies),
        "window_size": len(parts[0]),
        "window_p50": [common.percentile(part, 50) for part in parts],
        "window_p99": [common.percentile(part, 99) for part in parts],
    }


def end_to_end(
    run: Run,
    setup: List[float],
    fit: List[float],
    rss: float,
    latencies: List[float],
    rewrites_per_s: float,
    publish: List[float],
) -> Dict[str, float]:
    # The p99 is reported here, not as a bounded metric: on a small shared
    # machine its run-to-run spread exceeds any bound the contract allows.
    supported = common.samples_beyond(len(latencies), 99) >= common.MIN_BEYOND
    run.detail["latency_p99_ms"] = common.windowed(latencies, 99, WINDOW) if supported else None
    run.detail["samples"] = {
        "setup_s": common.timing_summary(setup),
        "fit_s": common.timing_summary(fit),
        "latency_ms": latency_detail(latencies),
        "publish_s": common.timing_summary(publish),
    }
    return {
        "setup_s": common.median(setup),
        "fit_s": common.median(fit),
        "peak_rss_mib": rss,
        # Pooled, not a median of window medians: the host switches between
        # a fast and a slow speed for seconds at a time, and a median over
        # windows jumps from one speed to the other when the run's share of
        # fast windows crosses a half.  The pooled median moves with it.
        "latency_p50_ms": common.percentile(latencies, 50),
        "rewrites_per_s": rewrites_per_s,
        "publish_p50_s": common.percentile(publish, 50),
    }


def tracing_overhead_ms(traced: List[float], untraced: List[float]) -> float:
    """Traced median latency minus untraced median latency."""
    return common.percentile(traced, 50) - common.percentile(untraced, 50)


def merge_traces(reports: List[Dict[str, Any]]) -> Dict[str, Dict[str, List[float]]]:
    merged: Dict[str, Dict[str, List[float]]] = {"durations": {}, "values": {}}
    for report in reports:
        for table in ("durations", "values"):
            for name, samples in report.get("trace", {}).get(table, {}).items():
                merged[table].setdefault(name, []).extend(samples)
    return merged


def per_layer(
    run: Run,
    traces: List[Dict[str, Any]],
    build_s: List[float],
    traced_phase: Optional[Dict[str, Any]],
    overhead_ms: float,
) -> Dict[str, float]:
    """Per-layer metrics from spans and ``/stats``; 0 where a layer did no work."""
    merged = merge_traces(traces)
    durations, values = merged["durations"], merged["values"]
    counts: Dict[str, int] = {}

    def p50(name: str, scale: float) -> float:
        samples = durations.get(name, [])
        counts[name] = len(samples)
        return common.percentile(samples, 50) * scale if samples else 0.0

    def mid(name: str) -> float:
        samples = values.get(name, [])
        counts[name] = len(samples)
        return float(common.median(samples)) if samples else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    hits = len(durations.get("api.engine.rewrite_hit", []))
    misses = len(durations.get("api.engine.rewrite_miss", []))
    computes = len(durations.get("core.rewriter.compute_rewrites", []))
    metrics = {
        "graph.build_s": common.median(build_s) if build_s else 0.0,
        "graph.apply_delta_s": p50("graph.apply_delta", 1.0),
        "core.method_fit_s": p50("core.method_fit", 1.0),
        "core.plan_s": p50("core.plan", 1.0),
        "core.scores_from_sparse_s": p50("core.scores_from_sparse", 1.0),
        "core.iterations_run": mid("core.iterations_run"),
        "core.scores_nnz": mid("core.scores_nnz"),
        "core.top_rewrites_us": p50("core.top_rewrites", 1e6),
        "core.rewriter.compute_rewrites_us": p50("core.rewriter.compute_rewrites", 1e6),
        "core.rewriter.accept_ratio": ratio(
            sum(values.get("core.rewriter.accepted", [])),
            sum(values.get("core.rewriter.scanned", [])),
        ),
        "text.query_signature_us": p50("text.query_signature", 1e6),
        "text.signature_calls_per_miss": ratio(
            sum(values.get("text.signature_calls", [])), computes
        ),
        "api.engine.rewrite_hit_us": p50("api.engine.rewrite_hit", 1e6),
        "api.engine.rewrite_miss_us": p50("api.engine.rewrite_miss", 1e6),
        "api.engine.hit_ratio": ratio(hits, hits + misses),
        "api.engine.copy_s": p50("api.engine.copy", 1.0),
        "api.engine.refresh_s": p50("api.engine.refresh", 1.0),
        "api.engine.invalidated_per_refresh": mid("api.engine.invalidated_per_refresh"),
        "api.snapshot.save_s": p50("api.snapshot.save", 1.0),
        "api.snapshot.load_s": p50("api.snapshot.load", 1.0),
        "serving.holder.refresh_s": p50("serving.holder.refresh", 1.0),
        "serving.server.service_p50_ms": 0.0,
        "serving.server.service_p99_ms": 0.0,
        "serving.server.batch_wait_p50_ms": 0.0,
        "serving.server.mean_batch": 0.0,
        "serving.server.queue_high_water": 0.0,
        "serving.transport_p50_ms": 0.0,
        "client.lateness_p99_ms": 0.0,
        "trace.overhead_ms": overhead_ms,
    }
    if traced_phase is not None:
        stats = traced_phase["stats"]
        service = stats["latency_ms"]
        batch_ms = p50("api.engine.rewrite_batch", 1e3)
        client_p50 = common.percentile(traced_phase["latencies_ms"], 50)
        metrics.update(
            {
                "serving.server.service_p50_ms": service["p50"],
                "serving.server.service_p99_ms": service["p99"],
                "serving.server.batch_wait_p50_ms": service["p50"] - batch_ms,
                "serving.server.mean_batch": stats["batching"]["mean_batch"],
                "serving.server.queue_high_water": stats["batching"]["queue_high_water"],
                "serving.transport_p50_ms": client_p50 - service["p50"],
                "client.lateness_p99_ms": traced_phase["lateness_p99_ms"],
            }
        )
        run.detail["server_stats"] = {
            "latency_ms": service,
            "batching": stats["batching"],
            "cache": stats["engine"]["cache"],
        }
    run.detail["span_counts"] = counts
    return metrics


# ---------------------------------------------------------------- workloads


def open_phase(name: str, schedule, **extra: Any) -> Dict[str, Any]:
    return {"name": name, "kind": "open", "schedule": schedule, **extra}


def capacity_phase(
    name: str, ranked: List[str], seconds: float, seed: str, **extra: Any
) -> Dict[str, Any]:
    """A closed-loop burst of Zipf queries over every traffic connection."""
    # More queries than the connections can answer in ``seconds``.
    count = int(5000 * seconds) + 1
    queries = inputs.zipf_queries(ranked, count, random.Random(seed))
    return {"name": name, "kind": "closed", "queries": queries, "seconds": seconds, **extra}


def capacity(phases: List[Dict[str, Any]]) -> float:
    """Median over closed-loop bursts of lists answered per second."""
    bursts = [phase for phase in phases if phase["name"].startswith("capacity-")]
    rates = [len(phase["latencies_ms"]) / phase["elapsed_s"] for phase in bursts]
    return common.median(rates)


class Server:
    """A serving process of the program, ready to take requests."""

    def __init__(self, run: Run, source: List[Any], trace: bool) -> None:
        self.out = run.path("server.json")
        flag = ["--trace"] if trace else []
        self.child = run.start("server_proc.py", *source, "--out", self.out, *flag)
        self.ready = self.child.wait_ready()
        self.port = int(self.ready["port"])
        self.setup_s = self.child.ready_at - self.child.started

    def stop(self) -> Dict[str, Any]:
        self.child.stop()
        return common.read_json(self.out)


def serve_hot(run: Run) -> Dict[str, float]:
    from repro.api.engine import RewriteEngine

    graph, bids = inputs.serve_hot_graph(run.seed)
    graph_path, bids_path = inputs.write_graph(graph, bids, run.scratch)
    ranked = inputs.popularity([str(query) for query in graph.queries()], run.seed)
    offline: List[Dict[str, Any]] = []

    def session(
        trace: bool, measure: Callable[[int, Path], List[Dict[str, Any]]]
    ) -> Tuple[float, List[Dict[str, Any]], Dict[str, Any]]:
        """Fit offline, snapshot, revive in a server, send every query once, measure.

        Returns the set-up time, the measured phases and the server's report.
        Every response is checked against the revived snapshot, which every
        version the server publishes (``/reload`` of the same snapshot) serves.
        """
        started = time.perf_counter()
        snapshot, report = run.path("snapshot"), run.path("offline.json")
        run.start(
            "offline_proc.py", "snapshot", "--graph", graph_path, "--bids", bids_path,
            "--snapshot", snapshot, "--out", report, *(["--trace"] if trace else []),
        ).wait()
        offline.append(common.read_json(report))
        server = Server(run, ["--snapshot", snapshot], trace)
        warm_up = run.loadgen(
            server.port, [{"name": "warm-up", "kind": "closed", "queries": ranked}]
        )
        setup_s = time.perf_counter() - started
        measured = measure(server.port, snapshot)
        server_report = server.stop()
        engine = RewriteEngine.load(snapshot)
        check_bodies(run, warm_up + measured, lambda version: engine)
        return setup_s, measured, server_report

    def fixed(name: str, seconds: float) -> Dict[str, Any]:
        schedule = inputs.open_schedule(ranked, SERVE_RATE, seconds, f"{run.seed}:{name}")
        return open_phase(name, schedule, stats=True)

    if run.trace:
        _, (untraced,), _ = session(
            False, lambda port, _: run.loadgen(port, [fixed("untraced", run.seconds / 2)])
        )
        _, (traced,), report = session(
            True, lambda port, _: run.loadgen(port, [fixed("traced", run.seconds / 2)])
        )
        overhead = tracing_overhead_ms(traced["latencies_ms"], untraced["latencies_ms"])
        return per_layer(
            run, [offline[-1], report], [r["build_s"] for r in offline], traced, overhead
        )

    def measure(port: int, snapshot: Path) -> List[Dict[str, Any]]:
        return run.loadgen(port, serve_hot_phases(run, ranked, snapshot, fixed))

    # The measuring set-up runs between the others, so the set-up times are
    # spread over the run rather than caught by one noisy stretch.
    setup_s: List[float] = []
    for index in range(SETUPS):
        seconds, phases, server_report = session(
            False, measure if index == SETUPS // 2 else lambda port, snapshot: []
        )
        setup_s.append(seconds)
        if phases:
            measured, report = phases, server_report

    def named(prefix: str) -> List[Dict[str, Any]]:
        return [phase for phase in measured if phase["name"].startswith(prefix)]

    return end_to_end(
        run,
        setup_s,
        [seconds for r in offline for seconds in r["fit_s"]],
        report["peak_rss_mib"],
        [latency for phase in named("fixed-") for latency in phase["latencies_ms"]],
        capacity(measured),
        [seconds for phase in named("publish-") for seconds in phase["publish_s"]],
    )


def serve_hot_phases(
    run: Run, ranked: List[str], snapshot: Path, fixed: Callable[[str, float], Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """serve-hot's measured phases: fixed-rate traffic, capacity bursts, reloads."""
    # Noise from outside the program comes in episodes of several seconds,
    # so the fixed-rate traffic, the capacity bursts and the reloads are
    # interleaved in rounds: each metric's median then spans the whole run.
    round_s = run.seconds / ROUNDS
    phases = []
    for index in range(ROUNDS):
        reloads = [
            [0.05 * (i + 1), "/reload", {"path": str(snapshot)}]
            for i in range(RELOADS // ROUNDS)
        ]
        phases += [
            fixed(f"fixed-{index}", 0.7 * round_s),
            capacity_phase(
                f"capacity-{index}", ranked, BURST_SHARE * round_s, f"{run.seed}:capacity:{index}"
            ),
            open_phase(f"publish-{index}", [], admin=reloads, probe=ranked[0]),
        ]
    return phases


def offline_giant(run: Run) -> Dict[str, float]:
    graph, bids = inputs.giant_graph()
    graph_path, bids_path = inputs.write_graph(graph, bids, run.scratch)

    def worker(*extra: Any) -> Tuple[common.Child, Path]:
        report = run.path("giant.json")
        child = run.start(
            "offline_proc.py", "giant", "--graph", graph_path, "--bids", bids_path,
            "--out", report, "--scratch", run.scratch, "--seed", run.seed, *extra,
        )
        child.wait_ready()
        return child, report

    def finish(child: common.Child, report_path: Path) -> Dict[str, Any]:
        child.wait(run.timeout_s)
        report = common.read_json(report_path)
        if "lists" in report:
            run.tally.ok(len(report["latencies_ms"]) + len(report["publish_s"]))
            check_giant_lists(run, report["lists"], report["pass_mismatches"])
        return report

    if run.trace:
        untraced = finish(*worker("--seconds", run.seconds / 2, "--saves", 0))
        traced = finish(
            *worker("--seconds", run.seconds / 2, "--max-passes", 2, "--saves", 2, "--trace")
        )
        overhead = tracing_overhead_ms(traced["latencies_ms"], untraced["latencies_ms"])
        return per_layer(run, [traced], [traced["build_s"]], None, overhead)

    # The measuring set-up runs between the others, so the three fits are
    # spread over the run rather than caught by one noisy stretch.
    reports: List[Dict[str, Any]] = []
    setup_s: List[float] = []
    measuring = SETUPS // 2
    for index in range(SETUPS):
        extra = ["--seconds", run.seconds] if index == measuring else ["--setup-only"]
        child, report_path = worker(*extra)
        setup_s.append(child.ready_at - child.started)
        reports.append(finish(child, report_path))
    report = reports[measuring]
    run.detail["pass_rates"] = report["pass_rates"]
    return end_to_end(
        run,
        setup_s,
        [seconds for r in reports for seconds in r["fit_s"]],
        report["peak_rss_mib"],
        report["latencies_ms"],
        # Lists over the summed lookup time, for the reason latency_p50_ms
        # is pooled (see end_to_end).
        len(report["latencies_ms"]) / (sum(report["latencies_ms"]) / 1000.0),
        report["publish_s"],
    )


class Replica:
    """The engine versions a refresh-workload server published, rebuilt here.

    Version 1 is the startup fit; each accepted ``/refresh`` published the
    next one.  Versions are rebuilt in order, so only one is held at a time.
    """

    def __init__(self, graph_path: Path, bids: List[str], deltas, applied: List[bool]) -> None:
        from repro.api.engine import RewriteEngine
        from repro.graph.io import read_edges_jsonl
        from server_proc import refresh_engine_config

        self.engine = RewriteEngine.from_graph(
            read_edges_jsonl(graph_path), refresh_engine_config(), bid_terms=bids
        ).fit()
        self.version = 1
        self.pending = iter([delta for delta, ok in zip(deltas, applied) if ok])

    def __call__(self, version: int):
        from repro.serving.server import delta_from_payload

        while self.version < version:
            delta = next(self.pending, None)
            if delta is None:
                return None
            self.engine.refresh(delta_from_payload(delta))
            self.version += 1
        return self.engine if self.version == version else None


def refresh_under_load(run: Run) -> Dict[str, float]:
    graph, bids = inputs.refresh_graph(run.seed)
    graph_path, bids_path = inputs.write_graph(graph, bids, run.scratch)
    ranked = inputs.popularity([str(query) for query in graph.queries()], run.seed)
    source = ["--graph", graph_path, "--bids", bids_path]

    def traffic(server: Server, name: str, seconds: float, bursts: bool) -> List[Dict[str, Any]]:
        """Zipf traffic at a fixed rate while deltas arrive every ``REFRESH_PERIOD_S``.

        With ``bursts``, the traffic is split into rounds, each ending in a
        closed-loop capacity burst during which one more delta is
        published.  Every response is checked against the engine version
        that served it.
        """
        rounds = ROUNDS if bursts else 1
        open_s = (1 - BURST_SHARE if bursts else 1) * seconds / rounds
        burst_s = BURST_SHARE * seconds / rounds
        per_open = max(1, int(open_s / REFRESH_PERIOD_S))
        deltas = inputs.refresh_deltas(graph, rounds * (per_open + bursts), run.seed)
        pending = iter(deltas)
        phases = []
        for index in range(rounds):
            schedule = inputs.open_schedule(
                ranked, REFRESH_RATE, open_s, f"{run.seed}:{name}:{index}"
            )
            admin = [
                [REFRESH_PERIOD_S * (k + 0.5), "/refresh", next(pending)] for k in range(per_open)
            ]
            phases.append(
                open_phase(
                    f"{name}-{index}", schedule, admin=admin, probe=ranked[0], stats=not bursts
                )
            )
            if bursts:
                phases.append(
                    capacity_phase(
                        f"capacity-{index}", ranked, burst_s, f"{run.seed}:capacity:{index}",
                        admin=[[0.2 * burst_s, "/refresh", next(pending)]], probe=ranked[0],
                    )
                )
        measured = run.loadgen(server.port, phases)
        applied = [ok for phase in measured for ok in phase["admin_applied"]]
        check_bodies(run, measured, Replica(graph_path, bids, deltas, applied))
        return measured

    if run.trace:
        server = Server(run, source, False)
        (untraced,) = traffic(server, "untraced", run.seconds / 2, False)
        server.stop()
        server = Server(run, source, True)
        (traced,) = traffic(server, "traced", run.seconds / 2, False)
        report = server.stop()
        overhead = tracing_overhead_ms(traced["latencies_ms"], untraced["latencies_ms"])
        return per_layer(run, [report], [server.ready["build_s"]], traced, overhead)

    # The measuring set-up runs between the others (see offline_giant).
    servers = []
    for index in range(SETUPS):
        servers.append(Server(run, source, False))
        if index == SETUPS // 2:
            measured = traffic(servers[-1], "refresh", run.seconds, True)
            report = servers[-1].stop()
        else:
            servers[-1].stop()
    fixed = [phase for phase in measured if phase["name"].startswith("refresh-")]
    return end_to_end(
        run,
        [s.setup_s for s in servers],
        [seconds for s in servers for seconds in s.ready["fit_s"]],
        report["peak_rss_mib"],
        [latency for phase in fixed for latency in phase["latencies_ms"]],
        capacity(measured),
        [seconds for phase in measured for seconds in phase["publish_s"]],
    )


WORKLOADS: Dict[str, Callable[[Run], Dict[str, float]]] = {
    "serve-hot": serve_hot,
    "offline-giant": offline_giant,
    "refresh-under-load": refresh_under_load,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        common.log(f"perfbench: the program's sources are missing under {common.SRC}")
        return 2
    sys.path.insert(0, str(common.SRC))
    os.environ.update(
        {key: value for key, value in common.child_env().items() if key.endswith("THREADS")}
    )
    scratch = common.ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    run = Run(args, scratch)
    try:
        metrics = WORKLOADS[args.workload](run)
    finally:
        run.stop_all()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    units = PER_LAYER if run.trace else END_TO_END
    run.detail["environment"] = common.fingerprint()
    run.detail["tally"] = run.tally.to_dict()
    print(json.dumps({"workload": args.workload, "seed": args.seed, **run.detail}))
    print(
        json.dumps(
            {
                "correct": run.tally.failures.get("wrong", 0) == 0,
                "attempted": run.tally.attempted,
                "failed": run.tally.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
