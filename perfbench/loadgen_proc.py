"""The load generator: one process, a few keep-alive HTTP connections.

Run by ``run.py``, never by hand::

    python3 perfbench/loadgen_proc.py --spec SPEC.json --out RESULT.json

It is the benchmark's own minimal HTTP/1.1 client, so a change to the
program's client helpers cannot change what is measured.  A spec lists
phases, run in order, each over freshly opened connections:

``closed``
    Send the queries in order, each connection sending its next request
    when the previous one is answered (the warm-up, and capacity bursts
    that stop after a time budget).
``open``
    Send each request at its scheduled time whether or not earlier ones
    were answered (independent users).  A request waits only when every
    connection is busy; its latency counts from its scheduled time, so a
    stall is charged to every request it delays.

Either kind may have an admin connection, which posts ``/refresh`` or
``/reload`` bodies on their own schedule and then probes ``/rewrite``
until the new version answers.

Every response body is kept per ``(engine version, query)`` so the runner
can check it against that version's ``rewrite()``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import time
from typing import Any, Dict, List, Optional, Tuple

import common

#: A phase is invalid when its generator sent this late (p99, ms).
MAX_LATENESS_P99_MS = 5.0


class Connection:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Tuple[int, Dict[str, Any]]:
        try:
            if self.writer is None:
                self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
            return await self._exchange(method, path, payload)
        except (OSError, asyncio.IncompleteReadError, ValueError):
            await self.close()
            raise

    async def _exchange(
        self, method: str, path: str, payload: Optional[Dict[str, Any]]
    ) -> Tuple[int, Dict[str, Any]]:
        assert self.reader is not None and self.writer is not None
        body = json.dumps(payload).encode() if payload is not None else b""
        self.writer.write(
            (
                f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1")
            + body
        )
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionResetError("server closed the connection")
        status = int(status_line.split()[1])
        length = 0
        close = False
        while True:
            header = await self.reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value.strip())
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        raw = await self.reader.readexactly(length) if length else b""
        if close:
            await self.close()
        return status, json.loads(raw) if raw else {}

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except OSError:
                pass
        self.reader = self.writer = None


class Phase:
    """What one phase observed."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.tally = common.Tally()
        self.latencies_ms: List[float] = []
        self.lateness_ms: List[float] = []
        #: (done, version) of every successful response, for publish timing.
        self.versions_seen: List[Tuple[float, int]] = []
        #: (version, query, rewrites) of every successful response; made
        #: canonical only after the phase, off the sending path.
        self.responses: List[Tuple[int, str, Any]] = []
        self.publish_s: List[float] = []
        self.stats: Optional[Dict[str, Any]] = None
        self.extra: Dict[str, Any] = {}

    def record(self, query: str, status: int, payload: Dict[str, Any], done: float) -> bool:
        if status != 200:
            self.tally.fail(f"http_{status}")
            return False
        self.tally.ok()
        version = int(payload["version"])
        self.versions_seen.append((done, version))
        self.responses.append((version, query, payload["rewrites"]))
        return True

    def bodies(self) -> List[List[Any]]:
        """``[version, query, canonical rewrites JSON, responses]`` rows."""
        counts: Dict[Tuple[int, str, str], int] = {}
        for version, query, rewrites in self.responses:
            key = (version, query, json.dumps(rewrites, sort_keys=True))
            counts[key] = counts.get(key, 0) + 1
        return [[*key, count] for key, count in counts.items()]

    def lateness_p99_ms(self) -> float:
        return common.percentile(self.lateness_ms, 99) if self.lateness_ms else 0.0

    def to_dict(self) -> Dict[str, Any]:
        late_p99 = self.lateness_p99_ms()
        return {
            "name": self.name,
            "tally": self.tally.to_dict(),
            "latencies_ms": self.latencies_ms,
            "lateness_p99_ms": late_p99,
            "valid": late_p99 <= MAX_LATENESS_P99_MS,
            "bodies": self.bodies(),
            "publish_s": self.publish_s,
            "stats": self.stats,
            **self.extra,
        }


async def rewrite(phase: Phase, connection: Connection, query: str) -> Optional[float]:
    """One ``/rewrite`` request; returns its completion time, or None on failure."""
    try:
        status, payload = await connection.request("POST", "/rewrite", {"query": query})
    except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
        phase.tally.fail(type(exc).__name__)
        return None
    done = time.perf_counter()
    return done if phase.record(query, status, payload, done) else None


async def closed_loop(
    phase: Phase,
    connections: List[Connection],
    queries: List[str],
    seconds: Optional[float] = None,
) -> None:
    """Each connection sends its next query when the last is answered.

    With ``seconds``, stops taking new queries once that budget is spent.
    """
    pending = iter(queries)
    start = time.perf_counter()
    deadline = start + seconds if seconds is not None else float("inf")

    async def worker(connection: Connection) -> None:
        for query in pending:
            started = time.perf_counter()
            if started >= deadline:
                return
            done = await rewrite(phase, connection, query)
            if done is not None:
                phase.latencies_ms.append((done - started) * 1000.0)

    await asyncio.gather(*(worker(connection) for connection in connections))
    phase.extra["elapsed_s"] = time.perf_counter() - start


async def open_loop(
    phase: Phase,
    connections: List[Connection],
    schedule: List[Tuple[float, str]],
) -> None:
    """Send ``schedule`` (offset seconds, query) open-loop from now."""
    start = time.perf_counter()
    pending = iter(schedule)

    async def worker(connection: Connection) -> None:
        for offset, query in pending:
            due = start + offset
            picked = time.perf_counter()
            if picked < due:
                await asyncio.sleep(due - picked)
            sent = time.perf_counter()
            phase.lateness_ms.append(common.lateness_ms(due, picked, sent))
            done = await rewrite(phase, connection, query)
            if done is not None:
                phase.latencies_ms.append((done - due) * 1000.0)

    await asyncio.gather(*(worker(connection) for connection in connections))
    phase.extra["elapsed_s"] = time.perf_counter() - start
    phase.extra["sent"] = len(phase.lateness_ms)
    phase.extra["scheduled"] = len(schedule)


async def admin_loop(
    phase: Phase, connection: Connection, events: List[List[Any]], probe: str
) -> None:
    """Post each publish at its due time; time it until the new version answers."""
    start = time.perf_counter()
    published: List[Tuple[float, int]] = []
    applied: List[bool] = []
    for offset, path, payload in events:
        due = start + offset
        now = time.perf_counter()
        if now < due:
            await asyncio.sleep(due - now)
        try:
            status, body = await connection.request("POST", path, payload)
        except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
            phase.tally.fail(f"{path}:{type(exc).__name__}")
            applied.append(False)
            continue
        applied.append(status == 200)
        if status != 200:
            phase.tally.fail(f"{path}:http_{status}")
            continue
        phase.tally.ok()
        published.append((due, int(body["version"])))
        await rewrite(phase, connection, probe)
    phase.extra["admin_applied"] = applied
    phase.extra["_published"] = published


def publish_times(phase: Phase) -> None:
    """Due time to the first response from the new version, per publish."""
    seen = sorted(phase.versions_seen)
    for due, version in phase.extra.pop("_published", []):
        answered = next((done for done, v in seen if v >= version and done >= due), None)
        if answered is None:
            phase.tally.fail("publish_never_answered")
        else:
            phase.publish_s.append(answered - due)


async def fetch_stats(host: str, port: int) -> Dict[str, Any]:
    connection = Connection(host, port)
    try:
        _, stats = await connection.request("GET", "/stats")
        return stats
    finally:
        await connection.close()


async def run_phase(spec: Dict[str, Any], phase_spec: Dict[str, Any]) -> Phase:
    host, port = spec["host"], spec["port"]
    phase = Phase(phase_spec["name"])
    kind = phase_spec["kind"]
    if kind == "closed":
        def load(conns: List[Connection]):
            return closed_loop(phase, conns, phase_spec["queries"], phase_spec.get("seconds"))
    elif kind == "open":
        def load(conns: List[Connection]):
            return open_loop(phase, conns, phase_spec["schedule"])
    else:
        raise ValueError(f"unknown phase kind {kind!r}")
    admin = phase_spec.get("admin") or []
    traffic = spec["connections"] - (1 if admin and spec["connections"] > 1 else 0)
    connections = [Connection(host, port) for _ in range(traffic + (1 if admin else 0))]
    try:
        tasks = [load(connections[:traffic])]
        if admin:
            tasks.append(admin_loop(phase, connections[traffic], admin, phase_spec["probe"]))
        await asyncio.gather(*tasks)
    finally:
        for connection in connections:
            await connection.close()
    publish_times(phase)
    if phase_spec.get("stats"):
        phase.stats = await fetch_stats(host, port)
    return phase


async def run(spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    results: List[Dict[str, Any]] = []
    for phase_spec in spec["phases"]:
        results.append((await run_phase(spec, phase_spec)).to_dict())
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = common.read_json(common.Path(args.spec))
    # The generator's own collector pauses would show up as lateness and
    # latency; it makes no reference cycles worth collecting.
    gc.disable()
    common.write_json(common.Path(args.out), asyncio.run(run(spec)))


if __name__ == "__main__":
    main()
