"""Statistics, process plumbing and the environment fingerprint.

Shared by the runner (``run.py``) and the processes it starts.  Imports
nothing from the program under test, so the benchmark's own arithmetic
cannot change when the program does.
"""

from __future__ import annotations

import json
import os
import platform
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile is supported when at least this many samples lie beyond it.
MIN_BEYOND = 10


# ------------------------------------------------------------------ statistics


def rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q`` percentile among ``n`` samples.

    ``ceil(q * n / 100)`` in integer arithmetic on thousandths of a
    percent, so 99.9 of 10000 is exactly rank 9990.
    """
    return min(n, max(1, -(-round(q * 1000) * n // 100000)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[rank(len(values), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q`` percentile."""
    return n - rank(n, q) if n else 0


def supported_tail(n: int) -> Optional[float]:
    """The highest percentile of :data:`TAIL_PERCENTILES` with >= 10 samples beyond.

    ``None`` when even the median has fewer than ten samples beyond it.
    """
    for q in TAIL_PERCENTILES:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def timing_summary(values: Sequence[float]) -> Dict[str, float]:
    """Median plus the tail the sample supports, with the sample count."""
    n = len(values)
    summary: Dict[str, float] = {"n": n}
    if not n:
        return summary
    summary["p50"] = percentile(values, 50)
    tail = supported_tail(n)
    if tail is not None:
        summary["tail_pct"] = tail
        summary["tail"] = percentile(values, tail)
    return summary


def windows(values: Sequence[float], min_size: int) -> List[Sequence[float]]:
    """Consecutive, near-equal windows of at least ``min_size`` samples each.

    A sample shorter than ``min_size`` is one window.
    """
    count = max(1, len(values) // min_size)
    bounds = [round(i * len(values) / count) for i in range(count + 1)]
    return [values[bounds[i]:bounds[i + 1]] for i in range(count)]


def windowed(values: Sequence[float], q: float, min_size: int = 1000) -> float:
    """Median over windows of each window's ``q`` percentile.

    A burst of noise from outside the program spoils the windows it falls
    in, not the whole run.  With ``min_size`` 1000, every window's p99 has
    ten samples beyond it.
    """
    return median([percentile(window, q) for window in windows(values, min_size)])


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample (mean of the middle pair for even sizes)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def lateness_ms(due: float, picked: float, sent: float) -> float:
    """How late the generator sent a request, in milliseconds.

    A request can go out once it is due *and* a connection is free to
    carry it (``picked``: when a connection took it).  Time spent waiting
    for a busy connection is the server's backlog and belongs to the
    request's latency; only the delay past both is the generator's own.
    """
    return max(0.0, sent - max(due, picked)) * 1000.0


class Tally:
    """Operations attempted and failed, by cause.

    Every attempted operation ends in exactly one bucket: succeeded, or
    failed with a cause (transport error, HTTP status, wrong answer).
    A wrong answer found by a later check moves a success into ``wrong``.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.succeeded = 0
        self.failures: Dict[str, int] = {}

    def ok(self, count: int = 1) -> None:
        self.attempted += count
        self.succeeded += count

    def fail(self, cause: str, count: int = 1) -> None:
        self.attempted += count
        self.failures[cause] = self.failures.get(cause, 0) + count

    def wrong(self, count: int) -> None:
        """Reclassify ``count`` successes as incorrect answers."""
        if count > self.succeeded:
            raise ValueError("more wrong answers than successes")
        if count:
            self.succeeded -= count
            self.failures["wrong"] = self.failures.get("wrong", 0) + count

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.succeeded += other.succeeded
        for cause, count in other.failures.items():
            self.failures[cause] = self.failures.get(cause, 0) + count

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "attempted": self.attempted,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "failed_share": self.failed_share,
            "failures": dict(sorted(self.failures.items())),
        }


# ------------------------------------------------------------ process plumbing


def vm_hwm_mib(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB.

    ``ru_maxrss`` is inherited across fork+exec, so a child would report
    its parent's peak; ``/proc/<pid>/status`` is per process.
    """
    status = Path(f"/proc/{pid or 'self'}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported by /proc")


def child_env() -> Dict[str, str]:
    """Environment for benchmark processes: the program's sources on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # One thread per numeric library, as on the sizing box, so results do not
    # depend on how many cores a BLAS build decides to use.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(name, "1")
    return env


class Child:
    """A benchmark process that announces readiness with one stdout line.

    The child prints ``READY <json>`` once it can do its job; everything
    else it reports goes to a file.  :meth:`stop` ends it (SIGTERM, then
    SIGKILL) and waits until it has exited.
    """

    def __init__(self, script: str, args: Sequence[str]) -> None:
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.ready_at: Optional[float] = None

    def wait_ready(self, timeout: float = 120.0) -> Dict[str, object]:
        """Block until the READY line; returns its payload."""
        assert self.process.stdout is not None
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"child {self.process.args[1]} not ready in {timeout}s")
            readable, _, _ = select.select([self.process.stdout], [], [], remaining)
            if not readable:
                continue
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"child {self.process.args[1]} exited with {self.process.wait()} "
                    "before it was ready"
                )
            if line.startswith("READY "):
                self.ready_at = time.perf_counter()
                return json.loads(line[len("READY "):])

    def wait(self, timeout: float = 120.0) -> int:
        """Wait for a child that exits on its own; raises if it failed."""
        try:
            code = self.process.wait(timeout)
        finally:
            self.stop()
        if code != 0:
            raise RuntimeError(f"child {self.process.args[1]} exited with {code}")
        return code

    def stop(self, timeout: float = 30.0) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()


def write_json(path: Path, payload: object) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload))
    tmp.replace(path)


def read_json(path: Path) -> object:
    return json.loads(path.read_text())


def available_cpus() -> int:
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        return max(1, len(getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def load_connections() -> int:
    """Connections the load generator may open: at most nproc, and at most two."""
    return min(2, available_cpus())


# ------------------------------------------------------------------ fingerprint


def _git(*args: str) -> Optional[str]:
    """``git`` in the benchmark's own checkout, never a repository above it."""
    try:
        done = subprocess.run(
            ["git", *args],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> Dict[str, object]:
    """Where a result was measured: machine, interpreter, libraries, revision."""
    import numpy
    import scipy

    getaffinity = getattr(os, "sched_getaffinity", None)
    revision = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if revision else None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(getaffinity(0)) if getaffinity else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_revision": revision or "unknown",
        "git_dirty": bool(status) if status is not None else None,
    }


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
