"""Resilience primitives for the serving tier: keep answering, degrade loudly.

The serving loop (:mod:`repro.serving.server`) must keep returning correct
answers from the *published* engine even while the analytical side --
refits, snapshot IO, process-pool workers -- misbehaves.  This module
holds the mechanisms that make that survivable rather than accidental:

``CircuitBreaker``
    Stops hammering a failing refresh path.  After ``threshold``
    consecutive failures the breaker *opens* and publish attempts are
    refused outright (the server sheds them with a clean error while the
    stale engine keeps serving).  After ``reset_s`` it admits exactly one
    *half-open* probe; success closes the breaker, failure re-opens it.

``RetryPolicy``
    Exponential backoff with deterministic, seeded jitter for transient
    publish failures -- the first line of defence *before* the breaker
    trips.  ``delays()`` yields one sleep per retry so the caller stays in
    control of the loop (and can abort early when the breaker opens).

``classify_health``
    The ``healthy -> degraded -> draining`` state machine surfaced via
    ``/healthz`` and ``/stats``.  Degraded means "serving, but stale or
    struggling": the breaker is not closed, or the last publish attempt
    failed.  One successful refresh returns the server to healthy.

Everything here is synchronous, dependency-free and injectable-clock
testable; the asyncio server wraps these primitives in executor threads.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable, Iterator, Optional

__all__ = [
    "HEALTHY",
    "DEGRADED",
    "DRAINING",
    "CircuitBreaker",
    "RetryPolicy",
    "classify_health",
]

#: Health states, in order of decreasing wellness.  ``healthy``: serving and
#: last publish succeeded.  ``degraded``: still serving (possibly stale),
#: but the refresh path is struggling.  ``draining``: shutting down, new
#: work is shed.
HEALTHY = "healthy"
DEGRADED = "degraded"
DRAINING = "draining"


def classify_health(
    *, draining: bool, breaker_closed: bool, consecutive_failures: int
) -> str:
    """Fold server shutdown, breaker and publish-ledger state into one word.

    Draining dominates (the server is leaving, wellness is moot); any sign
    of refresh trouble -- a non-closed breaker or a publish failure not yet
    followed by a success -- reads as degraded.  The inverse transition is
    exactly "one successful refresh": a publish resets the holder's
    consecutive-failure count and closes the breaker, so the next health
    read is healthy again.
    """
    if draining:
        return DRAINING
    if not breaker_closed or consecutive_failures > 0:
        return DEGRADED
    return HEALTHY


class CircuitBreaker:
    """Consecutive-failure circuit breaker with a single half-open probe.

    States: ``closed`` (normal -- every call admitted), ``open`` (refuse
    everything until ``reset_s`` has elapsed since the trip), ``half_open``
    (admit exactly one probe; its outcome decides between ``closed`` and a
    fresh ``open`` period).  The caller drives it manually::

        if not breaker.allow():
            ...shed the request, keep serving the stale engine...
        try:
            publish()
        except TransientError:
            breaker.record_failure()
        else:
            breaker.record_success()

    Thread-safe; ``clock`` is injectable (defaults to ``time.monotonic``)
    so tests can step time instead of sleeping.
    """

    def __init__(
        self,
        threshold: int = 3,
        reset_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if reset_s <= 0:
            raise ValueError(f"reset_s must be > 0, got {reset_s}")
        self.threshold = threshold
        self.reset_s = reset_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        """``closed`` / ``open`` / ``half_open`` (recomputed against the clock)."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    @property
    def closed(self) -> bool:
        return self.state == "closed"

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._failures

    def allow(self) -> bool:
        """Admit or refuse one publish attempt.

        Closed admits everything; open refuses everything until the reset
        window elapses; half-open admits exactly one in-flight probe --
        concurrent callers are refused until that probe's outcome is
        recorded.
        """
        with self._lock:
            self._maybe_half_open()
            if self._state == "closed":
                return True
            if self._state == "half_open" and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        """A publish admitted by :meth:`allow` succeeded: close the breaker."""
        with self._lock:
            self._state = "closed"
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def release(self) -> None:
        """An admitted call ended without a transient verdict.

        Client errors (a malformed delta) and permanent input errors (a
        corrupt snapshot path) say nothing about whether the publish path
        has recovered, so they neither close nor trip the breaker -- but a
        half-open probe slot they occupied must be freed, or no real probe
        could ever run again.
        """
        with self._lock:
            self._probing = False

    def record_failure(self) -> None:
        """A publish admitted by :meth:`allow` failed transiently.

        A failed half-open probe re-opens immediately (the window restarts);
        in closed state the trip happens at ``threshold`` consecutive
        failures.
        """
        with self._lock:
            self._failures += 1
            if self._state == "half_open" or (
                self._state == "closed" and self._failures >= self.threshold
            ):
                self._state = "open"
                self._opened_at = self._clock()
                self._probing = False

    # repro-lint: requires-lock=_lock
    def _maybe_half_open(self) -> None:
        """Open -> half-open once the reset window has elapsed (lock held)."""
        if (
            self._state == "open"
            and self._opened_at is not None
            and self._clock() - self._opened_at >= self.reset_s
        ):
            self._state = "half_open"
            self._probing = False

    def describe(self) -> dict:
        """JSON-ready state for ``/stats``."""
        with self._lock:
            self._maybe_half_open()
            return {
                "state": self._state,
                "consecutive_failures": self._failures,
                "threshold": self.threshold,
                "reset_s": self.reset_s,
            }

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state!r}, "
            f"failures={self.consecutive_failures}/{self.threshold})"
        )


class RetryPolicy:
    """Exponential backoff with deterministic seeded jitter.

    ``delays()`` yields ``retries`` sleep durations: attempt ``i`` backs
    off ``backoff_s * 2**i`` (capped at ``max_backoff_s``), scaled by a
    jitter factor drawn uniformly from ``[1 - jitter, 1]``.  Jitter decays
    the thundering-herd risk of synchronized retries; seeding keeps the
    chaos benchmark and tests reproducible.

    The policy is stateless across calls -- each ``delays()`` starts a
    fresh, identically-seeded sequence -- so one instance can serve every
    request handler.
    """

    def __init__(
        self,
        retries: int = 2,
        backoff_s: float = 0.05,
        max_backoff_s: float = 1.0,
        jitter: float = 0.5,
        seed: Optional[int] = 0,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff_s < 0 or max_backoff_s < 0:
            raise ValueError("backoff_s and max_backoff_s must be >= 0")
        if not 0.0 <= jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {jitter}")
        self.retries = retries
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        self.jitter = jitter
        self.seed = seed

    def delays(self) -> Iterator[float]:
        """Yield the backoff sleep before each retry attempt."""
        rng = random.Random(self.seed)
        for attempt in range(self.retries):
            base = min(self.max_backoff_s, self.backoff_s * (2.0**attempt))
            scale = 1.0 - self.jitter * rng.random()
            yield base * scale

    def __repr__(self) -> str:
        return (
            f"RetryPolicy(retries={self.retries}, backoff_s={self.backoff_s}, "
            f"max_backoff_s={self.max_backoff_s}, jitter={self.jitter})"
        )
