"""Resilience primitives: breaker transitions, backoff, health, fallback load."""

import os

import pytest

from repro.api.config import EngineConfig
from repro.api.engine import RewriteEngine
from repro.api.snapshot import SnapshotError
from repro.api.sources import resolve_engine_source
from repro.core import faults
from repro.core.config import SimrankConfig
from repro.serving.resilience import (
    DEGRADED,
    DRAINING,
    HEALTHY,
    CircuitBreaker,
    RetryPolicy,
    classify_health,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCircuitBreaker:
    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="threshold"):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError, match="reset_s"):
            CircuitBreaker(reset_s=0)

    def test_opens_at_threshold_and_half_opens_after_reset(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=2, reset_s=5.0, clock=clock)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock.advance(5.0)
        assert breaker.state == "half_open"

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, reset_s=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # concurrent caller refused
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens_for_a_fresh_window(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, reset_s=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.state == "half_open"

    def test_release_frees_the_probe_without_closing(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, reset_s=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.release()  # e.g. the admitted call hit a client error
        assert breaker.state == "half_open"
        assert breaker.allow()  # a real probe can still run

    def test_success_resets_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        assert breaker.consecutive_failures == 0
        assert breaker.closed

    def test_describe_is_json_ready(self):
        breaker = CircuitBreaker(threshold=2, reset_s=3.0)
        described = breaker.describe()
        assert described == {
            "state": "closed",
            "consecutive_failures": 0,
            "threshold": 2,
            "reset_s": 3.0,
        }


class TestRetryPolicy:
    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="retries"):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff_s=-0.1)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.0)

    def test_delays_are_deterministic_and_exponential(self):
        policy = RetryPolicy(retries=3, backoff_s=0.1, max_backoff_s=10.0, seed=7)
        first = list(policy.delays())
        second = list(policy.delays())
        assert first == second
        assert len(first) == 3
        # Jitter scales within [1 - jitter, 1], so the exponential base
        # bounds each delay from above and the scaled base from below.
        for attempt, delay in enumerate(first):
            base = 0.1 * 2**attempt
            assert base * (1 - policy.jitter) <= delay <= base

    def test_backoff_caps_at_max(self):
        policy = RetryPolicy(retries=8, backoff_s=1.0, max_backoff_s=2.0, jitter=0.0)
        assert max(policy.delays()) <= 2.0

    def test_zero_retries_yields_nothing(self):
        assert list(RetryPolicy(retries=0).delays()) == []


class TestClassifyHealth:
    def test_states(self):
        assert (
            classify_health(
                draining=False, breaker_closed=True, consecutive_failures=0
            )
            == HEALTHY
        )
        assert (
            classify_health(
                draining=False, breaker_closed=False, consecutive_failures=0
            )
            == DEGRADED
        )
        assert (
            classify_health(
                draining=False, breaker_closed=True, consecutive_failures=2
            )
            == DEGRADED
        )
        # Draining dominates everything else.
        assert (
            classify_health(
                draining=True, breaker_closed=False, consecutive_failures=5
            )
            == DRAINING
        )


def _build_engine(graph):
    config = EngineConfig(
        method="weighted_simrank",
        similarity=SimrankConfig(iterations=20, tolerance=1e-8),
        bid_filtering=False,
    )
    return RewriteEngine.from_graph(graph, config).fit()


def load_with_fallback(path, warn=None):
    """``(engine, path actually loaded)`` through the snapshot front door."""
    resolved = resolve_engine_source(snapshot=path, warn=warn)
    return resolved.engine, resolved.origin


class TestSnapshotSiblingFallback:
    def test_loads_the_requested_snapshot_when_healthy(
        self, small_weighted_graph, tmp_path
    ):
        engine = _build_engine(small_weighted_graph)
        target = tmp_path / "good"
        engine.save(target)
        loaded, used = load_with_fallback(target)
        assert used == target
        assert loaded.is_fitted

    def test_falls_back_to_newest_loadable_sibling(
        self, small_weighted_graph, tmp_path
    ):
        engine = _build_engine(small_weighted_graph)
        older = tmp_path / "older"
        newer = tmp_path / "newer"
        engine.save(older)
        engine.save(newer)
        # Force a visible mtime gap: back-to-back saves can land within the
        # filesystem's timestamp resolution.
        manifest = older / "manifest.json"
        stamp = manifest.stat().st_mtime - 100
        os.utime(manifest, (stamp, stamp))
        corrupt = tmp_path / "corrupt"
        with faults.FaultPlan(
            [faults.FaultSpec("snapshot.write", corrupt=True, times=1)]
        ):
            engine.save(corrupt)
        warnings = []
        loaded, used = load_with_fallback(corrupt, warn=warnings.append)
        assert used == newer  # manifest mtime orders the candidates
        assert loaded.is_fitted
        assert any("failed to load" in message for message in warnings)
        assert any("fallback" in message for message in warnings)

    def test_reraises_original_error_when_no_sibling_loads(self, tmp_path):
        missing = tmp_path / "nothing-here"
        with pytest.raises(SnapshotError, match="no engine snapshot"):
            load_with_fallback(missing)

    def test_skips_unloadable_siblings(self, small_weighted_graph, tmp_path):
        engine = _build_engine(small_weighted_graph)
        good = tmp_path / "good"
        engine.save(good)
        with faults.FaultPlan(
            [faults.FaultSpec("snapshot.write", corrupt=True, times=2)]
        ):
            engine.save(tmp_path / "torn-a")
            engine.save(tmp_path / "torn-b")
        warnings = []
        loaded, used = load_with_fallback(
            tmp_path / "torn-b", warn=warnings.append
        )
        assert used == good
        assert loaded.is_fitted
