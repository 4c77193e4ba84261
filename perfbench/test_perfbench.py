"""Tests of the benchmark's own statistics and accounting.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import pytest

import common
import inputs
import loadgen_proc
import run


def test_percentile_is_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert common.percentile(values, 50) == 3.0
    assert common.percentile(values, 20) == 1.0
    assert common.percentile(values, 21) == 2.0
    assert common.percentile(values, 100) == 5.0
    with pytest.raises(ValueError):
        common.percentile([], 50)


@pytest.mark.parametrize(
    "n, tail",
    [
        (10000, 99.9),  # rank 9990: ten samples beyond
        (9999, 99.0),
        (1000, 99.0),  # rank 990: ten samples beyond
        (999, 95.0),
        (200, 95.0),
        (199, 90.0),
        (20, 50.0),
        (19, None),
        (0, None),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, tail):
    assert common.supported_tail(n) == tail
    if tail is not None:
        assert common.samples_beyond(n, tail) >= common.MIN_BEYOND


def test_timing_summary_reports_count_median_and_supported_tail():
    values = [float(i) for i in range(1, 21)]
    assert common.timing_summary(values) == {"n": 20, "p50": 10.0, "tail_pct": 50.0, "tail": 10.0}
    assert common.timing_summary([1.0, 2.0]) == {"n": 2, "p50": 1.0}
    assert common.timing_summary([]) == {"n": 0}


def test_windows_cover_the_sample_in_order_with_minimum_size():
    values = list(range(2500))
    parts = common.windows(values, 1000)
    assert [len(part) for part in parts] == [1250, 1250]
    assert [x for part in parts for x in part] == values
    assert common.windows(values[:10], 1000) == [values[:10]]


def test_windowed_percentile_ignores_one_spoiled_window():
    quiet = [1.0] * 1000
    spoiled = [1.0] * 900 + [500.0] * 100
    assert common.windowed(quiet + spoiled + quiet, 99) == 1.0
    assert common.percentile(quiet + spoiled + quiet, 99) == 500.0


def test_lateness_counts_only_the_generators_own_delay():
    # Connection free before the due time: late by how far past due it sent.
    assert common.lateness_ms(due=1.0, picked=0.5, sent=1.002) == pytest.approx(2.0)
    # Connection busy until after the due time: that wait is server backlog.
    assert common.lateness_ms(due=1.0, picked=1.5, sent=1.5) == 0.0
    assert common.lateness_ms(due=1.0, picked=1.5, sent=1.501) == pytest.approx(1.0)


def test_tally_accounts_every_operation_once():
    tally = common.Tally()
    tally.ok(8)
    tally.fail("http_500")
    tally.fail("ConnectionResetError", 2)
    tally.wrong(3)
    assert (tally.attempted, tally.succeeded, tally.failed) == (11, 5, 6)
    assert tally.attempted == tally.succeeded + tally.failed
    assert tally.failed_share == pytest.approx(6 / 11)
    with pytest.raises(ValueError):
        tally.wrong(6)
    other = common.Tally()
    other.ok(2)
    tally.merge(other)
    assert (tally.attempted, tally.succeeded, tally.failed) == (13, 7, 6)
    assert common.Tally().failed_share == 0.0


def test_phase_records_non_200_as_failures_and_keeps_bodies_by_version():
    phase = loadgen_proc.Phase("p")
    rows = [{"rewrite": "b", "rank": 1, "score": 0.5}]
    assert phase.record("a", 200, {"version": 2, "rewrites": rows}, done=1.0)
    assert phase.record("a", 200, {"version": 2, "rewrites": rows}, done=1.1)
    assert not phase.record("a", 503, {"error": "full"}, done=1.2)
    summary = phase.to_dict()
    assert summary["tally"]["failures"] == {"http_503": 1}
    assert summary["bodies"] == [[2, "a", '[{"rank": 1, "rewrite": "b", "score": 0.5}]', 2]]


def test_publish_time_runs_from_due_to_first_answer_of_new_version():
    phase = loadgen_proc.Phase("p")
    phase.versions_seen = [(10.1, 1), (10.3, 2), (10.2, 2), (11.0, 3)]
    phase.extra["_published"] = [(10.0, 2), (10.5, 3), (12.0, 4)]
    loadgen_proc.publish_times(phase)
    assert phase.publish_s == pytest.approx([0.2, 0.5])
    assert phase.tally.failures == {"publish_never_answered": 1}


def test_lists_match_is_exact_up_to_score_tolerance_and_ties():
    reference = [["x", 1, 0.5], ["y", 2, 0.25], ["z", 3, 0.25]]
    assert run.lists_match([list(row) for row in reference], reference)
    assert run.lists_match([["x", 1, 0.5 + 1e-12], ["y", 2, 0.25], ["z", 3, 0.25]], reference)
    assert not run.lists_match([["x", 1, 0.5 + 1e-6], ["y", 2, 0.25], ["z", 3, 0.25]], reference)
    # Tied candidates may trade places; untied ones may not.
    assert run.lists_match([["x", 1, 0.5], ["z", 2, 0.25], ["y", 3, 0.25]], reference)
    assert not run.lists_match([["y", 1, 0.5], ["x", 2, 0.25], ["z", 3, 0.25]], reference)
    assert not run.lists_match(reference[:2], reference)


def test_open_schedule_is_seeded_poisson_at_the_rate():
    ranked = [f"q{i}" for i in range(50)]
    schedule = inputs.open_schedule(ranked, rate=400.0, seconds=20.0, seed="s")
    assert schedule == inputs.open_schedule(ranked, rate=400.0, seconds=20.0, seed="s")
    assert schedule != inputs.open_schedule(ranked, rate=400.0, seconds=20.0, seed="t")
    offsets = [offset for offset, _ in schedule]
    assert offsets == sorted(offsets) and 0.0 < offsets[0] and offsets[-1] < 20.0
    assert len(schedule) == pytest.approx(8000, rel=0.05)
    gaps = [b - a for a, b in zip(offsets, offsets[1:])]
    mean = sum(gaps) / len(gaps)
    assert mean == pytest.approx(1 / 400.0, rel=0.05)
    # Exponential gaps: the standard deviation equals the mean (even
    # spacing would give 0), and about 1 - 1/e of gaps are below it.
    sd = (sum((gap - mean) ** 2 for gap in gaps) / len(gaps)) ** 0.5
    assert sd == pytest.approx(mean, rel=0.1)
    assert sum(gap < mean for gap in gaps) / len(gaps) == pytest.approx(0.632, abs=0.03)
    # Zipf popularity: the hottest query is the most requested.
    counts = {query: 0 for query in ranked}
    for _, query in schedule:
        counts[query] += 1
    assert max(counts, key=counts.get) == "q0"


def test_capacity_is_the_median_burst_rate_of_answered_lists():
    phases = [
        {"name": "fixed-0", "latencies_ms": [1.0] * 50, "elapsed_s": 1.0},
        {"name": "capacity-0", "latencies_ms": [1.0] * 100, "elapsed_s": 0.5},
        {"name": "capacity-1", "latencies_ms": [1.0] * 300, "elapsed_s": 1.0},
        {"name": "capacity-2", "latencies_ms": [1.0] * 90, "elapsed_s": 0.3},
    ]
    assert run.capacity(phases) == pytest.approx(300.0)
