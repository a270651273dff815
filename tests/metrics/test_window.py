"""Per-second ring buffer vs the batch sample-rescan reference."""

import pytest

from repro.core.results import (LatencySample, STATUS_ABORTED,
                                STATUS_ERROR, STATUS_OK)
from repro.metrics import ThroughputWindow

from . import batch_reference as ref


def feed(window, samples, *, start, latency=0.01, status=STATUS_OK,
         txn="T"):
    sample = LatencySample(txn, start, 0.0, latency, status)
    window.record(sample.end, txn, latency, status)
    samples.append(sample)
    return sample


def test_per_second_series_matches_batch():
    window = ThroughputWindow()
    samples = []
    for i in range(50):
        feed(window, samples, start=i * 0.25,
             txn="AB"[i % 2])  # 4 commits/second
    feed(window, samples, start=3.5, status=STATUS_ABORTED)
    assert window.series() == ref.per_second_throughput(samples)
    for txn in "AB":
        assert window.series(txn_name=txn) == \
            ref.per_second_throughput(samples, txn)
    assert window.series(txn_name="missing") == []


def test_window_stats_match_batch_throughput_exactly():
    """Same floor bucketing both sides: the window numbers are exact."""
    window = ThroughputWindow()
    samples = []
    for i in range(80):
        feed(window, samples, start=i * 0.125)  # ends within [0, 10)
    now = 10.0
    for w in (2, 5, 10):
        stats = window.window_stats(now, float(w))
        assert stats["throughput"] == \
            ref.throughput(samples, window=(now - w, now))


def test_window_excludes_current_incomplete_second():
    window = ThroughputWindow()
    window.record(4.2, "T", 0.01, STATUS_OK)
    window.record(5.1, "T", 0.01, STATUS_OK)  # current second when now=5.5
    stats = window.window_stats(5.5, 5.0)
    assert stats["committed"] == 1
    assert stats["throughput"] == pytest.approx(1 / 5)


def test_aborts_and_errors_counted_per_second():
    window = ThroughputWindow()
    window.record(1.0, "T", 0.01, STATUS_OK)
    window.record(1.2, "T", 0.01, STATUS_ABORTED)
    window.record(1.4, "T", 0.01, STATUS_ERROR)
    stats = window.window_stats(2.0, 1.0)
    assert stats["committed"] == 1
    assert stats["aborts_per_sec"] == pytest.approx(1.0)
    assert stats["errors_per_sec"] == pytest.approx(1.0)


def test_per_txn_breakdown():
    window = ThroughputWindow()
    window.record(1.0, "A", 0.02, STATUS_OK)
    window.record(1.1, "A", 0.04, STATUS_OK)
    window.record(1.2, "B", 0.10, STATUS_OK)
    per_txn = window.window_stats(2.0, 1.0)["per_txn"]
    assert per_txn["A"]["throughput"] == pytest.approx(2.0)
    assert per_txn["A"]["avg_latency"] == pytest.approx(0.03)
    assert per_txn["B"]["throughput"] == pytest.approx(1.0)


def test_negative_virtual_seconds_use_floor():
    """A sample ending at -0.5 belongs to second -1, not 0."""
    window = ThroughputWindow()
    window.record(-0.5, "T", 0.01, STATUS_OK)
    assert window.series() == [(-1, 1)]
    stats = window.window_stats(0.0, 1.0)
    assert stats["committed"] == 1


def test_eviction_marks_history_incomplete():
    window = ThroughputWindow(history_seconds=4)
    assert window.complete()
    for second in range(6):
        window.record(second + 0.5, "T", 0.01, STATUS_OK)
    assert not window.complete()
    # Only the seconds within the retained horizon are reported.
    assert window.series() == [(2, 1), (3, 1), (4, 1), (5, 1)]
    assert window.series(start=2) == [(2, 1), (3, 1), (4, 1), (5, 1)]
    # A bounded query reaching back into evicted seconds is refused.
    with pytest.raises(ValueError, match="evicted"):
        window.series(start=1, end=4)


def test_stale_samples_are_dropped_and_counted():
    window = ThroughputWindow(history_seconds=4)
    for second in range(6):
        window.record(second + 0.5, "T", 0.01, STATUS_OK)
    window.record(0.9, "T", 0.01, STATUS_OK)  # beyond the horizon
    assert window.dropped_stale == 1
    assert window.series() == [(2, 1), (3, 1), (4, 1), (5, 1)]


def test_series_range_arguments():
    window = ThroughputWindow()
    for second in range(5):
        window.record(second + 0.1, "T", 0.01, STATUS_OK)
    assert window.series(start=1, end=4) == [(1, 1), (2, 1), (3, 1)]
    assert ThroughputWindow().series() == []


def test_rejects_nonpositive_history():
    with pytest.raises(ValueError):
        ThroughputWindow(history_seconds=0)


def test_window_longer_than_the_ring_visits_only_retained_seconds():
    """A huge window answers from the ring's slots, not 10**7 seconds."""
    window = ThroughputWindow(history_seconds=10)
    for second in range(30):
        for i in range(second % 3 + 1):
            window.record(second + 0.1 * i, "AB"[i % 2], 0.01, STATUS_OK)
        if second % 2 == 0:
            window.record(second + 0.5, "A", 0.01, STATUS_ABORTED)
    stats = window.window_stats(30.0, 10**7)
    last = range(20, 30)  # the ring's ten retained seconds
    committed = sum(second % 3 + 1 for second in last)
    assert stats["seconds"] == 10**7
    assert stats["committed"] == committed
    assert stats["throughput"] == committed / 10**7
    assert stats["aborts_per_sec"] == 5 / 10**7
    assert stats["per_txn"]["B"]["throughput"] == \
        sum(1 for second in last if second % 3) / 10**7
    # Within the ring the same seconds give the same counts.
    assert window.window_stats(30.0, 10.0)["committed"] == committed
