"""Trace writer round trips and analyzer metrics."""

import math

import pytest

from repro.core.results import LatencySample, Results, STATUS_ABORTED
from repro.metrics import StreamingMetrics
from repro.trace import TraceAnalyzer, TraceWriter, read_trace


def make_results(per_second, seconds=10, txn="T", latency=0.01):
    results = Results()
    for second in range(seconds):
        for i in range(per_second(second)):
            results.record(LatencySample(
                txn, second + i / max(1, per_second(second)), 0.0, latency))
    return results


def test_trace_round_trip(tmp_path):
    results = make_results(lambda s: 5)
    results.record(LatencySample("X", 3.0, 0.5, 0.2, STATUS_ABORTED,
                                 worker_id=7, tenant="t9"))
    path = tmp_path / "trace.txt"
    with TraceWriter(path) as writer:
        count = writer.write_results(results)
    assert count == 51
    loaded = read_trace(path)
    assert len(loaded) == 51
    reloaded = [s for s in loaded.samples() if s.tenant == "t9"][0]
    assert reloaded.worker_id == 7
    assert reloaded.status == STATUS_ABORTED
    assert reloaded.queue_delay == pytest.approx(0.5)


def test_throughput_series_fills_gaps():
    results = Results()
    results.record(LatencySample("T", 0.5, 0.0, 0.01))
    results.record(LatencySample("T", 3.5, 0.0, 0.01))
    analyzer = TraceAnalyzer(results)
    assert analyzer.throughput_series() == [(0, 1), (1, 0), (2, 0), (3, 1)]
    assert analyzer.throughput_series(start=1, end=3) == [(1, 0), (2, 0)]


def test_per_txn_series():
    results = Results()
    results.record(LatencySample("A", 0.5, 0.0, 0.01))
    results.record(LatencySample("B", 0.6, 0.0, 0.01))
    analyzer = TraceAnalyzer(results)
    assert analyzer.per_txn_series("A") == [(0, 1)]


def test_jitter_zero_for_constant_series():
    analyzer = TraceAnalyzer(make_results(lambda s: 10))
    assert analyzer.jitter() == pytest.approx(0.0)


def test_jitter_positive_for_oscillating_series():
    analyzer = TraceAnalyzer(make_results(
        lambda s: 5 if s % 2 == 0 else 15))
    assert analyzer.jitter() > 0.3


def test_tracking_perfect_delivery():
    analyzer = TraceAnalyzer(make_results(lambda s: 50))
    report = analyzer.tracking(lambda t: 50.0, 0, 10)
    assert report.mean_abs_error == 0
    assert report.within_tolerance_fraction == 1.0
    assert report.passed()


def test_tracking_reports_shortfall():
    analyzer = TraceAnalyzer(make_results(lambda s: 30))
    report = analyzer.tracking(lambda t: 60.0, 0, 10)
    assert report.mean_delivered == pytest.approx(30.0)
    assert report.mean_rel_error == pytest.approx(0.5)
    assert not report.passed()
    assert report.max_overshoot == -30.0


def test_tracking_moving_target():
    analyzer = TraceAnalyzer(make_results(lambda s: 10 * (s + 1)))
    report = analyzer.tracking(lambda t: 10.0 * (int(t) + 1), 0, 10)
    assert report.within_tolerance_fraction == 1.0


def test_tracking_empty_window_raises():
    with pytest.raises(ValueError):
        TraceAnalyzer(Results()).tracking(lambda t: 1.0, 0, 10)


def test_rate_cap_violations():
    analyzer = TraceAnalyzer(make_results(
        lambda s: 110 if s == 4 else 90))
    assert analyzer.rate_cap_violations(cap=100) == 1
    assert analyzer.rate_cap_violations(cap=100, slack=15) == 0


def test_queue_delay_percentile():
    results = Results()
    for i in range(100):
        results.record(LatencySample("T", 0.0, i / 100.0, 0.01))
    analyzer = TraceAnalyzer(results)
    assert analyzer.queue_delay_percentile(50) == pytest.approx(0.5,
                                                                abs=0.02)
    assert TraceAnalyzer(Results()).queue_delay_percentile(50) == 0.0


def test_report_shape():
    analyzer = TraceAnalyzer(make_results(lambda s: 5))
    report = analyzer.report()
    assert set(report) == {"summary", "jitter", "series",
                           "series_complete"}
    assert report["series_complete"] is True


def test_report_flags_a_series_the_ring_truncated():
    """A run longer than the metrics ring loses its oldest seconds; the
    report says so instead of presenting the remainder as the run."""
    results = Results(StreamingMetrics(history_seconds=4))
    for second in range(10):
        results.record(LatencySample("T", second + 0.5, 0.0, 0.01))
    report = TraceAnalyzer(results).report()
    assert report["series_complete"] is False
    assert [second for second, _ in report["series"]] == [6, 7, 8, 9]
    assert results.throughput((6, 10)) == 1.0
    with pytest.raises(ValueError, match="evicted"):
        results.throughput((0, 4))  # gone, not zero


def test_per_txn_series_reads_the_ring():
    results = make_results(lambda s: 2 + s % 2, seconds=4)
    results.record(LatencySample("X", 1.5, 0.0, 0.01))
    results.record(LatencySample("X", 2.5, 0.0, 0.01, STATUS_ABORTED))
    analyzer = TraceAnalyzer(results)
    assert analyzer.per_txn_series("T") == [(0, 2), (1, 3), (2, 2), (3, 3)]
    assert analyzer.per_txn_series("X") == [(1, 1)]
    assert analyzer.per_txn_series("missing") == []
