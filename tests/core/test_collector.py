"""Instantaneous feedback windows (paper §2.2.4).

These cases were written for the standalone ``StatisticsCollector``;
the streaming metrics that replaced it serve the same windows, so they
now run against :class:`~repro.metrics.StreamingMetrics`.
"""

import pytest

from repro.metrics import StreamingMetrics


def test_instantaneous_throughput():
    metrics = StreamingMetrics()
    for i in range(10):  # 2 txns per second for 5 seconds
        metrics.observe(float(i // 2), "A", 0.01, "ok")
    stats = metrics.instantaneous(now=5.0, window=5.0)
    assert stats["throughput"] == pytest.approx(2.0)
    assert stats["avg_latency"] == pytest.approx(0.01)


def test_per_txn_breakdown():
    metrics = StreamingMetrics()
    metrics.observe(1.0, "A", 0.010, "ok")
    metrics.observe(1.1, "A", 0.030, "ok")
    metrics.observe(1.2, "B", 0.100, "ok")
    stats = metrics.instantaneous(now=2.0, window=2.0)
    assert stats["per_txn"]["A"]["avg_latency"] == pytest.approx(0.020)
    assert stats["per_txn"]["B"]["throughput"] == pytest.approx(0.5)


def test_aborts_tracked_separately():
    metrics = StreamingMetrics()
    metrics.observe(1.0, "A", 0.0, "aborted")
    metrics.observe(1.0, "A", 0.01, "ok")
    stats = metrics.instantaneous(now=2.0, window=2.0)
    assert stats["aborts_per_sec"] == pytest.approx(0.5)
    assert stats["throughput"] == pytest.approx(0.5)


def test_current_incomplete_second_excluded():
    metrics = StreamingMetrics()
    metrics.observe(4.99, "A", 0.01, "ok")
    metrics.observe(5.01, "A", 0.01, "ok")  # second 5 is still open
    stats = metrics.instantaneous(now=5.5, window=5.0)
    assert stats["throughput"] == pytest.approx(1 / 5)


def test_window_excludes_older_buckets():
    metrics = StreamingMetrics()
    metrics.observe(0.5, "A", 0.01, "ok")
    metrics.observe(8.5, "A", 0.01, "ok")
    stats = metrics.instantaneous(now=10.0, window=3.0)
    assert stats["throughput"] == pytest.approx(1 / 3)


def test_history_eviction():
    metrics = StreamingMetrics(history_seconds=10)
    metrics.observe(0.0, "A", 0.01, "ok")
    metrics.observe(100.0, "A", 0.01, "ok")
    series = metrics.throughput_series()
    assert [s for s, _ in series] == [100]


def test_throughput_series_bounds():
    metrics = StreamingMetrics()
    for second in range(5):
        metrics.observe(second + 0.5, "A", 0.01, "ok")
    assert metrics.throughput_series(start=1, end=3) == [(1, 1), (2, 1)]


def test_empty_collector():
    stats = StreamingMetrics().instantaneous(now=10.0)
    assert stats["throughput"] == 0.0
    assert stats["avg_latency"] == 0.0
    assert stats["per_txn"] == {}
