"""Results accumulation: throughput, percentiles, merging."""

import pytest

from repro.core.results import (LatencySample, Results, STATUS_ABORTED,
                                STATUS_ERROR, STATUS_OK, merge, percentile)


def sample(txn="T", start=0.0, queue_delay=0.0, latency=0.01,
           status=STATUS_OK, tenant="tenant-0"):
    return LatencySample(txn, start, queue_delay, latency, status,
                         tenant=tenant)


def test_counts_by_status_and_txn():
    results = Results()
    results.record(sample("A"))
    results.record(sample("A", status=STATUS_ABORTED))
    results.record(sample("B", status=STATUS_ERROR))
    assert len(results) == 3
    assert results.committed() == 1
    assert results.aborted() == 1
    counts = results.metrics.txn_counts()
    assert counts["A"] == {"committed": 1, "aborted": 1, "errors": 0}
    assert counts["B"] == {"committed": 0, "aborted": 0, "errors": 1}
    assert results.abort_rate() == pytest.approx(1 / 3)


def test_sample_end_and_response_time():
    s = sample(start=10.0, queue_delay=0.5, latency=0.25)
    assert s.end == 10.75
    assert s.response_time == 0.75


def test_throughput_over_duration():
    results = Results()
    for i in range(100):
        results.record(sample(start=i * 0.1, latency=0.05))
    assert results.throughput() == pytest.approx(
        100 / results.duration(), rel=1e-6)


def test_throughput_window():
    results = Results()
    for i in range(10):
        results.record(sample(start=float(i)))  # ends at i + 0.01
    assert results.throughput(window=(0.0, 5.0)) == pytest.approx(1.0)
    assert results.throughput(window=(20.0, 25.0)) == 0.0
    assert results.throughput(window=(5, 5)) == 0.0


def test_throughput_window_needs_whole_seconds():
    """The per-second ring answers windows exactly only on whole
    seconds, so a fractional bound is refused rather than rounded."""
    results = Results()
    results.record(sample(start=1.2))
    for window in ((0.5, 5.0), (0.0, 4.5)):
        with pytest.raises(ValueError, match="whole-second"):
            results.throughput(window=window)


def test_duration_spans_first_start_to_last_end_of_every_status():
    results = Results()
    assert results.duration() == 0.0
    results.record(sample(start=2.0, queue_delay=0.5, latency=0.25))
    results.record_batch([sample(start=-1.0, status=STATUS_ABORTED),
                          sample(start=4.0, latency=1.0,
                                 status=STATUS_ERROR)])
    assert results.duration() == 6.0


def test_per_second_throughput_counts_commits_only():
    results = Results()
    results.record(sample(start=1.2))
    results.record(sample(start=1.7))
    results.record(sample(start=1.8, status=STATUS_ABORTED))
    results.record(sample(start=2.5))
    assert results.per_second_throughput() == [(1, 2), (2, 1)]


def test_latency_percentiles():
    results = Results()
    for latency in [0.01 * i for i in range(1, 101)]:
        results.record(sample(latency=latency))
    summary = results.latency_percentiles()
    assert summary["min"] == pytest.approx(0.01)
    assert summary["max"] == pytest.approx(1.0)
    assert summary["p50"] == pytest.approx(0.505, rel=0.02)
    assert summary["p99"] == pytest.approx(0.99, rel=0.02)
    assert summary["avg"] == pytest.approx(0.505, rel=0.01)


def test_latency_percentiles_empty():
    assert Results().latency_percentiles() == {}


def test_percentile_function():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        percentile([], 50)
    assert percentile([7.0], 99) == 7.0


def test_summary_structure():
    results = Results()
    results.record(sample("A"))
    results.record(sample("B", status=STATUS_ABORTED))
    results.record_postponed(3)
    summary = results.summary()
    assert summary["total"] == 2
    assert summary["postponed"] == 3
    assert set(summary["per_txn"]) == {"A", "B"}
    assert summary["per_txn"]["B"]["aborted"] == 1


def test_merge_combines_results():
    a, b = Results(), Results()
    a.record(sample("A", tenant="t1"))
    b.record(sample("B", tenant="t2"))
    b.record_postponed(2)
    merged = merge([a, b])
    assert len(merged) == 2
    assert merged.postponed == 2
    assert list(merged.metrics.txn_counts()) == ["A", "B"]


def test_thread_safety_smoke():
    import threading
    results = Results()

    def writer():
        for i in range(500):
            results.record(sample(start=float(i)))

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 2000


def test_negative_virtual_end_buckets_with_floor():
    """A sample ending at -0.55 belongs to second -1, not 0."""
    results = Results()
    results.record(sample(start=-0.6, latency=0.05))
    assert results.per_second_throughput() == [(-1, 1)]


def test_postponed_property_is_locked_accessor():
    results = Results()
    results.record_postponed(2)
    assert results.postponed == 2
    assert results.metrics.postponed() == 2  # mirrored into streaming


def test_merge_sums_postponed_and_rebuilds_metrics():
    a, b = Results(), Results()
    a.record(sample("A", start=1.0))
    a.record_postponed(1)
    b.record(sample("B", start=2.0))
    b.record_postponed(4)
    merged = merge([a, b])
    assert merged.postponed == 5
    # Streaming state is rebuilt from the replayed samples.
    assert merged.metrics.committed() == 2
    assert merged.metrics.postponed() == 5
    assert merged.metrics.throughput_series() == [(1, 1), (2, 1)]


def test_record_feeds_streaming_metrics_once():
    results = Results()
    for i in range(10):
        results.record(sample(start=float(i)))
    snap = results.metrics.snapshot(10.0, 10.0)
    assert snap["totals"]["committed"] == 10
    assert snap["window"]["throughput"] == pytest.approx(1.0)


# -- batched recording (batched-driver hot path) --------------------------


def test_record_batch_matches_per_sample_record():
    batched, serial = Results(), Results()
    samples = [sample("A", start=float(i)) for i in range(20)]
    batched.record_batch(samples)
    for s in samples:
        serial.record(s)
    assert batched.samples() == serial.samples()
    assert batched.metrics.committed() == serial.metrics.committed()
    assert batched.metrics.throughput_series() == \
        serial.metrics.throughput_series()
    assert batched.recorder_stats()["sample_batches"] == 1
    assert serial.recorder_stats()["sample_batches"] == 0


def test_record_batch_empty_is_noop():
    results = Results()
    results.record_batch([])
    assert len(results) == 0
    assert results.recorder_stats() == {"sample_batches": 0, "samples": 0}


def test_sample_buffer_flushes_at_capacity():
    results = Results()
    buffer = results.buffered(capacity=4, interval=1000.0)
    for i in range(3):
        buffer.add(sample(start=float(i)))
        assert len(results) == 0  # still worker-local
    buffer.add(sample(start=3.0))
    assert len(results) == 4
    assert len(buffer) == 0


def test_sample_buffer_flushes_on_sample_time_epoch():
    results = Results()
    buffer = results.buffered(capacity=1000, interval=0.25)
    buffer.add(sample(start=0.0))
    buffer.add(sample(start=0.1))
    assert len(results) == 0
    buffer.add(sample(start=0.3))  # 0.3 - 0.0 >= 0.25: epoch flush
    assert len(results) == 3


def test_sample_buffer_manual_flush_and_stranded_tail():
    results = Results()
    buffer = results.buffered(capacity=100, interval=100.0)
    buffer.add(sample(start=0.0))
    buffer.add(sample(start=0.1))
    assert buffer.flush() == 2
    assert buffer.flush() == 0
    assert len(results) == 2


def test_sample_buffer_capacity_validated():
    with pytest.raises(ValueError):
        Results().buffered(capacity=0)


def test_direct_recorder_is_unbuffered():
    from repro.core.results import DirectRecorder
    results = Results()
    recorder = DirectRecorder(results)
    recorder.add(sample(start=0.0))
    assert len(results) == 1
    assert recorder.flush() == 0
    assert results.recorder_stats()["sample_batches"] == 0


def test_merge_uses_one_batch_per_source():
    sources = []
    for i in range(3):
        results = Results()
        for j in range(5):
            results.record(sample(start=float(i * 5 + j)))
        sources.append(results)
    merged = merge(sources)
    assert len(merged) == 15
    # One extend per source container, not one lock pass per sample.
    assert merged.recorder_stats()["sample_batches"] == 3
    assert merged.metrics.committed() == 15
