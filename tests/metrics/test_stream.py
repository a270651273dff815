"""StreamingMetrics end-to-end: equivalence with the batch reference."""

import threading

import pytest

from repro.core.results import (LatencySample, Results, STATUS_ABORTED,
                                STATUS_ERROR, STATUS_OK)
from repro.metrics import StreamingMetrics, TOTAL_KEY

from . import batch_reference as ref


def simulated_run(n=2000):
    """A deterministic multi-type run: ~100 tps for ~20 s, with a tail."""
    samples = []
    for i in range(n):
        start = i / 100.0
        latency = 0.002 + ((i * 31) % 89) / 89.0 * 0.03
        if i % 83 == 0:
            latency *= 15.0
        if i % 41 == 0:
            status = STATUS_ABORTED
        elif i % 311 == 0:
            status = STATUS_ERROR
        else:
            status = STATUS_OK
        samples.append(LatencySample(
            ("NewOrder", "Payment", "StockLevel")[i % 3], start, 0.001,
            latency, status))
    return samples


@pytest.fixture()
def recorded():
    """The same run fed through Results (which feeds its metrics)."""
    results = Results()
    for sample in simulated_run():
        results.record(sample)
    return results


def test_results_owns_streaming_metrics(recorded):
    assert isinstance(recorded.metrics, StreamingMetrics)
    assert recorded.metrics.committed() == recorded.committed()


def test_windowed_throughput_exact_vs_batch(recorded):
    now = 20.0
    samples = recorded.samples()
    for w in (1.0, 5.0, 10.0):
        snap = recorded.metrics.snapshot(now, w)
        exact = ref.throughput(samples, window=(now - w, now))
        assert snap["window"]["throughput"] == exact
        assert recorded.throughput(window=(now - w, now)) == exact


def test_quantiles_within_bin_tolerance_vs_batch(recorded):
    """The documented contract, checked against the order statistics.

    The batch path interpolates linearly between the two sorted values
    bounding the rank; with a sparse tail those can be more than one bin
    apart, so the bin tolerance is guaranteed relative to that bounding
    pair, not to the interpolated point inside the gap.
    """
    tolerance = recorded.metrics.snapshot(20.0)["bins"]["relative_error"]
    samples = recorded.samples()
    for name in [None] + ref.txn_names(samples):
        exact = ref.latency_percentiles(samples, name)
        binned = recorded.latency_percentiles(name)
        assert binned["min"] == exact["min"]
        assert binned["max"] == exact["max"]
        assert binned["avg"] == pytest.approx(exact["avg"])
        for pct in (25, 50, 75, 90, 95, 99):
            key = f"p{pct}"
            assert ref.within_one_bin(samples, name, pct, binned[key],
                                      tolerance), \
                f"{name or 'total'} {key}: {binned[key]} outside one " \
                f"bin (exact {exact[key]})"


def test_totals_match_batch_counts(recorded):
    samples = recorded.samples()
    totals = recorded.metrics.snapshot(20.0)["totals"]
    assert totals["committed"] == ref.count(samples, STATUS_OK)
    assert totals["aborted"] == ref.count(samples, STATUS_ABORTED)
    assert totals["errors"] == ref.count(samples, STATUS_ERROR)
    for name in ref.txn_names(samples):
        assert totals["per_txn"][name]["committed"] == \
            ref.count(samples, STATUS_OK, name)
        assert totals["per_txn"][name]["aborted"] == \
            ref.count(samples, STATUS_ABORTED, name)


def test_latency_section_keyed_by_type_plus_total(recorded):
    latency = recorded.metrics.snapshot(20.0)["latency"]
    assert set(latency) == {TOTAL_KEY, *ref.txn_names(recorded.samples())}
    assert latency[TOTAL_KEY]["count"] == recorded.committed()


def test_instantaneous_matches_legacy_collector():
    """Shape and value parity with the batch reference, which keeps the
    window semantics of the StatisticsCollector that preceded the
    streaming layer (a fractional ``now`` floors to its second)."""
    samples = simulated_run()
    metrics = StreamingMetrics()
    for sample in samples:
        metrics.observe(sample.end, sample.txn_name, sample.latency,
                        sample.status)
    for now, window in ((20.0, 5.0), (20.6, 5.0), (10.0, 3.0)):
        legacy = ref.instantaneous(samples, now, window)
        streaming = metrics.instantaneous(now, window)
        assert set(streaming) == set(legacy)
        assert streaming["throughput"] == pytest.approx(
            legacy["throughput"])
        assert streaming["aborts_per_sec"] == pytest.approx(
            legacy["aborts_per_sec"])
        assert streaming["avg_latency"] == pytest.approx(
            legacy["avg_latency"])
        for name, entry in legacy["per_txn"].items():
            assert streaming["per_txn"][name]["throughput"] == \
                pytest.approx(entry["throughput"])
            assert streaming["per_txn"][name]["avg_latency"] == \
                pytest.approx(entry["avg_latency"])


def test_throughput_series_matches_collector(recorded):
    """The per-second series equals the batch reference's (the series
    the StatisticsCollector used to keep), bounded or not."""
    samples = recorded.samples()
    assert recorded.metrics.series_complete()
    assert recorded.metrics.throughput_series() == \
        ref.per_second_throughput(samples)
    assert recorded.per_second_throughput() == \
        ref.per_second_throughput(samples)
    assert recorded.metrics.throughput_series(3, 7) == \
        [(s, c) for s, c in ref.per_second_throughput(samples) if 3 <= s < 7]
    for name in ref.txn_names(samples):
        assert recorded.metrics.throughput_series(txn_name=name) == \
            ref.per_second_throughput(samples, name)


def test_queue_counters_surface_in_snapshot():
    metrics = StreamingMetrics()
    counters = {"offered": 10, "taken": 7, "postponed": 2, "depth": 1}
    snap = metrics.snapshot(5.0, queue=counters)
    assert snap["queue"] == counters
    # Without a fresh queue argument the last snapshot sticks.
    assert metrics.snapshot(6.0)["queue"] == counters


def test_postponed_counter():
    metrics = StreamingMetrics()
    metrics.record_postponed(3)
    metrics.record_postponed()
    assert metrics.postponed() == 4
    assert metrics.snapshot(1.0)["totals"]["postponed"] == 4


def test_bins_section_documents_layout():
    bins = StreamingMetrics().snapshot(0.0)["bins"]
    assert bins["bins_per_decade"] == 32
    assert bins["relative_error"] == pytest.approx(10 ** (1 / 32) - 1)


def test_concurrent_observe_is_safe():
    metrics = StreamingMetrics()

    def writer(offset):
        for sample in simulated_run(500):
            metrics.observe(sample.end + offset, sample.txn_name,
                            sample.latency, sample.status)

    threads = [threading.Thread(target=writer, args=(k,)) for k in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    expected_ok = sum(1 for s in simulated_run(500)
                      if s.status == STATUS_OK)
    assert metrics.committed() == 4 * expected_ok
