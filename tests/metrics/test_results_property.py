"""Property: every ``Results`` view agrees with the batch reference.

Random runs of mixed statuses and transaction types, with virtual times
on both sides of zero, recorded into two containers and merged.  Counts,
spans, whole-second windows and per-second series must match the
reference exactly; each percentile must lie within one bin of the order
statistics bounding its rank (docs/metrics.md).  The CI metrics job runs
this under ``--hypothesis-profile=metrics-extended``.
"""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.results import (LatencySample, Results, STATUS_ABORTED,
                                STATUS_ERROR, STATUS_OK, merge)
from repro.metrics import PERCENTILE_POINTS
from repro.trace import TraceAnalyzer

from . import batch_reference as ref

TXNS = ("NewOrder", "Payment", "StockLevel")

samples_st = st.lists(
    st.builds(
        LatencySample,
        txn_name=st.sampled_from(TXNS),
        start=st.floats(-40.0, 40.0),
        queue_delay=st.floats(0.0, 2.0),
        # Inside the histogram's bin range (1 µs .. 1000 s), where the
        # one-bin band holds.
        latency=st.floats(1e-5, 20.0),
        status=st.sampled_from((STATUS_OK, STATUS_OK, STATUS_ABORTED,
                                STATUS_ERROR))),
    max_size=60)

windows_st = st.lists(
    st.tuples(st.integers(-45, 65), st.integers(0, 20)), max_size=4)


def check_against_reference(results, samples, postponed, windows):
    tolerance = results.metrics.snapshot(0.0)["bins"]["relative_error"]
    assert len(results) == len(samples)
    assert results.committed() == ref.count(samples, STATUS_OK)
    assert results.aborted() == ref.count(samples, STATUS_ABORTED)
    total = len(samples)
    assert results.abort_rate() == (
        ref.count(samples, STATUS_ABORTED) / total if total else 0.0)
    assert results.postponed == postponed
    assert results.duration() == ref.duration(samples)
    assert results.throughput() == ref.throughput(samples)
    for lo, width in windows:
        window = (lo, lo + width)
        assert results.throughput(window) == ref.throughput(samples, window)
    assert results.per_second_throughput() == \
        ref.per_second_throughput(samples)
    analyzer = TraceAnalyzer(results)
    for name in TXNS:
        assert analyzer.per_txn_series(name) == \
            ref.per_second_throughput(samples, name)

    expected = ref.summary(samples, postponed)
    summary = results.summary()
    for key in ("total", "committed", "aborted", "postponed", "throughput"):
        assert summary[key] == expected[key], key
    assert list(summary["per_txn"]) == list(expected["per_txn"])
    for name, row in expected["per_txn"].items():
        for key in ("committed", "aborted", "errors"):
            assert summary["per_txn"][name][key] == row[key]
        check_percentiles(summary["per_txn"][name]["latency"],
                          row["latency"], samples, name, tolerance)
    check_percentiles(results.latency_percentiles(),
                      ref.latency_percentiles(samples), samples, None,
                      tolerance)


def check_percentiles(binned, exact, samples, name, tolerance):
    assert set(binned) == set(exact)
    if not exact:
        return
    assert binned["min"] == exact["min"]
    assert binned["max"] == exact["max"]
    assert binned["avg"] == pytest.approx(exact["avg"])
    for pct in PERCENTILE_POINTS:
        value = binned[f"p{pct:g}"]
        assert ref.within_one_bin(samples, name, pct, value, tolerance), \
            (name, pct, value, exact[f"p{pct:g}"])


@given(samples_st, samples_st, st.integers(0, 5), st.integers(0, 5),
       windows_st, st.floats(-45.0, 65.0), st.integers(1, 10))
def test_results_views_match_batch_reference(a_samples, b_samples,
                                             a_postponed, b_postponed,
                                             windows, now, window):
    a, b = Results(), Results()
    for sample in a_samples:
        a.record(sample)
    b.record_batch(b_samples)
    a.record_postponed(a_postponed)
    b.record_postponed(b_postponed)
    merged = merge([a, b])

    check_against_reference(a, a_samples, a_postponed, windows)
    check_against_reference(b, b_samples, b_postponed, windows)
    both = a_samples + b_samples
    check_against_reference(merged, both, a_postponed + b_postponed,
                            windows)

    streaming = merged.metrics.instantaneous(now, window)
    expected = ref.instantaneous(both, now, window)
    assert streaming["throughput"] == expected["throughput"]
    assert streaming["aborts_per_sec"] == expected["aborts_per_sec"]
    assert streaming["avg_latency"] == pytest.approx(expected["avg_latency"])
    assert set(streaming["per_txn"]) == set(expected["per_txn"])
    for name, entry in expected["per_txn"].items():
        assert streaming["per_txn"][name]["throughput"] == \
            entry["throughput"]
        assert streaming["per_txn"][name]["avg_latency"] == \
            pytest.approx(entry["avg_latency"])


@given(st.floats(-100.0, 100.0), st.floats(0.01, 50.0))
def test_fractional_window_bounds_are_refused(lo, width):
    results = Results()
    hi = lo + width
    if lo == math.floor(lo) and hi == math.floor(hi):
        assert results.throughput((lo, hi)) == 0.0
    else:
        with pytest.raises(ValueError):
            results.throughput((lo, hi))
