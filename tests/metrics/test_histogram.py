"""Online log-binned histogram vs the exact batch percentile path."""

import math

import pytest

from repro.core.results import percentile
from repro.metrics import LatencyHistogram
from repro.metrics.histogram import PERCENTILE_POINTS


def test_layout_defaults():
    h = LatencyHistogram()
    layout = h.layout()
    assert layout["lower"] == 1e-6
    assert layout["upper"] == 1e3
    assert layout["bins_per_decade"] == 32
    assert layout["bins"] == 9 * 32  # 9 decades
    assert layout["relative_error"] == pytest.approx(
        10 ** (1 / 32) - 1)


def test_invalid_layouts_rejected():
    with pytest.raises(ValueError):
        LatencyHistogram(lower=0.0)
    with pytest.raises(ValueError):
        LatencyHistogram(lower=1.0, upper=0.5)
    with pytest.raises(ValueError):
        LatencyHistogram(bins_per_decade=0)


def test_min_max_sum_are_exact():
    h = LatencyHistogram()
    values = [0.003, 0.17, 0.0009, 2.5, 0.02]
    for v in values:
        h.record(v)
    assert h.min == min(values)
    assert h.max == max(values)
    assert h.avg == pytest.approx(sum(values) / len(values))
    assert h.count == len(values)


def test_quantiles_within_bin_tolerance_of_exact():
    """The documented contract: |binned - exact| / exact <= g - 1."""
    h = LatencyHistogram()
    # Three decades of deterministic, irregular latencies.
    values = sorted(0.0005 * (1.0 + ((i * 37) % 101)) for i in range(500))
    for v in values:
        h.record(v)
    for pct in (25, 50, 75, 90, 95, 99):
        exact = percentile(values, pct)
        binned = h.quantile(pct)
        assert abs(binned - exact) / exact <= h.relative_error, \
            f"p{pct}: binned={binned} exact={exact}"


def test_quantiles_clamped_to_observed_range():
    h = LatencyHistogram()
    h.record(0.01)
    h.record(0.0100001)  # both land in the same bin
    for pct in (0, 1, 50, 99, 100):
        assert 0.01 <= h.quantile(pct) <= 0.0100001


def test_out_of_range_values_land_in_edge_bins():
    h = LatencyHistogram(lower=1e-3, upper=1e0, bins_per_decade=4)
    h.record(1e-9)   # below lower -> first bin
    h.record(1e9)    # above upper -> last bin
    assert h.count == 2
    assert h.min == 1e-9
    assert h.max == 1e9
    # Clamping keeps quantiles inside the exact observed range.
    assert h.quantile(0) == 1e-9
    assert h.quantile(100) == 1e9


def test_empty_histogram():
    h = LatencyHistogram()
    assert h.percentiles() == {}
    assert h.avg == 0.0
    with pytest.raises(ValueError):
        h.quantile(50)


def test_single_value_histogram():
    h = LatencyHistogram()
    h.record(0.042)
    for pct in (0, 25, 50, 99, 100):
        assert h.quantile(pct) == 0.042


def test_percentiles_keys_match_batch_summary():
    h = LatencyHistogram()
    for i in range(1, 101):
        h.record(0.01 * i)
    summary = h.percentiles()
    assert set(summary) == {"min", "max", "avg", "p25", "p50", "p75",
                            "p90", "p95", "p99"}
    assert summary["min"] == pytest.approx(0.01)
    assert summary["max"] == pytest.approx(1.0)
    assert summary["p50"] == pytest.approx(0.505, rel=0.08)


def test_snapshot_adds_count():
    h = LatencyHistogram()
    h.record(0.5)
    assert h.snapshot()["count"] == 1


def test_merge_matches_single_histogram():
    a, b, combined = (LatencyHistogram() for _ in range(3))
    for i in range(200):
        value = 0.001 * (1 + (i * 13) % 77)
        (a if i % 2 else b).record(value)
        combined.record(value)
    a.merge(b)
    assert a.count == combined.count
    assert a.min == combined.min
    assert a.max == combined.max
    assert a.sum == pytest.approx(combined.sum)
    for pct in (50, 95, 99):
        assert a.quantile(pct) == pytest.approx(combined.quantile(pct))


def test_merge_rejects_incompatible_layouts():
    a = LatencyHistogram()
    b = LatencyHistogram(bins_per_decade=8)
    with pytest.raises(ValueError):
        a.merge(b)


def test_copy_is_independent():
    h = LatencyHistogram()
    h.record(0.1)
    clone = h.copy()
    clone.record(0.2)
    assert h.count == 1
    assert clone.count == 2


def test_bin_edges_monotone_and_cover_range():
    h = LatencyHistogram()
    previous = 0.0
    nbins = h.layout()["bins"]
    for index in range(nbins):
        lo, hi = h._edges(index)
        assert lo > previous or index == 0
        assert hi > lo
        previous = lo
    assert h._edges(0)[0] == pytest.approx(h.lower)
    assert h._edges(nbins - 1)[1] == pytest.approx(h.upper)


def test_index_is_monotone_in_value():
    h = LatencyHistogram()
    values = [10 ** (-6 + 9 * i / 200) for i in range(201)]
    indices = [h._index(v) for v in values]
    assert indices == sorted(indices)
    assert indices[0] == 0
    assert indices[-1] == h.layout()["bins"] - 1
    assert math.isfinite(h.relative_error)


def test_sub_lower_quantiles_stay_ordered_inside_observed_range():
    """Values below ``lower`` share bin 0, interpolated from the exact min."""
    h = LatencyHistogram()
    for value in (1e-9, 1e-9, 1e-9, 5e-7):
        h.record(value)
    summary = h.percentiles()
    points = [summary[f"p{pct:g}"] for pct in PERCENTILE_POINTS]
    assert summary["p50"] < summary["max"]
    assert points == sorted(points)
    assert all(h.min <= value <= h.max for value in points)
    # The bound below ``lower`` is absolute: bin 0's upper edge.
    assert summary["p50"] - 1e-9 <= h._edges(0)[1]


def test_quantiles_never_overshoot_into_the_next_bin():
    """A sparse bin next to a dense one keeps quantiles non-decreasing."""
    h = LatencyHistogram()
    h.record(0.0100)
    for _ in range(100):
        h.record(0.0108)  # the next bin up
    values = [h.quantile(step / 10) for step in range(1001)]
    assert values == sorted(values)
    assert all(h.min <= value <= h.max for value in values)
