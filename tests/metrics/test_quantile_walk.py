"""Property: binned quantiles equal a plain walk over the bins, bit for bit.

``LatencyHistogram`` locates every rank with one prefix sum over the
populated bins.  ``walk_quantile`` below is the earlier form kept as the
reference: it walks the bins from bin 0 for each point.  Both use the
rank ``pct / 100 * (count - 1)`` and interpolate inside the bin clamped
to ``[min, max]``, so their answers must compare ``==``, not approx.
"""

from hypothesis import given, strategies as st

from repro.metrics import LatencyHistogram
from repro.metrics.histogram import PERCENTILE_POINTS


def walk_quantile(h: LatencyHistogram, pct: float) -> float:
    """Interpolated percentile by walking the bins from bin 0."""
    if h.count == 1 or pct <= 0:
        return h.min
    if pct >= 100:
        return h.max
    rank = (pct / 100.0) * (h.count - 1)
    cumulative = 0
    last = len(h._counts) - 1
    for index, n in enumerate(h._counts):
        if n == 0:
            continue
        if cumulative + n > rank:
            lo, hi = h._edges(index)
            lo = h.min if index == 0 else max(h.min, lo)
            hi = h.max if index == last else min(h.max, hi)
            frac = min(1.0, (rank - cumulative + 0.5) / n)
            return lo + frac * (hi - lo)
        cumulative += n
    return h.max


#: The default layout, and a coarse one whose edge bins fill often.
LAYOUTS = ({}, {"lower": 1e-3, "upper": 1.0, "bins_per_decade": 4})

# Below ``lower``, inside the range, above ``upper``, for both layouts.
values_st = st.one_of(st.floats(1e-12, 1e-6), st.floats(1e-6, 1e3),
                      st.floats(1e3, 1e7), st.floats(1e-4, 10.0))

# Values clustered around a few centres: repeated bins, a single
# populated bin, and empty-bin gaps between clusters.
clustered_st = st.lists(st.floats(1e-5, 1e2), min_size=1, max_size=3).flatmap(
    lambda centres: st.lists(
        st.tuples(st.sampled_from(centres), st.floats(1.0, 1.001)).map(
            lambda pair: pair[0] * pair[1]),
        min_size=1, max_size=80))

pcts_st = st.lists(st.one_of(st.sampled_from((0.0, 100.0, -5.0, 120.0)),
                             st.floats(0.0, 100.0)), min_size=1, max_size=8)


def _histogram(layout: dict, values: list[float]) -> LatencyHistogram:
    h = LatencyHistogram(**layout)
    for value in values:
        h.record(value)
    return h


def _assert_matches_walk(h: LatencyHistogram, pcts: list[float]) -> None:
    for pct in pcts:
        assert h.quantile(pct) == walk_quantile(h, pct), pct
    summary = h.percentiles()
    for pct in PERCENTILE_POINTS:
        assert summary[f"p{pct:g}"] == walk_quantile(h, pct), pct


@given(layout=st.sampled_from(LAYOUTS),
       values=st.lists(values_st, min_size=1, max_size=120),
       pcts=pcts_st)
def test_quantiles_equal_the_bin_walk(layout, values, pcts):
    _assert_matches_walk(_histogram(layout, values), pcts)


@given(layout=st.sampled_from(LAYOUTS), values=clustered_st, pcts=pcts_st)
def test_clustered_quantiles_equal_the_bin_walk(layout, values, pcts):
    _assert_matches_walk(_histogram(layout, values), pcts)


@given(layout=st.sampled_from(LAYOUTS), value=values_st, pcts=pcts_st)
def test_single_sample_quantiles_equal_the_bin_walk(layout, value, pcts):
    h = _histogram(layout, [value])
    _assert_matches_walk(h, pcts)
    assert h.quantile(50) == value


@given(layout=st.sampled_from(LAYOUTS), value=values_st,
       copies=st.integers(2, 50), pcts=pcts_st)
def test_one_populated_bin_equals_the_bin_walk(layout, value, copies, pcts):
    h = _histogram(layout, [value] * copies)
    assert sum(1 for n in h._counts if n) == 1
    _assert_matches_walk(h, pcts)


@given(layout=st.sampled_from(LAYOUTS),
       parts=st.lists(st.lists(values_st, max_size=40), min_size=2,
                      max_size=4),
       pcts=pcts_st)
def test_merged_quantiles_equal_the_bin_walk(layout, parts, pcts):
    merged = LatencyHistogram(**layout)
    for part in parts:
        merged.merge(_histogram(layout, part))
    if merged.count:
        _assert_matches_walk(merged, pcts)
    else:
        assert merged.percentiles() == {}
