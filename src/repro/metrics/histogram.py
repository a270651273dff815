"""Online latency histogram with fixed log-spaced bins.

The streaming feedback path must answer "p95 latency of NewOrder right
now" without touching the raw sample list, so each transaction type gets
one of these: a fixed array of logarithmically spaced bins plus *exact*
min / max / sum / count.  Recording is O(1); quantile queries are O(bins)
and interpolate linearly inside the bin that holds the requested rank.

Accuracy contract (documented in docs/metrics.md): a reported quantile
lies within one bin of the order statistics bounding its rank, i.e. its
relative error against those observed values is bounded by the bin
growth factor minus one — with the default 32 bins per decade that is
``10 ** (1/32) - 1`` ≈ 7.5 %.  (The exact reference interpolates linearly
*between* two sorted samples; when those straddle a sparse-tail gap the
interpolated point itself can sit further away, but the bounding
samples never do.)  Below ``lower`` the bound is absolute, not relative:
every such value shares bin 0, so a quantile there is off by at most
bin 0's upper edge.  ``min``, ``max``, ``avg`` (and therefore throughput
numbers) are exact, not binned.
"""

from __future__ import annotations

import math
from typing import Optional

#: Default bin layout: 1 µs .. 1000 s, 32 bins per decade (288 bins).
DEFAULT_LOWER = 1e-6
DEFAULT_UPPER = 1e3
DEFAULT_BINS_PER_DECADE = 32

#: Percentile points reported by :meth:`LatencyHistogram.percentiles`
#: (and so by every ``Results`` latency view).
PERCENTILE_POINTS = (25.0, 50.0, 75.0, 90.0, 95.0, 99.0)


class LatencyHistogram:
    """Log-spaced latency histogram: O(1) record, O(bins) quantiles.

    Values below ``lower`` land in the first bin, values above ``upper``
    in the last.  A quantile interpolates inside its bin, whose edges are
    clamped to the exact observed ``[min, max]``: bin 0 spans ``[min,
    its upper edge]`` and the last bin ``[its lower edge, max]``, so
    quantiles stay non-decreasing and inside ``[min, max]``.  Below
    ``lower`` the error bound is therefore absolute (at most bin 0's
    upper edge), not relative.

    Not thread-safe on its own — :class:`~repro.metrics.stream.
    StreamingMetrics` serialises access.
    """

    __slots__ = ("lower", "upper", "bins_per_decade", "_nbins",
                 "_log_lower", "_scale", "count", "sum", "min", "max",
                 "_counts")

    def __init__(self, lower: float = DEFAULT_LOWER,
                 upper: float = DEFAULT_UPPER,
                 bins_per_decade: int = DEFAULT_BINS_PER_DECADE) -> None:
        if not (0 < lower < upper):
            raise ValueError("need 0 < lower < upper")
        if bins_per_decade <= 0:
            raise ValueError("bins_per_decade must be positive")
        self.lower = lower
        self.upper = upper
        self.bins_per_decade = bins_per_decade
        self._log_lower = math.log10(lower)
        self._scale = float(bins_per_decade)
        decades = math.log10(upper) - self._log_lower
        self._nbins = max(1, math.ceil(decades * bins_per_decade))
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._counts = [0] * self._nbins

    # -- layout -------------------------------------------------------------

    @property
    def nbins(self) -> int:
        return self._nbins

    @property
    def relative_error(self) -> float:
        """Worst-case relative quantile error: one bin's growth factor."""
        return 10.0 ** (1.0 / self.bins_per_decade) - 1.0

    def _index(self, value: float) -> int:
        if value <= self.lower:
            return 0
        index = int((math.log10(value) - self._log_lower) * self._scale)
        return min(index, self._nbins - 1)

    def _edges(self, index: int) -> tuple[float, float]:
        lo = 10.0 ** (self._log_lower + index / self._scale)
        hi = 10.0 ** (self._log_lower + (index + 1) / self._scale)
        return lo, hi

    def layout(self) -> dict[str, object]:
        """Self-describing bin layout, surfaced by the metrics API."""
        return {
            "lower": self.lower,
            "upper": self.upper,
            "bins_per_decade": self.bins_per_decade,
            "bins": self._nbins,
            "relative_error": self.relative_error,
        }

    def compatible_with(self, other: "LatencyHistogram") -> bool:
        return (self.lower == other.lower and self.upper == other.upper
                and self.bins_per_decade == other.bins_per_decade)

    # -- recording ----------------------------------------------------------

    def record(self, value: float, index: Optional[int] = None) -> int:
        """Record one value; returns its bin index.

        Callers recording the same value into several histograms with
        identical layouts (``StreamingMetrics``: per-transaction plus
        run-wide) pass the returned ``index`` back in to skip the
        duplicate ``log10`` bin computation on the ingest hot path.
        """
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if index is None:
            index = self._index(value)
        self._counts[index] += 1
        return index

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram in (multi-tenant aggregation)."""
        if not self.compatible_with(other):
            raise ValueError("cannot merge histograms with different bins")
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for index, n in enumerate(other._counts):
            if n:
                self._counts[index] += n

    # -- queries ------------------------------------------------------------

    @property
    def avg(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, pct: float) -> float:
        """Interpolated percentile (``pct`` in [0, 100])."""
        if self.count == 0:
            raise ValueError("empty histogram")
        if self.count == 1 or pct <= 0:
            return self.min
        if pct >= 100:
            return self.max
        # Same rank convention as repro.core.results.percentile: linear
        # interpolation over a virtual sorted array of ``count`` values.
        rank = (pct / 100.0) * (self.count - 1)
        cumulative = 0
        for index, n in enumerate(self._counts):
            if n == 0:
                continue
            if cumulative + n > rank:
                # Bin 0 also holds everything below ``lower`` and the
                # last bin everything above ``upper``: their outer edge
                # is the exact min / max.
                lo, hi = self._edges(index)
                lo = self.min if index == 0 else max(self.min, lo)
                hi = self.max if index == self._nbins - 1 \
                    else min(self.max, hi)
                frac = min(1.0, (rank - cumulative + 0.5) / n)
                return lo + frac * (hi - lo)
            cumulative += n
        return self.max

    def percentiles(self) -> dict[str, float]:
        """The summary dict the batch path produces, from bins."""
        if self.count == 0:
            return {}
        summary = {"min": self.min, "max": self.max, "avg": self.avg}
        for pct in PERCENTILE_POINTS:
            summary[f"p{pct:g}"] = self.quantile(pct)
        return summary

    def snapshot(self) -> dict[str, object]:
        summary = self.percentiles()
        summary["count"] = self.count
        return summary

    def copy(self) -> "LatencyHistogram":
        clone = LatencyHistogram(self.lower, self.upper,
                                 self.bins_per_decade)
        clone.merge(self)
        return clone

    def __len__(self) -> int:
        return self.count
