"""Trace analyzer: windowed throughput, latency, and tracking metrics.

This is the quantitative core of the reproduction's experiments: given the
per-request samples of a run and the *target* rate series that was
requested, it computes how faithfully the framework delivered —
per-second throughput, rate-cap violations, tracking error against moving
targets (the game's challenges), and jitter (the Tunnel pass/fail
criterion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from ..core.results import Results, percentile


@dataclass(frozen=True)
class TrackingReport:
    """How well delivered throughput followed a moving target."""

    seconds: int
    mean_target: float
    mean_delivered: float
    mean_abs_error: float
    mean_rel_error: float
    max_overshoot: float  # max(delivered - target), >0 means cap violated
    within_tolerance_fraction: float

    def passed(self, tolerance: float = 0.15) -> bool:
        return self.within_tolerance_fraction >= 1.0 - tolerance


class TraceAnalyzer:
    """Aggregate views over one run's samples."""

    def __init__(self, results: Results) -> None:
        self.results = results

    # -- throughput series -------------------------------------------------

    def throughput_series(self, start: Optional[int] = None,
                          end: Optional[int] = None) -> list[tuple[int, int]]:
        """Committed transactions per whole second, gaps filled with 0.

        Read from the streaming per-second ring; a run longer than the
        ring's history loses its oldest seconds, which :meth:`report`
        flags as ``series_complete: false``.
        """
        buckets = dict(self.results.per_second_throughput())
        if not buckets:
            return []
        lo = start if start is not None else min(buckets)
        hi = end if end is not None else max(buckets) + 1
        return [(second, buckets.get(second, 0))
                for second in range(lo, hi)]

    def per_txn_series(self, txn_name: str) -> list[tuple[int, int]]:
        """Sorted (second, committed) pairs for one transaction type."""
        return self.results.metrics.throughput_series(txn_name=txn_name)

    # -- stability / jitter ---------------------------------------------------

    def jitter(self, window: Optional[tuple[int, int]] = None) -> float:
        """Coefficient of variation of per-second throughput.

        The Tunnel challenge fails DBMSs that "produce oscillating
        throughputs" — this is the number that decides it.
        """
        series = [count for _sec, count in self.throughput_series(
            *(window or (None, None)))]
        if len(series) < 2:
            return 0.0
        mean = sum(series) / len(series)
        if mean == 0:
            return float("inf")
        variance = sum((v - mean) ** 2 for v in series) / (len(series) - 1)
        return math.sqrt(variance) / mean

    # -- target tracking ----------------------------------------------------------

    def tracking(self, target_fn: Callable[[float], float],
                 start: int, end: int,
                 tolerance: float = 0.10) -> TrackingReport:
        """Compare delivered throughput to ``target_fn(second)``.

        ``target_fn`` maps a second to the requested rate at that time
        (e.g. a challenge's profile).  A second is "within tolerance" when
        delivered is within ``tolerance`` (relative) of the target.
        """
        series = self.throughput_series(start, end)
        if not series:
            raise ValueError("no samples in the requested window")
        abs_errors, rel_errors, overshoots = [], [], []
        within = 0
        targets = []
        for second, delivered in series:
            target = target_fn(second)
            targets.append(target)
            error = delivered - target
            abs_errors.append(abs(error))
            overshoots.append(error)
            if target > 0:
                rel = abs(error) / target
                rel_errors.append(rel)
                if rel <= tolerance:
                    within += 1
            elif delivered == 0:
                rel_errors.append(0.0)
                within += 1
            else:
                rel_errors.append(float("inf"))
        count = len(series)
        return TrackingReport(
            seconds=count,
            mean_target=sum(targets) / count,
            mean_delivered=sum(d for _s, d in series) / count,
            mean_abs_error=sum(abs_errors) / count,
            mean_rel_error=sum(rel_errors) / count,
            max_overshoot=max(overshoots),
            within_tolerance_fraction=within / count,
        )

    def rise_time(self, change_at: float, target: float,
                  tolerance: float = 0.10,
                  horizon: float = 30.0) -> Optional[float]:
        """Seconds until delivered throughput settles at a new target.

        Measures the demo's "system responsiveness": after a rate change
        at ``change_at``, how long until the per-second delivered rate
        first comes within ``tolerance`` (relative) of ``target``.
        Returns ``None`` if it never settles within ``horizon``.
        """
        start = int(change_at)
        for second, delivered in self.throughput_series(
                start, start + int(horizon)):
            if target == 0:
                if delivered == 0:
                    return second + 1 - change_at
                continue
            if abs(delivered - target) / target <= tolerance:
                return second + 1 - change_at
        return None

    def rate_cap_violations(self, cap: float,
                            window: Optional[tuple[int, int]] = None,
                            slack: float = 0.0) -> int:
        """Seconds where delivered throughput exceeded ``cap`` (+slack)."""
        return sum(1 for _sec, count in
                   self.throughput_series(*(window or (None, None)))
                   if count > cap + slack)

    # -- latency ---------------------------------------------------------------

    def latency_summary(self, txn_name: Optional[str] = None) -> dict:
        return self.results.latency_percentiles(txn_name)

    def queue_delay_percentile(self, pct: float) -> float:
        # Queue delay has no histogram yet, so this one view reads the
        # raw samples.
        delays = sorted(s.queue_delay for s in self.results.samples())
        if not delays:
            return 0.0
        return percentile(delays, pct)

    # -- report ------------------------------------------------------------------

    def report(self) -> dict[str, object]:
        return {
            "summary": self.results.summary(),
            "jitter": self.jitter(),
            "series": self.throughput_series(),
            "series_complete": self.results.metrics.series_complete(),
        }
