"""Exact batch views over a plain sample list: the test reference.

Every aggregate ``Results`` serves comes from its streaming metrics.
These functions compute the same numbers the slow, obvious way, by
rescanning and sorting a list of :class:`~repro.core.results.
LatencySample`, so the streaming answers can be checked against them:
counts, spans, whole-second windows and per-second series exactly;
percentiles within the histogram's bin tolerance.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.core.results import (LatencySample, STATUS_ABORTED,
                                STATUS_ERROR, STATUS_OK, percentile)
from repro.metrics import PERCENTILE_POINTS

Samples = Sequence[LatencySample]


def count(samples: Samples, status: Optional[str] = None,
          txn_name: Optional[str] = None) -> int:
    return sum(1 for s in samples
               if (status is None or s.status == status)
               and (txn_name is None or s.txn_name == txn_name))


def txn_names(samples: Samples) -> list[str]:
    return sorted({s.txn_name for s in samples})


def duration(samples: Samples) -> float:
    if not samples:
        return 0.0
    start = min(s.start for s in samples)
    end = max(s.end for s in samples)
    return max(0.0, end - start)


def throughput(samples: Samples,
               window: Optional[tuple[float, float]] = None) -> float:
    """Committed per second over the run, or over ``lo <= end < hi``."""
    committed = [s for s in samples if s.status == STATUS_OK]
    if window is None:
        span = duration(samples)
    else:
        lo, hi = window
        committed = [s for s in committed if lo <= s.end < hi]
        span = hi - lo
    if span <= 0:
        return 0.0
    return len(committed) / span


def per_second_throughput(samples: Samples,
                          txn_name: Optional[str] = None
                          ) -> list[tuple[int, int]]:
    """Sorted (floor(end), committed) pairs, seconds with commits only."""
    buckets: dict[int, int] = {}
    for s in samples:
        if s.status == STATUS_OK and (txn_name is None
                                      or s.txn_name == txn_name):
            second = math.floor(s.end)
            buckets[second] = buckets.get(second, 0) + 1
    return sorted(buckets.items())


def latencies(samples: Samples, txn_name: Optional[str] = None
              ) -> list[float]:
    """Sorted committed latencies."""
    return sorted(s.latency for s in samples if s.status == STATUS_OK
                  and (txn_name is None or s.txn_name == txn_name))


def latency_percentiles(samples: Samples, txn_name: Optional[str] = None
                        ) -> dict[str, float]:
    """Exact, linearly interpolated percentiles of committed latency."""
    values = latencies(samples, txn_name)
    if not values:
        return {}
    summary = {"min": values[0], "max": values[-1],
               "avg": sum(values) / len(values)}
    for pct in PERCENTILE_POINTS:
        summary[f"p{pct:g}"] = percentile(values, pct)
    return summary


def summary(samples: Samples, postponed: int = 0) -> dict[str, object]:
    return {
        "total": len(samples),
        "committed": count(samples, STATUS_OK),
        "aborted": count(samples, STATUS_ABORTED),
        "postponed": postponed,
        "throughput": throughput(samples),
        "per_txn": {
            name: {"committed": count(samples, STATUS_OK, name),
                   "aborted": count(samples, STATUS_ABORTED, name),
                   "errors": count(samples, STATUS_ERROR, name),
                   "latency": latency_percentiles(samples, name)}
            for name in txn_names(samples)},
    }


def instantaneous(samples: Samples, now: float,
                  window: float = 5.0) -> dict:
    """Feedback over the whole seconds ``[floor(now) - W, floor(now))``.

    The current, incomplete second is left out so throughput is not
    under-reported mid-second.
    """
    current = math.floor(now)
    seconds = max(1, int(window))
    chosen = [s for s in samples
              if current - seconds <= math.floor(s.end) < current]
    committed = [s for s in chosen if s.status == STATUS_OK]
    per_txn = {}
    for name in txn_names(committed):
        mine = [s.latency for s in committed if s.txn_name == name]
        per_txn[name] = {"throughput": len(mine) / seconds,
                         "avg_latency": sum(mine) / len(mine)}
    return {
        "throughput": len(committed) / seconds,
        "aborts_per_sec": count(chosen, STATUS_ABORTED) / seconds,
        "avg_latency": (sum(s.latency for s in committed) / len(committed)
                        if committed else 0.0),
        "per_txn": per_txn,
    }


def within_one_bin(samples: Samples, txn_name: Optional[str], pct: float,
                   value: float, tolerance: float) -> bool:
    """Is ``value`` inside the band docs/metrics.md promises for a
    binned percentile: one bin around the order statistics bounding
    the rank ``pct/100 * (n - 1)``?"""
    values = latencies(samples, txn_name)
    rank = pct / 100.0 * (len(values) - 1)
    lo = values[math.floor(rank)] * (1.0 - tolerance)
    hi = values[math.ceil(rank)] * (1.0 + tolerance)
    return lo <= value <= hi
