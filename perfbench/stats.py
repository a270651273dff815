"""Small order statistics shared by the workloads and the layer metrics."""

from __future__ import annotations

from typing import Sequence


def pct(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, linearly interpolated; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
