"""Trace-driven workloads: replay a recorded rate series as phases.

Paper §1: "OLTP-Bench also supports changing transaction request rates
dynamically during execution based on user-defined workloads", i.e. rate
profiles recorded from production systems (the original work replays a
Wikipedia trace).  This module turns a throughput time series — hand
written, loaded from CSV, or extracted from a previous run's trace — into
the phase list that reproduces it.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Optional, Sequence

from ..errors import ConfigurationError
from .phase import ARRIVAL_UNIFORM, Phase
from .results import Results


def phases_from_series(series: Sequence[tuple[float, float]],
                       weights: Optional[dict] = None,
                       arrival: str = ARRIVAL_UNIFORM,
                       min_rate: float = 0.1) -> list[Phase]:
    """Convert ``(duration_seconds, rate_tps)`` pairs into phases.

    Adjacent segments with the same rate are merged; rates below
    ``min_rate`` are clamped up so the workload never fully stops (the
    empty-second semantics of a recorded trace are preserved closely
    enough at 0.1 tps).
    """
    if not series:
        raise ConfigurationError("empty rate series")
    merged: list[list[float]] = []
    for duration, rate in series:
        if duration <= 0:
            raise ConfigurationError("segment durations must be positive")
        rate = max(float(rate), min_rate)
        if merged and merged[-1][1] == rate:
            merged[-1][0] += duration
        else:
            merged.append([float(duration), rate])
    return [
        Phase(duration=duration, rate=rate, weights=dict(weights or {}),
              arrival=arrival, name=f"replay-{i}")
        for i, (duration, rate) in enumerate(merged)
    ]


def phases_from_csv(path: str | Path, weights: Optional[dict] = None,
                    arrival: str = ARRIVAL_UNIFORM) -> list[Phase]:
    """Load a rate profile CSV with ``duration,rate`` rows.

    Lines starting with ``#`` and a ``duration,rate`` header are skipped.
    """
    series: list[tuple[float, float]] = []
    with open(path, newline="") as handle:
        for row in csv.reader(handle):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if row[0].strip().lower() == "duration":
                continue
            if len(row) < 2:
                raise ConfigurationError(f"malformed trace row: {row!r}")
            series.append((float(row[0]), float(row[1])))
    return phases_from_series(series, weights=weights, arrival=arrival)


def phases_from_results(results: Results, bucket_seconds: int = 10,
                        weights: Optional[dict] = None,
                        scale: float = 1.0) -> list[Phase]:
    """Extract a replayable rate profile from a previous run's results.

    The committed-throughput series is averaged into ``bucket_seconds``
    buckets and optionally scaled — e.g. replay yesterday's production
    trace at 2x to test headroom.  A run longer than the metrics ring's
    history has lost its oldest seconds and is refused rather than
    replayed truncated.
    """
    if bucket_seconds <= 0:
        raise ConfigurationError("bucket_seconds must be positive")
    if not results.metrics.series_complete():
        raise ConfigurationError(
            "run outlasted the metrics history "
            f"({results.metrics.window.history_seconds} s); its "
            "per-second series is truncated")
    per_second = dict(results.per_second_throughput())
    if not per_second:
        raise ConfigurationError("results contain no committed samples")
    start, end = min(per_second), max(per_second) + 1
    series: list[tuple[float, float]] = []
    for bucket_start in range(start, end, bucket_seconds):
        span = min(bucket_seconds, end - bucket_start)
        total = sum(per_second.get(second, 0)
                    for second in range(bucket_start, bucket_start + span))
        series.append((float(span), scale * total / span))
    return phases_from_series(series, weights=weights)
