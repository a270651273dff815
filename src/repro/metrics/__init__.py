"""Streaming metrics for the control-API feedback path.

Each :class:`~repro.core.results.LatencySample` is consumed exactly once
at record time; every feedback query afterwards — sliding-window
throughput, per-transaction-type latency quantiles, requested-vs-
delivered queue accounting — is O(bins)/O(window), never O(samples).
See docs/metrics.md for bin layout and window semantics.
"""

from .histogram import (DEFAULT_BINS_PER_DECADE, DEFAULT_LOWER,
                        DEFAULT_UPPER, LatencyHistogram, PERCENTILE_POINTS)
from .stream import StreamingMetrics, TOTAL_KEY
from .window import ThroughputWindow

__all__ = [
    "DEFAULT_BINS_PER_DECADE", "DEFAULT_LOWER", "DEFAULT_UPPER",
    "LatencyHistogram", "PERCENTILE_POINTS",
    "StreamingMetrics", "TOTAL_KEY", "ThroughputWindow",
]
