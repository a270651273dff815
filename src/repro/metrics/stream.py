"""Streaming aggregation: consume each sample once, answer in O(bins).

:class:`StreamingMetrics` is the tentpole of the control-API feedback
path.  ``Results.record()`` feeds every :class:`LatencySample` through
:meth:`observe` exactly once at record time; after that, *no* feedback
query — sliding-window throughput, per-transaction-type latency
quantiles, abort/error rates, the run's span — ever rescans the raw
sample list.  It is the only aggregate: every ``Results`` view answers
from it, and the raw list stays in ``Results`` for the trace writer, the
process driver's relay and the queue-delay percentile.

Three streaming structures, one lock:

* a :class:`~repro.metrics.window.ThroughputWindow` ring of per-second
  committed/aborted/error counters (sliding-window throughput, exact);
* one :class:`~repro.metrics.histogram.LatencyHistogram` per transaction
  type plus a run-wide one (quantiles within bin tolerance, exact
  min/max/avg);
* exact counters: per-type and run-wide committed/aborted/error counts,
  the postponed count and the first start / last end (the run's span);
* offered/taken/postponed counters snapshotted from the request queue
  (requested-vs-delivered accounting, paper §2.2.1).
"""

from __future__ import annotations

import math
import threading
from typing import Mapping, Optional

from .histogram import LatencyHistogram, make_histogram
from .window import ThroughputWindow

_OK = "ok"
_ABORTED = "aborted"

#: Key under which the run-wide (all transaction types) histogram is
#: reported by :meth:`StreamingMetrics.snapshot`.
TOTAL_KEY = "total"


class StreamingMetrics:
    """Thread-safe streaming view over one workload's samples."""

    def __init__(self, history_seconds: int = 3600,
                 template: Optional[LatencyHistogram] = None) -> None:
        self._lock = threading.Lock()
        self._template = template or LatencyHistogram()
        self.window = ThroughputWindow(history_seconds)
        self._total = make_histogram(self._template)
        self._per_txn: dict[str, LatencyHistogram] = {}
        self._counts: dict[str, list] = {}  # name -> [ok, aborted, error]
        self._committed = 0
        self._aborted = 0
        self._errors = 0
        self._postponed = 0
        self._first_start = math.inf
        self._last_end = -math.inf
        self._queue: dict[str, int] = {}
        self._resilience: dict = {}

    # -- ingest (one call per sample, O(1)) ---------------------------------

    def observe(self, end: float, txn_name: str, latency: float,
                status: str, start: Optional[float] = None) -> None:
        """Ingest one sample; ``start`` defaults to ``end``."""
        with self._lock:
            self._observe_one(end, txn_name, latency, status,
                              end if start is None else start)

    def observe_batch(self, samples) -> None:
        """Fold a worker-local buffer in under one lock acquisition.

        ``samples`` is any iterable of objects with ``start``/``end``/
        ``txn_name``/``latency``/``status`` attributes
        (:class:`LatencySample`); the epoch-flush path of the batched
        driver, so per-sample lock traffic disappears from the worker hot
        loop.
        """
        with self._lock:
            for sample in samples:
                self._observe_one(sample.end, sample.txn_name,
                                  sample.latency, sample.status,
                                  sample.start)

    def _observe_one(self, end: float, txn_name: str, latency: float,
                     status: str, start: float) -> None:
        """Ingest one sample; caller holds ``self._lock``."""
        if start < self._first_start:
            self._first_start = start
        if end > self._last_end:
            self._last_end = end
        self.window.record(end, txn_name, latency, status)
        entry = self._counts.get(txn_name)
        if entry is None:
            entry = self._counts[txn_name] = [0, 0, 0]
        if status == _OK:
            entry[0] += 1
            self._committed += 1
            histogram = self._per_txn.get(txn_name)
            if histogram is None:
                histogram = self._per_txn[txn_name] = \
                    make_histogram(self._template)
            # Same bin layout (both built from the template): reuse the
            # bin index instead of recomputing the log10 twice.
            self._total.record(latency, histogram.record(latency))
        elif status == _ABORTED:
            entry[1] += 1
            self._aborted += 1
        else:
            entry[2] += 1
            self._errors += 1

    def record_postponed(self, count: int = 1) -> None:
        with self._lock:
            self._postponed += count

    def observe_queue(self, counters: Mapping[str, int]) -> None:
        """Snapshot the request queue's offered/taken/postponed/depth."""
        with self._lock:
            self._queue = dict(counters)

    def observe_resilience(self, payload: Mapping[str, object]) -> None:
        """Snapshot fault-injection / retry / breaker state (side channel).

        Like :meth:`observe_queue`, the authoritative state lives
        elsewhere (the workload's :class:`~repro.faults.FaultInjector`
        and :class:`~repro.core.resilience.Resilience`); the streaming
        view only carries the latest snapshot into the metrics payload.
        """
        with self._lock:
            self._resilience = dict(payload)

    # -- feedback queries (O(bins), never O(samples)) -----------------------

    def committed(self) -> int:
        with self._lock:
            return self._committed

    def postponed(self) -> int:
        with self._lock:
            return self._postponed

    def totals(self) -> dict[str, int]:
        """Run-wide committed/aborted/error/postponed counts."""
        with self._lock:
            return self._totals()

    def _totals(self) -> dict[str, int]:
        return {"committed": self._committed, "aborted": self._aborted,
                "errors": self._errors, "postponed": self._postponed}

    def duration(self) -> float:
        """Last completion minus first scheduled start; 0 when empty."""
        with self._lock:
            return max(0.0, self._last_end - self._first_start)

    def instantaneous(self, now: float, window: float = 5.0) -> dict:
        """Sliding-window throughput and per-type average latency.

        The current (incomplete) second is excluded.
        """
        with self._lock:
            stats = self.window.window_stats(now, window)
        return {
            "throughput": stats["throughput"],
            "aborts_per_sec": stats["aborts_per_sec"],
            "avg_latency": stats["avg_latency"],
            "per_txn": stats["per_txn"],
        }

    def throughput_series(self, start: Optional[int] = None,
                          end: Optional[int] = None,
                          txn_name: Optional[str] = None
                          ) -> list[tuple[int, int]]:
        with self._lock:
            return self.window.series(start, end, txn_name)

    def series_complete(self) -> bool:
        with self._lock:
            return self.window.complete()

    def latency_percentiles(self, txn_name: Optional[str] = None
                            ) -> dict[str, float]:
        """Binned quantiles for one type (or the whole run)."""
        with self._lock:
            histogram = (self._total if txn_name is None
                         else self._per_txn.get(txn_name))
            if histogram is None:
                return {}
            return histogram.percentiles()

    def txn_counts(self) -> dict[str, dict[str, int]]:
        """Per-type committed/aborted/error counts, sorted by name."""
        with self._lock:
            return self._txn_counts()

    def _txn_counts(self) -> dict[str, dict[str, int]]:
        return {name: {"committed": ok, "aborted": aborted,
                       "errors": errors}
                for name, (ok, aborted, errors)
                in sorted(self._counts.items())}

    def snapshot(self, now: float, window: float = 5.0,
                 queue: Optional[Mapping[str, int]] = None,
                 resilience: Optional[Mapping[str, object]] = None) -> dict:
        """The full metrics payload served by ``GET .../metrics``."""
        if queue is not None:
            self.observe_queue(queue)
        if resilience is not None:
            self.observe_resilience(resilience)
        with self._lock:
            stats = self.window.window_stats(now, window)
            latency = {TOTAL_KEY: self._total.snapshot()}
            for name, histogram in sorted(self._per_txn.items()):
                latency[name] = histogram.snapshot()
            return {
                "window": {
                    "seconds": stats["seconds"],
                    "throughput": stats["throughput"],
                    "aborts_per_sec": stats["aborts_per_sec"],
                    "errors_per_sec": stats["errors_per_sec"],
                    "avg_latency": stats["avg_latency"],
                    "per_txn": stats["per_txn"],
                },
                "totals": {**self._totals(),
                           "per_txn": self._txn_counts()},
                "latency": latency,
                "queue": dict(self._queue),
                "resilience": dict(self._resilience),
                "bins": self._template.layout(),
            }
