"""Result collection: per-transaction samples and aggregate views.

Every executed request yields one :class:`LatencySample`.  The
:class:`Results` container logs them and serves the numbers OLTP-Bench
reports: throughput over windows, latency percentiles per transaction
type, and abort/error breakdowns.

Each sample is fed exactly once into a
:class:`~repro.metrics.StreamingMetrics` (``results.metrics``), the one
aggregate layer: every view below answers from it in O(bins), never by
rescanning the sample list.  Counts, spans and whole-second windows are
exact; percentiles are binned (docs/metrics.md).
"""

from __future__ import annotations

import math
import threading
from typing import Iterable, Optional, Sequence

from ..metrics import StreamingMetrics

STATUS_OK = "ok"
STATUS_ABORTED = "aborted"
STATUS_ERROR = "error"


class LatencySample:
    """Outcome of one transaction request.

    ``start`` is the request's scheduled arrival time; ``queue_delay`` the
    time it waited in the central queue; ``latency`` the execution time
    (dequeue to completion), matching OLTP-Bench's reported latency.

    A hand-rolled ``__slots__`` class rather than a frozen dataclass: one
    instance is built per executed transaction, and the frozen-dataclass
    ``object.__setattr__``-per-field constructor costs ~1µs more per
    sample than plain slot assignment, which is real money on the batched
    driver hot path (``benchmarks/bench_queue_scaling.py``).
    """

    __slots__ = ("txn_name", "start", "queue_delay", "latency", "status",
                 "worker_id", "tenant", "end")

    def __init__(self, txn_name: str, start: float, queue_delay: float,
                 latency: float, status: str = STATUS_OK,
                 worker_id: int = 0, tenant: str = "tenant-0") -> None:
        self.txn_name = txn_name
        self.start = start
        self.queue_delay = queue_delay
        self.latency = latency
        self.status = status
        self.worker_id = worker_id
        self.tenant = tenant
        #: Completion time; precomputed because the recording pipeline
        #: (buffer epoch check, window ingest) reads it several times.
        self.end = start + queue_delay + latency

    def __repr__(self) -> str:
        return (f"LatencySample(txn_name={self.txn_name!r}, "
                f"start={self.start!r}, queue_delay={self.queue_delay!r}, "
                f"latency={self.latency!r}, status={self.status!r}, "
                f"worker_id={self.worker_id!r}, tenant={self.tenant!r})")

    @property
    def response_time(self) -> float:
        """Queueing delay plus execution time (open-loop response time)."""
        return self.queue_delay + self.latency


class Results:
    """Thread-safe raw sample log plus views over its streaming metrics.

    Every aggregate view answers from :attr:`metrics`, which folds each
    sample in once as it is recorded; the sample list is kept only for
    the consumers that need raw samples (``samples()``).
    """

    def __init__(self, metrics: Optional[StreamingMetrics] = None) -> None:
        self._lock = threading.Lock()
        self._samples: list[LatencySample] = []
        self._batches = 0  # record_batch calls (recorder flush telemetry)
        self.metrics = metrics or StreamingMetrics()

    def record(self, sample: LatencySample) -> None:
        with self._lock:
            self._samples.append(sample)
        self.metrics.observe(sample.end, sample.txn_name, sample.latency,
                             sample.status, sample.start)

    def record_batch(self, samples: Sequence[LatencySample]) -> None:
        """Fold a worker-local buffer in: one list extend, one lock pass.

        The epoch-flush target of :class:`SampleBuffer` — and the
        building block of :func:`merge`, which previously replayed
        every sample through :meth:`record` (one results-lock and one
        metrics-lock acquisition *per sample*).
        """
        if not samples:
            return
        with self._lock:
            self._samples.extend(samples)
            self._batches += 1
        self.metrics.observe_batch(samples)

    def buffered(self, capacity: int = 256,
                 interval: float = 0.25) -> "SampleBuffer":
        """A worker-local buffering recorder flushing into this container."""
        return SampleBuffer(self, capacity=capacity, interval=interval)

    def recorder_stats(self) -> dict[str, int]:
        """Batched-recording telemetry for the metrics payload."""
        with self._lock:
            return {"sample_batches": self._batches,
                    "samples": len(self._samples)}

    def record_postponed(self, count: int = 1) -> None:
        """Count requests the queue shed to hold the rate cap."""
        self.metrics.record_postponed(count)

    @property
    def postponed(self) -> int:
        return self.metrics.postponed()

    def samples(self) -> list[LatencySample]:
        with self._lock:
            return list(self._samples)

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    # -- aggregate views (answered by the streaming metrics) ----------------

    def committed(self) -> int:
        return self.metrics.committed()

    def aborted(self) -> int:
        return self.metrics.totals()["aborted"]

    def abort_rate(self) -> float:
        totals = self.metrics.totals()
        total = totals["committed"] + totals["aborted"] + totals["errors"]
        return totals["aborted"] / total if total else 0.0

    def duration(self) -> float:
        """First scheduled start to last completion, over every sample."""
        return self.metrics.duration()

    def throughput(self, window: Optional[tuple[float, float]] = None
                   ) -> float:
        """Committed transactions per second, optionally over a window.

        A window ``(lo, hi)`` counts commits with ``lo <= end < hi`` and
        needs whole-second bounds, the per-second ring's resolution.
        """
        if window is None:
            span = self.duration()
            return self.committed() / span if span > 0 else 0.0
        lo, hi = window
        if lo != math.floor(lo) or hi != math.floor(hi):
            raise ValueError(
                f"throughput window {window!r} needs whole-second bounds")
        if hi <= lo:
            return 0.0
        series = self.metrics.throughput_series(int(lo), int(hi))
        return sum(count for _second, count in series) / (hi - lo)

    def per_second_throughput(self) -> list[tuple[int, int]]:
        """Sorted (second, committed count) pairs — the game's altitude.

        A sample counts in second ``floor(end)``; seconds without a
        commit are left out.
        """
        return self.metrics.throughput_series()

    def latency_percentiles(self, txn_name: Optional[str] = None
                            ) -> dict[str, float]:
        """Committed latencies: exact min/max/avg, binned percentiles."""
        return self.metrics.latency_percentiles(txn_name)

    def summary(self) -> dict[str, object]:
        """A compact run report, one row per transaction type."""
        totals = self.metrics.totals()
        per_txn = {
            name: {**counts,
                   "latency": self.metrics.latency_percentiles(name)}
            for name, counts in self.metrics.txn_counts().items()
        }
        return {
            "total": (totals["committed"] + totals["aborted"]
                      + totals["errors"]),
            "committed": totals["committed"],
            "aborted": totals["aborted"],
            "postponed": totals["postponed"],
            "throughput": self.throughput(),
            "per_txn": per_txn,
        }


class SampleBuffer:
    """Worker-local sample buffer: per-sample appends, epoch flushes.

    The seed driver acquired the results lock *and* the metrics lock for
    every completed transaction; with 32 workers on one machine that per-
    sample lock traffic is the driver's own bottleneck (RP009 now rejects
    it statically).  A worker owns one ``SampleBuffer``, calls :meth:`add`
    per transaction (a plain list append), and the buffer flushes into
    :meth:`Results.record_batch` when it reaches ``capacity`` samples or
    when ``interval`` seconds of *sample time* have passed since the last
    flush — no extra clock reads on the hot path, because the sample's own
    ``end`` timestamp drives the epoch.

    Not thread-safe by design: one buffer per worker thread.  The owner
    must call :meth:`flush` when idling, pausing, or exiting so no tail
    samples are stranded.
    """

    __slots__ = ("_results", "_buffer", "_capacity", "_interval", "_last")

    def __init__(self, results: Results, capacity: int = 256,
                 interval: float = 0.25) -> None:
        if capacity < 1:
            raise ValueError("SampleBuffer capacity must be >= 1")
        self._results = results
        self._buffer: list[LatencySample] = []
        self._capacity = capacity
        self._interval = interval
        self._last: Optional[float] = None

    def add(self, sample: LatencySample) -> None:
        buffer = self._buffer
        buffer.append(sample)
        if self._last is None:
            self._last = sample.end
        if len(buffer) >= self._capacity or \
                sample.end - self._last >= self._interval:
            self.flush()

    def flush(self) -> int:
        """Publish buffered samples; returns how many were flushed."""
        buffer = self._buffer
        if not buffer:
            return 0
        self._last = buffer[-1].end
        self._buffer = []
        self._results.record_batch(buffer)
        return len(buffer)

    def __len__(self) -> int:
        return len(self._buffer)


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of pre-sorted values."""
    if not sorted_values:
        raise ValueError("no values")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (pct / 100.0) * (len(sorted_values) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return sorted_values[low]
    frac = rank - low
    return sorted_values[low] * (1 - frac) + sorted_values[high] * frac


def merge(results: Iterable[Results]) -> Results:
    """Combine several Results containers (e.g. multi-tenant runs).

    The one merge path: each source's samples replay through one
    ``record_batch`` call, which both concatenates the sample logs and
    rebuilds the merged streaming metrics (a single list extend and one
    metrics-lock pass per container).  ``samples()`` and ``postponed``
    read under the source's locks, so merging is safe against
    concurrent recording.
    """
    merged = Results()
    for result in results:
        merged.record_batch(result.samples())
        merged.record_postponed(result.postponed)
    return merged
