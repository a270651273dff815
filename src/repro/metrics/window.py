"""Per-second counters in a fixed ring buffer for sliding windows.

The feedback path's "instantaneous throughput over the last W seconds"
must not depend on run length, so committed/aborted/error counts (plus
per-transaction-type count and latency sums) are folded into one slot per
wall/virtual second.  The ring holds ``history_seconds`` slots; recording
is O(1) and a window query touches at most ``min(W, history_seconds)``
slots.

Window semantics (documented in docs/metrics.md):

* a sample belongs to second ``math.floor(sample.end)`` — flooring, not
  ``int()`` truncation, so negative virtual times bucket correctly;
* ``window_stats(now, W)`` covers the half-open second range
  ``[floor(now) - W, floor(now))`` — the current, incomplete second is
  excluded so throughput is not systematically under-reported;
* per-second counts are exact (no binning); only quantiles, which come
  from the histograms, carry bin tolerance.
"""

from __future__ import annotations

import math
from typing import Optional


class _Slot:
    __slots__ = ("second", "committed", "aborted", "errors", "latency_sum",
                 "per_txn")

    def __init__(self) -> None:
        self.second: Optional[int] = None
        self.committed = 0
        self.aborted = 0
        self.errors = 0
        self.latency_sum = 0.0
        self.per_txn: dict[str, list] = {}  # name -> [count, latency_sum]

    def reset(self, second: int) -> None:
        self.second = second
        self.committed = 0
        self.aborted = 0
        self.errors = 0
        self.latency_sum = 0.0
        self.per_txn = {}


class ThroughputWindow:
    """Fixed-size ring of per-second committed/aborted/error counters.

    Not thread-safe on its own — :class:`~repro.metrics.stream.
    StreamingMetrics` serialises access.
    """

    def __init__(self, history_seconds: int = 3600) -> None:
        if history_seconds <= 0:
            raise ValueError("history_seconds must be positive")
        self.history_seconds = history_seconds
        self._slots = [_Slot() for _ in range(history_seconds)]
        self._min_second: Optional[int] = None
        self._max_second: Optional[int] = None
        self.dropped_stale = 0  # samples older than the retained horizon

    # -- recording ----------------------------------------------------------

    def record(self, end_time: float, txn_name: str, latency: float,
               status: str) -> None:
        second = math.floor(end_time)
        if self._max_second is not None and \
                second <= self._max_second - self.history_seconds:
            self.dropped_stale += 1
            return
        slot = self._slots[second % self.history_seconds]
        if slot.second != second:
            if slot.second is not None and slot.second > second:
                # An old slot would clobber a newer second's counts.
                self.dropped_stale += 1
                return
            slot.reset(second)
        if self._min_second is None or second < self._min_second:
            self._min_second = second
        if self._max_second is None or second > self._max_second:
            self._max_second = second
        if status == "ok":
            slot.committed += 1
            slot.latency_sum += latency
            entry = slot.per_txn.setdefault(txn_name, [0, 0.0])
            entry[0] += 1
            entry[1] += latency
        elif status == "aborted":
            slot.aborted += 1
        else:
            slot.errors += 1

    # -- queries ------------------------------------------------------------

    def complete(self) -> bool:
        """True while no recorded second has been evicted yet.

        Once it is False, per-second series and windows that reach back
        past the horizon miss the evicted seconds' counts.
        """
        if self._max_second is None:
            return True
        assert self._min_second is not None
        return (self._max_second - self._min_second) < self.history_seconds

    def window_stats(self, now: float, window: float = 5.0) -> dict:
        """Aggregate over ``[floor(now) - W, floor(now))``."""
        current = math.floor(now)
        seconds = max(1, int(window))
        committed = aborted = errors = 0
        latency_sum = 0.0
        totals: dict[str, list] = {}
        if seconds < self.history_seconds:
            span = range(current - seconds, current)
        else:
            # A window at least as long as the ring: only the seconds
            # its slots still hold can count, so visit each slot once.
            span = sorted(slot.second for slot in self._slots
                          if slot.second is not None
                          and current - seconds <= slot.second < current)
        for second in span:
            slot = self._slots[second % self.history_seconds]
            if slot.second != second:
                continue
            committed += slot.committed
            aborted += slot.aborted
            errors += slot.errors
            latency_sum += slot.latency_sum
            for name, (count, total) in slot.per_txn.items():
                entry = totals.setdefault(name, [0, 0.0])
                entry[0] += count
                entry[1] += total
        per_txn = {
            name: {
                "throughput": count / seconds,
                "avg_latency": total / count if count else 0.0,
            }
            for name, (count, total) in totals.items()
        }
        return {
            "seconds": seconds,
            "committed": committed,
            "throughput": committed / seconds,
            "aborts_per_sec": aborted / seconds,
            "errors_per_sec": errors / seconds,
            "avg_latency": latency_sum / committed if committed else 0.0,
            "per_txn": per_txn,
        }

    def series(self, start: Optional[int] = None,
               end: Optional[int] = None,
               txn_name: Optional[str] = None) -> list[tuple[int, int]]:
        """Sorted (second, committed) pairs over the retained history.

        With ``txn_name``, counts only that transaction type's commits.
        Seconds without a commit are left out.  An explicit ``start``
        before the retained horizon, once seconds have been evicted,
        raises ``ValueError``: those counts are gone, not zero.
        """
        if self._max_second is None:
            return []
        assert self._min_second is not None
        retained = self._max_second - self.history_seconds + 1
        if start is not None and start < retained and not self.complete():
            raise ValueError(
                f"seconds before {retained} were evicted from the "
                f"{self.history_seconds} s ring")
        lo = self._min_second if start is None else start
        hi = self._max_second + 1 if end is None else end
        lo = max(lo, retained)
        out = []
        for second in range(lo, hi):
            slot = self._slots[second % self.history_seconds]
            if slot.second != second:
                continue
            if txn_name is None:
                count = slot.committed
            else:
                count = slot.per_txn.get(txn_name, (0,))[0]
            if count:
                out.append((second, count))
        return out
