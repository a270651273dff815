"""Clock abstraction: real wall-clock time and deterministic virtual time.

OLTP-Bench drives everything off wall-clock time (arrival schedules, phase
durations, latency measurement).  Reproducing its rate-control precision in
Python is awkward under the GIL, so the testbed is built against a ``Clock``
interface with two implementations:

* :class:`RealClock` — thin wrapper over ``time.monotonic`` / ``time.sleep``
  used by the threaded executor and the live control API.
* :class:`SimClock` — a discrete-event virtual clock used by the simulated
  executor.  Time advances only when the event loop pops the next event, so
  experiments are deterministic, exact, and orders of magnitude faster than
  real time.

All timestamps are ``float`` seconds.
"""

from __future__ import annotations

import heapq
import itertools
import math
import os
import time
from typing import Callable

#: Wall seconds a CPU-bound loop (a simulation, a threaded worker) runs
#: between two GIL yields.  CPython hands the GIL to a waiting thread only
#: when its holder blocks or after the switch interval (5 ms by default),
#: for a worker often inside a transaction that holds row locks.  Yielding
#: every millisecond bounds that wait and picks the point of the handoff.
YIELD_INTERVAL = 0.001
#: A lone worker sleeps :data:`HANDOFF_SLEEP` seconds at every
#: :data:`SLEEP_EVERY`-th yield, long enough for a waiter on another CPU.
SLEEP_EVERY = 4
HANDOFF_SLEEP = 5e-5


class Clock:
    """Interface for time sources used throughout the testbed."""

    def now(self) -> float:
        """Return the current time in seconds (monotonic)."""
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        """Block (or virtually wait) for ``seconds``."""
        raise NotImplementedError


class RealClock(Clock):
    """Wall-clock time via ``time.monotonic``."""

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class SimClock(Clock):
    """Virtual clock advanced explicitly by a discrete-event scheduler.

    ``sleep`` is not supported directly: simulated components must schedule
    events instead of blocking.  The clock carries its own event queue so a
    single object serves as both time source and scheduler.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._events: list[tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()

    # -- Clock interface ---------------------------------------------------

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        raise RuntimeError(
            "SimClock components must schedule events via call_at/call_later "
            "instead of sleeping"
        )

    # -- scheduler ---------------------------------------------------------

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run at virtual time ``when``.

        Events scheduled in the past run at the current time (FIFO among
        same-time events, preserving scheduling order).
        """
        when = max(when, self._now)
        heapq.heappush(self._events, (when, next(self._counter), callback))

    def call_later(self, delay: float, callback: Callable[[], None]) -> None:
        self.call_at(self._now + max(0.0, delay), callback)

    def pending(self) -> int:
        """Number of scheduled events not yet executed."""
        return len(self._events)

    def step(self) -> bool:
        """Pop and run the next event; return False when the queue is empty."""
        if not self._events:
            return False
        when, _seq, callback = heapq.heappop(self._events)
        self._now = when
        callback()
        return True

    def run_until(self, deadline: float) -> None:
        """Run events until the queue is exhausted or virtual time passes
        ``deadline``.  Leaves events scheduled after the deadline queued and
        advances the clock exactly to ``deadline``."""
        self._run(deadline)
        if self._now < deadline:
            self._now = deadline

    def run(self) -> None:
        """Run until no events remain."""
        self._run(math.inf)

    def _run(self, deadline: float) -> None:
        """Run the events due by ``deadline``, yielding the GIL between
        events (:class:`GilYielder`); virtual time and order do not change."""
        yielder = GilYielder()
        while self._events and self._events[0][0] <= deadline:
            self.step()
            yielder.maybe_yield()


class GilYielder:
    """Yields the GIL at most once per :data:`YIELD_INTERVAL` of wall
    time, where the calling loop holds nothing another thread waits on.
    ``os.sched_yield`` hands it to a waiter on the same CPU; one on
    another CPU loses every such race and takes it at a sleep.  Several
    ``workers`` on several CPUs sleep at every yield, lest sleeps further
    apart fall into step with CPython's order of GIL waiters and starve
    a third thread.  A simulation (no workers) never sleeps: there the
    sleeps slowed polls at the tail."""

    __slots__ = ("_due", "_yields", "_sleep_every")

    def __init__(self, workers: int = 0) -> None:
        self._due = time.monotonic() + YIELD_INTERVAL
        self._yields = 0
        several = workers > 1 and _cpus() > 1
        self._sleep_every = 1 if several else SLEEP_EVERY if workers else 0

    def maybe_yield(self) -> None:
        if time.monotonic() < self._due:
            return
        self._yields += 1
        if self._sleep_every and self._yields % self._sleep_every == 0:
            time.sleep(HANDOFF_SLEEP)
        else:
            os.sched_yield()
        self._due = time.monotonic() + YIELD_INTERVAL


def _cpus() -> int:
    """CPUs the calling thread may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1

