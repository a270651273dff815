"""The centralized request queue at the heart of OLTP-Bench rate control.

Paper §2.2.1: "the runtime throughput is controlled through the Workload
Manager's request queue... Using a centralized queue allows us to control
the throughput from one location without needing to coordinate the multiple
threads.  The exact number of requests configured is added to the queue
each second... When the workers cannot keep up with all requests, the
remainder is postponed in such a way that the framework never exceeds the
target rate."

Two backlog policies are implemented (the postponement ablation):

* ``cap`` (default, OLTP-Bench behaviour) — when a new one-second batch is
  offered, still-unserved requests from earlier seconds are shed and
  counted as *postponed*.  Workers can therefore never drain a backlog
  burst, so delivered throughput never exceeds the target rate.
* ``backlog`` — requests are never shed; after a stall, workers catch up in
  a burst that overshoots the target (the behaviour the paper's design
  avoids).

A request may also never be taken before its scheduled arrival timestamp;
this is what spreads execution uniformly/exponentially within each second.

The queue is one arrival-ordered deque.  One condition variable guards
the deque, the ``offered`` / ``taken`` / ``postponed`` counters and the
pause/shutdown state, so ``offered == taken + postponed + depth`` holds
at every observation.  A blocking taker scans and parks under that same
lock, so no wakeup is lost; producers wake takers with
``notify(len(batch))`` (proportional to the work added, not
``notify_all``).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Optional

from ..clock import Clock, RealClock
from ..errors import ConfigurationError

POLICY_CAP = "cap"
POLICY_BACKLOG = "backlog"


class Request:
    """One unit of work: execute a transaction sampled from the mixture.

    A hand-rolled ``__slots__`` class: one instance is created per
    offered request, and at driver-capacity offer rates the frozen-
    dataclass constructor (``object.__setattr__`` per field) is
    measurable pacer-side overhead.
    """

    __slots__ = ("arrival_time", "seq")

    def __init__(self, arrival_time: float, seq: int) -> None:
        self.arrival_time = arrival_time
        self.seq = seq

    def __repr__(self) -> str:
        return f"Request(arrival_time={self.arrival_time!r}, " \
               f"seq={self.seq!r})"


class RequestQueue:
    """Thread-safe central queue with scheduled arrival times."""

    def __init__(self, clock: Optional[Clock] = None,
                 policy: str = POLICY_CAP) -> None:
        if policy not in (POLICY_CAP, POLICY_BACKLOG):
            raise ConfigurationError(f"unknown queue policy {policy!r}")
        self.policy = policy
        self.clock = clock or RealClock()
        self._queue: deque[Request] = deque()
        self._not_empty = threading.Condition(threading.Lock())
        self._seq = 0
        self._paused = False
        self._shutdown = False
        # Requested-vs-delivered accounting, written under the lock.
        self.offered = 0
        self.taken = 0
        self.postponed = 0

    # -- producer side (Workload Manager) ----------------------------------

    def offer_batch(self, arrivals: list[float]) -> int:
        """Add one second's worth of requests; returns number postponed.

        Under the ``cap`` policy, requests from previous batches that are
        still queued when the new batch starts are shed first.
        """
        if not arrivals:
            return 0
        shed = 0
        with self._not_empty:
            pending = self._queue
            if self.policy == POLICY_CAP:
                batch_start = arrivals[0]
                while pending and pending[0].arrival_time < batch_start:
                    pending.popleft()
                    shed += 1
                self.postponed += shed
            seq = self._seq
            pending.extend(map(Request, arrivals,
                               range(seq + 1, seq + 1 + len(arrivals))))
            self._seq = seq + len(arrivals)
            self.offered += len(arrivals)
            # Proportional wakeup: at most len(arrivals) takers can make
            # progress on this batch, so waking more is a thundering herd.
            self._not_empty.notify(len(arrivals))
        return shed

    def clear(self) -> int:
        """Drop all pending requests (phase transition with rate change).

        The dropped requests were offered but will never be delivered, so
        they count as postponed — otherwise offered/taken/postponed
        accounting silently drifts on every rate-changing transition.
        Blocked :meth:`take_batch` callers are woken so they re-check state
        instead of sleeping until a cleared request's arrival time.
        """
        with self._not_empty:
            dropped = len(self._queue)
            self._queue.clear()
            self.postponed += dropped
            if dropped:
                self._not_empty.notify_all()
        return dropped

    def drop_due(self, now: float) -> int:
        """Shed every request whose arrival time has come (breaker open).

        The dropped requests were offered but deliberately not delivered,
        so they count as postponed — load shedding therefore preserves
        ``offered == taken + postponed + depth`` exactly like a phase
        transition's :meth:`clear`.
        """
        dropped = 0
        with self._not_empty:
            pending = self._queue
            while pending and pending[0].arrival_time <= now:
                pending.popleft()
                dropped += 1
            self.postponed += dropped
        return dropped

    def counters(self) -> dict[str, int]:
        """Consistent snapshot of the requested-vs-delivered accounting."""
        with self._not_empty:
            return {"offered": self.offered, "taken": self.taken,
                    "postponed": self.postponed, "depth": len(self._queue)}

    # -- consumer side (workers) -----------------------------------------------

    def take_batch(self, max_n: int,
                   timeout: Optional[float] = None) -> list[Request]:
        """Pop up to ``max_n`` due requests in one pass, arrival-ordered.

        The hot path of the batched driver: a worker drains a whole run
        of due requests under one lock acquisition instead of one
        condition-variable dance per request.  Blocks while the queue is
        empty, paused, or the head request's arrival time is in the
        future, until at least one request is due; returns ``[]`` on
        shutdown or timeout.  Only meaningful with a real clock; the
        simulated executor uses :meth:`poll` instead.
        """
        if max_n <= 0:
            raise ConfigurationError("take_batch max_n must be positive")
        deadline = (self.clock.now() + timeout) if timeout is not None \
            else None
        pending = self._queue
        with self._not_empty:
            while not self._shutdown:
                now = self.clock.now()
                wait: Optional[float] = None
                if pending and not self._paused:
                    head_time = pending[0].arrival_time
                    if head_time <= now:
                        batch = [pending.popleft()]
                        while (len(batch) < max_n and pending
                               and pending[0].arrival_time <= now):
                            batch.append(pending.popleft())
                        self.taken += len(batch)
                        return batch
                    wait = head_time - now
                if deadline is not None:
                    remaining = deadline - now
                    if remaining <= 0:
                        return []
                    wait = remaining if wait is None else min(wait,
                                                              remaining)
                self._not_empty.wait(wait)
        return []

    def poll(self, now: float) -> Optional[Request]:
        """Non-blocking take of the head request if it is due.

        Used by the simulated executor, which advances virtual time
        itself instead of blocking.
        """
        with self._not_empty:
            pending = self._queue
            if (self._shutdown or self._paused or not pending
                    or pending[0].arrival_time > now):
                return None
            self.taken += 1
            return pending.popleft()

    def next_arrival(self) -> Optional[float]:
        with self._not_empty:
            return self._queue[0].arrival_time if self._queue else None

    # -- control -------------------------------------------------------------

    def pause(self) -> None:
        """Block workers from pulling (the game's mixture-dialog pause)."""
        with self._not_empty:
            self._paused = True

    def resume(self) -> None:
        with self._not_empty:
            self._paused = False
            self._not_empty.notify_all()

    @property
    def paused(self) -> bool:
        return self._paused

    def shutdown(self) -> None:
        with self._not_empty:
            self._shutdown = True
            self._not_empty.notify_all()

    def __len__(self) -> int:
        return len(self._queue)
