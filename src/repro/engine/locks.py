"""Strict two-phase-locking lock manager with deadlock detection.

Locks are taken on opaque hashable resource ids (the executor uses
``("row", table, rowid)`` and ``("key", table, key)`` granules) in shared
(``S``) or exclusive (``X``) mode.  Grants follow a FIFO wait queue with
lock-upgrade priority.  A waits-for graph is maintained; when a request
would close a cycle the *requester* is chosen as the deadlock victim and
receives :class:`DeadlockError` — the cheapest victim policy and the one
that makes worker retry loops exercise realistic abort paths.

The manager also exposes counters (waits, wait time, deadlocks) that feed
the server-side monitoring component and the DBMS personality contention
model.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Union

from ..clock import Clock, RealClock
from ..errors import DeadlockError, LockTimeoutError

SHARED = "S"
EXCLUSIVE = "X"


def _compatible(held: str, requested: str) -> bool:
    return held == SHARED and requested == SHARED


class _LockEntry:
    """State of one resource: current holders and the wait queue."""

    __slots__ = ("holders", "waiters")

    def __init__(self) -> None:
        self.holders: dict[object, str] = {}  # txn -> mode
        self.waiters: list[tuple[object, str]] = []


@dataclass
class LockStats:
    acquisitions: int = 0
    waits: int = 0
    wait_time: float = 0.0
    deadlocks: int = 0
    timeouts: int = 0

    def snapshot(self) -> dict[str, float]:
        return {
            "acquisitions": self.acquisitions,
            "waits": self.waits,
            "wait_time": self.wait_time,
            "deadlocks": self.deadlocks,
            "timeouts": self.timeouts,
        }


class LockManager:
    """Table/row lock manager shared by every connection of one database."""

    def __init__(self, timeout: float = 5.0,
                 clock: Union[Clock, Callable[[], float], None] = None
                 ) -> None:
        self.timeout = timeout
        # Wait deadlines and wait-time accounting go through an injected
        # monotonic time source so simulated runs stay deterministic; a
        # Clock or a bare callable returning seconds are both accepted.
        if clock is None:
            clock = RealClock()
        self._now: Callable[[], float] = (
            clock.now if isinstance(clock, Clock) else clock)
        self._mutex = threading.Lock()
        self._condition = threading.Condition(self._mutex)
        self._entries: dict[Hashable, _LockEntry] = {}
        self._held: dict[object, set[Hashable]] = {}
        # waits-for edges: waiting txn -> set of txns it waits on
        self._waits_for: dict[object, set[object]] = {}
        self._txn_thread: dict[object, int] = {}
        self.stats = LockStats()

    # -- public API -----------------------------------------------------

    def acquire(self, txn: object, resource: Hashable, mode: str,
                timeout: Optional[float] = None) -> bool:
        """Acquire ``resource`` in ``mode`` for ``txn``; blocks if needed.

        Returns True if the lock was newly acquired or upgraded, False when
        the transaction already held a sufficient lock.  Raises
        :class:`DeadlockError` when the wait would close a cycle and
        :class:`LockTimeoutError` on timeout.

        Enters ``_mutex`` directly, the lock ``_condition`` waits on,
        rather than through the condition's Python-level ``__enter__``.
        """
        with self._mutex:
            entry = self._entries.get(resource)
            if entry is None:
                # Uncontended: no one holds or awaits the resource.
                entry = self._entries[resource] = _LockEntry()
                self._grant(entry, txn, resource, mode)
                return True
            held_mode = entry.holders.get(txn)
            if held_mode == EXCLUSIVE or held_mode == mode:
                return False
            if self._grantable(entry, txn, mode):
                self._grant(entry, txn, resource, mode)
                return True
            # Must wait; the timeout runs from here.  The self-wait check
            # reads each transaction's thread, noted at its first grant
            # and again before each of its waits.
            self._txn_thread[txn] = threading.get_ident()
            self.stats.waits += 1
            entry.waiters.append((txn, mode))
            wait_started = self._now()
            deadline = wait_started + (
                self.timeout if timeout is None else timeout)
            try:
                while True:
                    blockers = self._blockers(entry, txn, mode)
                    self._waits_for[txn] = blockers
                    if self._creates_cycle(txn):
                        self.stats.deadlocks += 1
                        raise DeadlockError(
                            f"deadlock detected acquiring {mode} on {resource!r}")
                    if self._would_self_block(txn, blockers):
                        self.stats.deadlocks += 1
                        raise DeadlockError(
                            f"self-wait acquiring {mode} on {resource!r} "
                            "(conflicting transaction on the same thread)")
                    remaining = deadline - self._now()
                    if remaining <= 0:
                        self.stats.timeouts += 1
                        raise LockTimeoutError(
                            f"timed out acquiring {mode} on {resource!r}")
                    self._condition.wait(remaining)
                    if self._grantable(entry, txn, mode):
                        self._grant(entry, txn, resource, mode)
                        return True
            finally:
                self._waits_for.pop(txn, None)
                try:
                    entry.waiters.remove((txn, mode))
                except ValueError:
                    pass
                self.stats.wait_time += self._now() - wait_started
                if self._waits_for:
                    self._condition.notify_all()

    def try_acquire(self, txn: object, resource: Hashable, mode: str) -> bool:
        """Non-blocking acquire; returns False instead of waiting."""
        with self._mutex:
            entry = self._entries.get(resource)
            if entry is None:
                entry = self._entries[resource] = _LockEntry()
            held_mode = entry.holders.get(txn)
            if held_mode == EXCLUSIVE or held_mode == mode:
                return True
            if self._grantable(entry, txn, mode):
                self._grant(entry, txn, resource, mode)
                return True
            return False

    def release_all(self, txn: object) -> None:
        """Release every lock held by ``txn`` (strict 2PL release point).

        Waiters are woken only if some transaction is waiting: every
        waiter has a waits-for entry for as long as it waits.
        """
        with self._mutex:
            for resource in self._held.pop(txn, ()):
                entry = self._entries.get(resource)
                if entry is None:
                    continue
                entry.holders.pop(txn, None)
                if not entry.holders and not entry.waiters:
                    del self._entries[resource]
            self._txn_thread.pop(txn, None)
            if self._waits_for:
                self._waits_for.pop(txn, None)
                self._condition.notify_all()

    def held_by(self, txn: object) -> set[Hashable]:
        with self._mutex:
            return set(self._held.get(txn, ()))

    def holds(self, txn: object, resource: Hashable, mode: str) -> bool:
        with self._mutex:
            entry = self._entries.get(resource)
            if entry is None:
                return False
            held = entry.holders.get(txn)
            return held == EXCLUSIVE or held == mode

    def active_lock_count(self) -> int:
        with self._mutex:
            return sum(len(e.holders) for e in self._entries.values())

    # -- internals --------------------------------------------------------

    def _grantable(self, entry: _LockEntry, txn: object, mode: str) -> bool:
        for holder, held_mode in entry.holders.items():
            if holder is txn:
                continue
            if not _compatible(held_mode, mode):
                return False
        if mode == EXCLUSIVE:
            # Upgrades bypass the queue; fresh X requests respect FIFO
            # among waiters ahead of them to avoid starvation.
            if txn not in entry.holders:
                for waiter, _waiter_mode in entry.waiters:
                    if waiter is txn:
                        break
                    if waiter not in entry.holders:
                        return False
        return True

    def _grant(self, entry: _LockEntry, txn: object, resource: Hashable,
               mode: str) -> None:
        entry.holders[txn] = mode
        held = self._held.get(txn)
        if held is None:
            # The transaction's first grant: note its thread.
            self._held[txn] = held = set()
            self._txn_thread[txn] = threading.get_ident()
        held.add(resource)
        self.stats.acquisitions += 1

    def _blockers(self, entry: _LockEntry, txn: object, mode: str) -> set[object]:
        blockers = {
            holder for holder, held_mode in entry.holders.items()
            if holder is not txn and not _compatible(held_mode, mode)
        }
        if mode == EXCLUSIVE and txn not in entry.holders:
            for waiter, _waiter_mode in entry.waiters:
                if waiter is txn:
                    break
                if waiter is not txn and waiter not in entry.holders:
                    blockers.add(waiter)
        return blockers

    def _creates_cycle(self, start: object) -> bool:
        """DFS over the waits-for graph looking for a cycle through start."""
        stack = list(self._waits_for.get(start, ()))
        seen: set[object] = set()
        while stack:
            node = stack.pop()
            if node is start:
                return True
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(self._waits_for.get(node, ()))
        return False

    def _would_self_block(self, txn: object, blockers: set[object]) -> bool:
        """True when a blocker runs on this thread: waiting would hang it."""
        me = threading.get_ident()
        for blocker in blockers:
            if self._txn_thread.get(blocker) == me:
                return True
        return False
