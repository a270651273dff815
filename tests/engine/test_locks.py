"""Lock manager semantics: sharing, upgrades, deadlock, timeout."""

import threading
import time

import pytest

from repro.engine.locks import EXCLUSIVE, LockManager, SHARED
from repro.errors import DeadlockError, LockTimeoutError


@pytest.fixture
def lm():
    return LockManager(timeout=0.5)


def test_shared_locks_are_compatible(lm):
    assert lm.acquire("t1", "r", SHARED)
    assert lm.acquire("t2", "r", SHARED)
    assert lm.holds("t1", "r", SHARED)
    assert lm.holds("t2", "r", SHARED)


def test_exclusive_excludes_shared(lm):
    lm.acquire("t1", "r", EXCLUSIVE)
    assert not lm.try_acquire("t2", "r", SHARED)
    assert not lm.try_acquire("t2", "r", EXCLUSIVE)


def test_reacquire_is_noop(lm):
    assert lm.acquire("t1", "r", SHARED)
    assert lm.acquire("t1", "r", SHARED) is False
    lm.acquire("t1", "r", EXCLUSIVE)
    assert lm.acquire("t1", "r", SHARED) is False  # X covers S


def test_upgrade_s_to_x_when_alone(lm):
    lm.acquire("t1", "r", SHARED)
    assert lm.acquire("t1", "r", EXCLUSIVE)
    assert not lm.try_acquire("t2", "r", SHARED)


def test_release_all_frees_everything(lm):
    lm.acquire("t1", "a", EXCLUSIVE)
    lm.acquire("t1", "b", SHARED)
    lm.release_all("t1")
    assert lm.try_acquire("t2", "a", EXCLUSIVE)
    assert lm.try_acquire("t2", "b", EXCLUSIVE)


def test_blocked_acquire_wakes_on_release(lm):
    lm.acquire("t1", "r", EXCLUSIVE)
    acquired = threading.Event()

    def taker():
        lm.acquire("t2", "r", EXCLUSIVE, timeout=5.0)
        acquired.set()

    thread = threading.Thread(target=taker, daemon=True)
    thread.start()
    time.sleep(0.05)
    assert not acquired.is_set()
    lm.release_all("t1")
    assert acquired.wait(2.0)
    thread.join(1.0)


def test_timeout_raises(lm):
    lm.acquire("t1", "r", EXCLUSIVE)

    result = {}

    def taker():
        try:
            lm.acquire("t2", "r", SHARED, timeout=0.1)
        except LockTimeoutError:
            result["timeout"] = True

    thread = threading.Thread(target=taker, daemon=True)
    thread.start()
    thread.join(2.0)
    assert result.get("timeout")
    assert lm.stats.timeouts == 1


def test_deadlock_detected_across_threads(lm):
    """t1 holds a, wants b; t2 holds b, wants a — one must die."""
    lm_local = LockManager(timeout=5.0)
    barrier = threading.Barrier(2)
    outcomes = {}

    def worker(me, first, second):
        lm_local.acquire(me, first, EXCLUSIVE)
        barrier.wait()
        try:
            lm_local.acquire(me, second, EXCLUSIVE, timeout=3.0)
            outcomes[me] = "ok"
        except DeadlockError:
            outcomes[me] = "deadlock"
            lm_local.release_all(me)

    t1 = threading.Thread(target=worker, args=("t1", "a", "b"), daemon=True)
    t2 = threading.Thread(target=worker, args=("t2", "b", "a"), daemon=True)
    t1.start()
    t2.start()
    t1.join(5.0)
    t2.join(5.0)
    assert "deadlock" in outcomes.values()
    assert lm_local.stats.deadlocks >= 1


def test_same_thread_conflict_raises_immediately(lm):
    """Two transactions on one thread must not block forever."""
    lm.acquire("t1", "r", EXCLUSIVE)
    started = time.monotonic()
    with pytest.raises(DeadlockError):
        lm.acquire("t2", "r", EXCLUSIVE, timeout=10.0)
    assert time.monotonic() - started < 1.0


def test_active_lock_count(lm):
    lm.acquire("t1", "a", SHARED)
    lm.acquire("t2", "a", SHARED)
    lm.acquire("t1", "b", EXCLUSIVE)
    assert lm.active_lock_count() == 3
    lm.release_all("t1")
    assert lm.active_lock_count() == 1


def test_stats_acquisitions_counted(lm):
    lm.acquire("t1", "a", SHARED)
    lm.acquire("t1", "b", SHARED)
    lm.acquire("t1", "a", SHARED)  # no-op: not re-counted
    assert lm.stats.acquisitions == 2


# -- exact LockStats on each path (uncontended fast path included) -----------


class ManualClock:
    """A time source only the test moves; counts how often it is read."""

    def __init__(self, now: float = 100.0) -> None:
        self.now = now
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return self.now


def _stats(lm):
    return lm.stats.snapshot()


def _wait_until(predicate, seconds=2.0):
    """Poll ``predicate``; a waiter counted in ``stats.waits`` has queued
    itself under the mutex, so the next call on the manager sees it."""
    deadline = time.monotonic() + seconds
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def test_uncontended_grant_reads_no_clock():
    clock = ManualClock()
    lm = LockManager(timeout=1.0, clock=clock)
    assert lm.acquire("t1", "a", EXCLUSIVE) is True
    assert lm.acquire("t2", "b", SHARED) is True
    assert lm.holds("t1", "a", EXCLUSIVE) and lm.holds("t2", "b", SHARED)
    assert _stats(lm) == {"acquisitions": 2, "waits": 0, "wait_time": 0.0,
                          "deadlocks": 0, "timeouts": 0}
    assert clock.reads == 0
    lm.release_all("t1")
    lm.release_all("t2")
    assert lm.active_lock_count() == 0


def test_reentrant_shared_and_exclusive():
    clock = ManualClock()
    lm = LockManager(timeout=1.0, clock=clock)
    assert lm.acquire("t1", "r", SHARED) is True
    assert lm.acquire("t1", "r", SHARED) is False
    assert lm.acquire("t2", "r", SHARED) is True
    assert lm.acquire("t2", "r", SHARED) is False
    assert lm.acquire("t3", "x", EXCLUSIVE) is True
    assert lm.acquire("t3", "x", EXCLUSIVE) is False
    assert lm.acquire("t3", "x", SHARED) is False  # X covers S
    assert _stats(lm) == {"acquisitions": 3, "waits": 0, "wait_time": 0.0,
                          "deadlocks": 0, "timeouts": 0}
    assert lm.held_by("t3") == {"x"}
    assert clock.reads == 0


def test_upgrade_bypasses_a_queued_exclusive_waiter():
    clock = ManualClock()
    lm = LockManager(timeout=5.0, clock=clock)
    lm.acquire("t1", "r", SHARED)
    granted = threading.Event()

    def waiter():
        lm.acquire("t2", "r", EXCLUSIVE)
        granted.set()

    thread = threading.Thread(target=waiter, daemon=True)
    thread.start()
    _wait_until(lambda: lm.stats.waits == 1)
    # t1's S -> X upgrade goes ahead of t2's queued X request.
    assert lm.acquire("t1", "r", EXCLUSIVE) is True
    assert lm.holds("t1", "r", EXCLUSIVE)
    assert not granted.is_set()
    clock.now += 0.25
    lm.release_all("t1")
    assert granted.wait(2.0)
    thread.join(2.0)
    assert lm.holds("t2", "r", EXCLUSIVE)
    assert _stats(lm) == {"acquisitions": 3, "waits": 1, "wait_time": 0.25,
                          "deadlocks": 0, "timeouts": 0}


def test_fresh_exclusive_waits_behind_a_queued_waiter():
    lm = LockManager(timeout=5.0, clock=ManualClock())
    lm.acquire("t1", "r", SHARED)
    order = []

    def take(txn, mode):
        lm.acquire(txn, "r", mode)
        order.append(txn)
        lm.release_all(txn)

    first = threading.Thread(target=take, args=("t2", EXCLUSIVE), daemon=True)
    first.start()
    _wait_until(lambda: lm.stats.waits == 1)
    second = threading.Thread(target=take, args=("t3", EXCLUSIVE),
                              daemon=True)
    second.start()
    _wait_until(lambda: lm.stats.waits == 2)
    lm.release_all("t1")
    first.join(2.0)
    second.join(2.0)
    assert order == ["t2", "t3"]
    assert lm.stats.acquisitions == 3 and lm.stats.waits == 2


def test_deadlock_victim_is_the_requester():
    clock = ManualClock()
    lm = LockManager(timeout=5.0, clock=clock)
    lm.acquire("t1", "a", EXCLUSIVE)
    lm.acquire("t2", "b", EXCLUSIVE)
    outcome = {}

    def t2_wants_a():
        lm.acquire("t2", "a", EXCLUSIVE)
        outcome["t2"] = "granted"

    thread = threading.Thread(target=t2_wants_a, daemon=True)
    thread.start()
    _wait_until(lambda: lm.stats.waits == 1)
    with pytest.raises(DeadlockError, match="deadlock detected"):
        lm.acquire("t1", "b", EXCLUSIVE)
    clock.now += 1.0
    lm.release_all("t1")
    thread.join(2.0)
    assert outcome == {"t2": "granted"}
    assert _stats(lm) == {"acquisitions": 3, "waits": 2, "wait_time": 1.0,
                          "deadlocks": 1, "timeouts": 0}


def test_timeout_is_measured_from_the_start_of_the_wait():
    clock = ManualClock(now=50.0)
    lm = LockManager(timeout=5.0, clock=clock)
    lm.acquire("t1", "r", EXCLUSIVE)
    result = {}

    def waiter():
        try:
            lm.acquire("t2", "r", SHARED, timeout=0.2)
        except LockTimeoutError as exc:
            result["error"] = str(exc)

    thread = threading.Thread(target=waiter, daemon=True)
    thread.start()
    _wait_until(lambda: lm.stats.waits == 1)
    # Less than the timeout since the wait began: the waiter keeps
    # waiting through its wake-ups.
    clock.now = 50.15
    time.sleep(0.3)
    assert thread.is_alive()
    clock.now = 50.3
    thread.join(2.0)
    assert not thread.is_alive()
    assert result["error"] == "timed out acquiring S on 'r'"
    assert _stats(lm) == {"acquisitions": 1, "waits": 1,
                          "wait_time": pytest.approx(0.3), "deadlocks": 0,
                          "timeouts": 1}
