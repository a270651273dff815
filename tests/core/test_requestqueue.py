"""Centralized request queue: arrival gating, postponement, pausing."""

import threading
import time

import pytest

from repro.clock import SimClock
from repro.core.requestqueue import (POLICY_BACKLOG, POLICY_CAP, Request,
                                     RequestQueue)
from repro.errors import ConfigurationError
from repro.rand import make_rng


def assert_invariant(queue):
    counters = queue.counters()
    assert counters["offered"] == (counters["taken"]
                                   + counters["postponed"]
                                   + counters["depth"]), counters


def test_poll_respects_arrival_time():
    clock = SimClock()
    queue = RequestQueue(clock=clock)
    queue.offer_batch([0.5, 0.7])
    assert queue.poll(0.4) is None
    request = queue.poll(0.5)
    assert request is not None and request.arrival_time == 0.5
    assert queue.poll(0.6) is None
    assert queue.poll(0.7) is not None


def test_fifo_order_and_seq():
    queue = RequestQueue(clock=SimClock())
    queue.offer_batch([0.1, 0.2, 0.3])
    takes = [queue.poll(1.0) for _ in range(3)]
    assert [t.arrival_time for t in takes] == [0.1, 0.2, 0.3]
    assert takes[0].seq < takes[1].seq < takes[2].seq


def test_cap_policy_sheds_stale_requests():
    """Unserved requests are postponed when the next batch arrives."""
    queue = RequestQueue(clock=SimClock(), policy=POLICY_CAP)
    queue.offer_batch([0.0, 0.5])  # never served
    shed = queue.offer_batch([1.0, 1.5])
    assert shed == 2
    assert queue.postponed == 2
    assert len(queue) == 2
    assert queue.poll(2.0).arrival_time == 1.0


def test_backlog_policy_keeps_everything():
    queue = RequestQueue(clock=SimClock(), policy=POLICY_BACKLOG)
    queue.offer_batch([0.0, 0.5])
    shed = queue.offer_batch([1.0, 1.5])
    assert shed == 0
    assert len(queue) == 4


def test_unknown_policy_rejected():
    with pytest.raises(ConfigurationError):
        RequestQueue(policy="magic")


def test_pause_blocks_poll():
    queue = RequestQueue(clock=SimClock())
    queue.offer_batch([0.0])
    queue.pause()
    assert queue.poll(1.0) is None
    queue.resume()
    assert queue.poll(1.0) is not None


def test_clear_drops_pending():
    queue = RequestQueue(clock=SimClock())
    queue.offer_batch([0.0, 0.1, 0.2])
    assert queue.clear() == 3
    assert len(queue) == 0


def test_shutdown_unblocks_take():
    queue = RequestQueue()  # real clock
    result = {}

    def taker():
        result["request"] = queue.take(timeout=5.0)

    thread = threading.Thread(target=taker, daemon=True)
    thread.start()
    time.sleep(0.05)
    queue.shutdown()
    thread.join(2.0)
    assert result["request"] is None


def test_take_blocks_until_arrival_time():
    queue = RequestQueue()  # real clock
    now = queue.clock.now()
    queue.offer_batch([now + 0.15])
    started = time.monotonic()
    request = queue.take(timeout=2.0)
    waited = time.monotonic() - started
    assert request is not None
    assert waited >= 0.10


def test_take_timeout_returns_none():
    queue = RequestQueue()
    started = time.monotonic()
    assert queue.take(timeout=0.1) is None
    assert time.monotonic() - started < 1.0


def test_take_wakes_on_offer():
    queue = RequestQueue()
    result = {}

    def taker():
        result["request"] = queue.take(timeout=5.0)

    thread = threading.Thread(target=taker, daemon=True)
    thread.start()
    time.sleep(0.05)
    queue.offer_batch([queue.clock.now()])
    thread.join(2.0)
    assert result["request"] is not None


def test_counters():
    queue = RequestQueue(clock=SimClock())
    queue.offer_batch([0.0, 0.1])
    queue.poll(1.0)
    assert queue.offered == 2
    assert queue.taken == 1


def test_next_arrival():
    queue = RequestQueue(clock=SimClock())
    assert queue.next_arrival() is None
    queue.offer_batch([3.5])
    assert queue.next_arrival() == 3.5


def test_clear_counts_dropped_as_postponed():
    """Cleared requests were offered but never delivered: postponed."""
    queue = RequestQueue(clock=SimClock())
    queue.offer_batch([0.0, 0.1, 0.2])
    assert queue.clear() == 3
    assert queue.postponed == 3
    assert queue.clear() == 0  # idempotent, no double counting
    assert queue.postponed == 3


def test_clear_empties_queue_and_keeps_invariant():
    queue = RequestQueue(clock=SimClock())
    queue.offer_batch([0.1 * i for i in range(17)])
    assert queue.clear() == 17
    assert queue.postponed == 17
    assert len(queue) == 0
    assert_invariant(queue)


def test_drop_due_counts_postponed():
    queue = RequestQueue(clock=SimClock())
    queue.offer_batch([0.0, 0.2, 0.4, 5.0, 6.0])
    assert queue.drop_due(1.0) == 3
    assert queue.postponed == 3
    assert len(queue) == 2
    assert queue.next_arrival() == 5.0
    assert_invariant(queue)


def test_counters_invariant_across_mid_run_clear():
    """offered == taken + postponed + depth survives a clear()."""
    queue = RequestQueue(clock=SimClock(), policy=POLICY_CAP)
    queue.offer_batch([0.0, 0.1, 0.2, 0.3])
    queue.poll(1.0)
    queue.poll(1.0)
    queue.clear()  # rate-changing phase transition
    queue.offer_batch([1.0, 1.1])
    queue.poll(2.0)
    counters = queue.counters()
    assert counters == {"offered": 6, "taken": 3, "postponed": 2,
                        "depth": 1}
    assert counters["offered"] == counters["taken"] \
        + counters["postponed"] + counters["depth"]


def test_counters_invariant_with_cap_shedding():
    queue = RequestQueue(clock=SimClock(), policy=POLICY_CAP)
    queue.offer_batch([0.0, 0.5])
    queue.offer_batch([1.0, 1.5])  # sheds the stale pair
    queue.poll(2.0)
    counters = queue.counters()
    assert counters["offered"] == counters["taken"] \
        + counters["postponed"] + counters["depth"]


def test_clear_wakes_blocked_take():
    """A taker sleeping until a cleared request's arrival re-checks.

    White-box: record the condition waits.  The taker first waits for
    the (far-future) head arrival; after clear() it must wake and fall
    back to an indefinite wait instead of sleeping out the stale
    arrival, then exit promptly on shutdown.
    """
    queue = RequestQueue()  # real clock
    waits = []
    original_wait = queue._not_empty.wait

    def recording_wait(timeout=None):
        waits.append(timeout)
        return original_wait(timeout)

    queue._not_empty.wait = recording_wait
    queue.offer_batch([queue.clock.now() + 30.0])
    result = {}

    def taker():
        result["request"] = queue.take()

    thread = threading.Thread(target=taker, daemon=True)
    thread.start()
    time.sleep(0.1)
    assert waits and waits[0] > 1.0  # parked until the stale arrival
    assert queue.clear() == 1
    time.sleep(0.1)
    assert waits[-1] is None  # re-checked: no arrival left to wait for
    queue.shutdown()
    thread.join(2.0)
    assert not thread.is_alive()
    assert result["request"] is None


# -- batched take -----------------------------------------------------------


def test_pause_resume_shutdown():
    clock = SimClock()
    queue = RequestQueue(clock=clock)
    queue.offer_batch([0.0, 0.1])
    clock.run_until(1.0)
    queue.pause()
    assert queue.poll(1.0) is None
    assert queue.take_batch(4, timeout=0.0) == []
    queue.resume()
    assert len(queue.take_batch(4, timeout=0.0)) == 2
    queue.shutdown()
    assert queue.take_batch(4, timeout=None) == []
    assert_invariant(queue)


def test_take_batch_in_arrival_order():
    clock = SimClock()
    queue = RequestQueue(clock=clock)
    arrivals = [0.05 * i for i in range(20)]
    queue.offer_batch(arrivals)
    clock.run_until(1.0)
    batch = queue.take_batch(20, timeout=0.0)
    assert [r.arrival_time for r in batch] == arrivals
    assert_invariant(queue)


def test_take_batch_respects_max_n():
    clock = SimClock()
    queue = RequestQueue(clock=clock)
    queue.offer_batch([0.0] * 4 + [0.1] * 4)
    clock.run_until(1.0)
    first = queue.take_batch(5, timeout=0.0)
    rest = queue.take_batch(5, timeout=0.0)
    # Tied arrivals pop in offer (seq) order, nothing lost or duplicated.
    assert [r.seq for r in first] == [1, 2, 3, 4, 5]
    assert [r.seq for r in rest] == [6, 7, 8]
    assert_invariant(queue)


def test_take_batch_only_due_requests():
    clock = SimClock()
    queue = RequestQueue(clock=clock)
    queue.offer_batch([0.0, 0.5, 99.0])
    clock.run_until(1.0)
    batch = queue.take_batch(10, timeout=0.0)
    assert [r.arrival_time for r in batch] == [0.0, 0.5]
    assert len(queue) == 1
    assert_invariant(queue)


def test_take_batch_rejects_nonpositive():
    queue = RequestQueue(clock=SimClock())
    with pytest.raises(ConfigurationError):
        queue.take_batch(0)
    with pytest.raises(ConfigurationError):
        queue.take_batch(-1)


def test_take_batch_timeout_returns_empty():
    queue = RequestQueue()  # real clock
    assert queue.take_batch(8, timeout=0.01) == []


def test_take_delegates_to_batched_path():
    queue = RequestQueue(clock=SimClock())
    queue.offer_batch([0.0, 0.1])
    request = queue.take(timeout=0.0)
    assert request is not None and request.arrival_time == 0.0
    assert_invariant(queue)


# -- wakeups: notify(len(batch)), no lost wakeups ----------------------------


def test_offer_batch_wakes_enough_blocked_takers():
    """notify(len(batch)) must wake enough takers to drain the batch."""
    queue = RequestQueue()  # real clock: arrivals in the past
    results = []
    lock = threading.Lock()

    def taker():
        got = queue.take_batch(1, timeout=5.0)
        with lock:
            results.extend(got)

    threads = [threading.Thread(target=taker) for _ in range(6)]
    for thread in threads:
        thread.start()
    time.sleep(0.05)  # let every taker park on the condvar
    queue.offer_batch([0.0] * 6)
    for thread in threads:
        thread.join(timeout=5.0)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 6
    assert_invariant(queue)


def test_shutdown_wakes_all_blocked_batch_takers():
    queue = RequestQueue()
    done = threading.Event()

    def taker():
        queue.take_batch(4, timeout=None)
        done.set()

    thread = threading.Thread(target=taker)
    thread.start()
    time.sleep(0.02)
    queue.shutdown()
    assert done.wait(timeout=2.0)
    thread.join(timeout=2.0)


# -- seeded model: the queue against a plain-list reference -----------------


class ReferenceQueue:
    """The queue's contract as a plain list of ``(arrival, seq)``."""

    def __init__(self, policy):
        self.policy = policy
        self.pending = []
        self.seq = 0
        self.offered = self.taken = self.postponed = 0

    def offer_batch(self, arrivals):
        shed = 0
        if arrivals and self.policy == POLICY_CAP:
            while self.pending and self.pending[0][0] < arrivals[0]:
                self.pending.pop(0)
                shed += 1
        for arrival in arrivals:
            self.seq += 1
            self.pending.append((arrival, self.seq))
        self.offered += len(arrivals)
        self.postponed += shed
        return shed

    def take(self, now, max_n):
        batch = []
        while (self.pending and len(batch) < max_n
               and self.pending[0][0] <= now):
            batch.append(self.pending.pop(0))
        self.taken += len(batch)
        return batch

    def counters(self):
        return {"offered": self.offered, "taken": self.taken,
                "postponed": self.postponed, "depth": len(self.pending)}


def seeded_schedule(seed, seconds=8, rate=40):
    """Deterministic per-second arrival batches (uneven, with ties)."""
    rng = make_rng(seed, "queue-model")
    schedule = []
    for second in range(seconds):
        count = rng.randint(0, rate)
        batch = sorted(second + rng.random() for _ in range(count))
        if batch and rng.random() < 0.5:
            batch.append(batch[-1])  # equal arrival times tie-break on seq
        if schedule and schedule[-1] and rng.random() < 0.5:
            # A batch starting at the previous one's last arrival: under
            # cap, a request tied with the batch start is not stale.
            batch.insert(0, schedule[-1][-1])
        schedule.append(batch)
    return schedule


@pytest.mark.parametrize("drain", ["poll", "take_batch"])
@pytest.mark.parametrize("policy", [POLICY_CAP, POLICY_BACKLOG])
def test_matches_reference_model_on_seeded_schedules(policy, drain):
    """Identical counters and pop order; the invariant at every step."""
    postponed = 0
    for seed in range(6):
        clock = SimClock()
        queue = RequestQueue(clock=clock, policy=policy)
        model = ReferenceQueue(policy)
        rng = make_rng(seed, "queue-model-serve")
        for second, batch in enumerate(seeded_schedule(seed)):
            assert queue.offer_batch(batch) == model.offer_batch(batch)
            assert queue.counters() == model.counters()
            assert_invariant(queue)
            # Serve a random share at a random instant inside the
            # second, so some requests are not yet due and some go stale.
            now = second + rng.random()
            clock.run_until(now)
            for _ in range(rng.randint(0, max(1, len(batch)))):
                if drain == "poll":
                    request = queue.poll(now)
                    got = [] if request is None else [request]
                    expected = model.take(now, 1)
                else:
                    max_n = rng.randint(1, 8)
                    got = queue.take_batch(max_n, timeout=0.0)
                    expected = model.take(now, max_n)
                assert [(r.arrival_time, r.seq) for r in got] == expected
                assert queue.counters() == model.counters()
                assert_invariant(queue)
        postponed += model.postponed
    # The schedules really shed under cap, and never under backlog.
    assert (postponed > 0) == (policy == POLICY_CAP)
