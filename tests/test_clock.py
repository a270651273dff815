"""Clock abstractions: real and simulated time, and the GIL yielder."""

import statistics
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import clock as clock_module
from repro.clock import GilYielder, RealClock, SimClock


def test_real_clock_monotonic():
    clock = RealClock()
    a = clock.now()
    clock.sleep(0.01)
    assert clock.now() > a
    clock.sleep(-1)  # negative sleeps are no-ops


def test_sim_clock_starts_at_given_time():
    assert SimClock(5.0).now() == 5.0


def test_sim_clock_rejects_sleep():
    with pytest.raises(RuntimeError):
        SimClock().sleep(1)


def test_events_run_in_time_order():
    clock = SimClock()
    log = []
    clock.call_at(3.0, lambda: log.append("c"))
    clock.call_at(1.0, lambda: log.append("a"))
    clock.call_at(2.0, lambda: log.append("b"))
    clock.run()
    assert log == ["a", "b", "c"]
    assert clock.now() == 3.0


def test_same_time_events_fifo():
    clock = SimClock()
    log = []
    for i in range(5):
        clock.call_at(1.0, lambda i=i: log.append(i))
    clock.run()
    assert log == [0, 1, 2, 3, 4]


def test_past_events_clamped_to_now():
    clock = SimClock(10.0)
    fired = []
    clock.call_at(5.0, lambda: fired.append(clock.now()))
    clock.run()
    assert fired == [10.0]


def test_call_later():
    clock = SimClock(2.0)
    fired = []
    clock.call_later(3.0, lambda: fired.append(clock.now()))
    clock.run()
    assert fired == [5.0]


def test_events_scheduled_by_events():
    clock = SimClock()
    log = []

    def cascade(depth):
        log.append((clock.now(), depth))
        if depth < 3:
            clock.call_later(1.0, lambda: cascade(depth + 1))

    clock.call_at(0.0, lambda: cascade(0))
    clock.run()
    assert log == [(0.0, 0), (1.0, 1), (2.0, 2), (3.0, 3)]


def test_run_until_leaves_future_events():
    clock = SimClock()
    fired = []
    clock.call_at(1.0, lambda: fired.append(1))
    clock.call_at(10.0, lambda: fired.append(10))
    clock.run_until(5.0)
    assert fired == [1]
    assert clock.now() == 5.0
    assert clock.pending() == 1
    clock.run()
    assert fired == [1, 10]


class _WallClock:
    """Stands in for the ``time`` module inside ``repro.clock``."""

    def __init__(self) -> None:
        self.now = 0.0

    def monotonic(self) -> float:
        return self.now


@pytest.mark.parametrize("drain", ["run_until", "run"])
def test_long_runs_yield_the_gil_every_interval(monkeypatch, drain):
    wall = _WallClock()
    yields = []
    monkeypatch.setattr(clock_module, "time", wall)
    monkeypatch.setattr(clock_module, "YIELD_INTERVAL", 1.0)
    monkeypatch.setattr(clock_module.os, "sched_yield",
                        lambda: yields.append(wall.now))
    clock = SimClock()
    fired = []

    def event(i):
        wall.now += 0.4  # each event costs 0.4 s of wall time
        fired.append(i)

    for i in range(10):
        clock.call_at(float(i), lambda i=i: event(i))
    if drain == "run":
        clock.run()
    else:
        clock.run_until(20.0)
    # One yield after the first event that ends at or past each interval,
    # and virtual time and event order as without yields.
    assert yields == pytest.approx([1.2, 2.4, 3.6])
    assert fired == list(range(10))
    assert clock.now() == (9.0 if drain == "run" else 20.0)


def test_a_lone_workers_every_fourth_yield_sleeps(monkeypatch):
    wall = _WallClock()
    kinds = []
    wall.sleep = lambda seconds: kinds.append(("sleep", seconds))
    monkeypatch.setattr(clock_module, "time", wall)
    monkeypatch.setattr(clock_module.os, "sched_yield",
                        lambda: kinds.append(("yield", None)))
    yielder = GilYielder(workers=1)
    for _ in range(10):
        wall.now += 0.002
        yielder.maybe_yield()
    # The rule counts yields; it does not time them.
    three = [("yield", None)] * 3
    sleep = ("sleep", clock_module.HANDOFF_SLEEP)
    assert kinds == three + [sleep] + three + [sleep] + three[:2]


def test_a_thread_waking_during_a_long_run_gets_the_gil_soon():
    # Without the yields the sleeper waits out the whole switch interval
    # (~5 ms late) each time it wakes.
    late = []
    stop = threading.Event()

    def sleeper():
        while not stop.is_set():
            started = time.monotonic()
            time.sleep(0.005)
            late.append(time.monotonic() - started - 0.005)

    def busy():
        total = 0
        for i in range(2000):
            total += i

    clock = SimClock()
    for i in range(4000):
        clock.call_at(i * 0.001, busy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(0.005)
    thread = threading.Thread(target=sleeper, daemon=True)
    thread.start()
    try:
        clock.run()
    finally:
        stop.set()
        thread.join(2.0)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert len(late) >= 10
    assert statistics.median(late) < 0.0025


def test_step_returns_false_when_empty():
    clock = SimClock()
    assert clock.step() is False
    clock.call_at(1.0, lambda: None)
    assert clock.step() is True
    assert clock.step() is False


@given(times=st.lists(st.floats(min_value=0, max_value=1000,
                                allow_nan=False), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_property_events_fire_in_nondecreasing_time_order(times):
    clock = SimClock()
    fired = []
    for when in times:
        clock.call_at(when, lambda: fired.append(clock.now()))
    clock.run()
    assert fired == sorted(fired)
    assert len(fired) == len(times)
