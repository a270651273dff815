"""Threaded workers yield the GIL between transactions.

A closed-loop worker is CPU-bound, so without a yield CPython's switch
interval (5 ms) forces it off wherever it happens to be, often inside a
transaction that holds row locks.  Each worker instead yields once per
:data:`repro.clock.YIELD_INTERVAL` of wall time, after a sample is
recorded, when its transaction has committed or rolled back.
"""

import os
import random
import statistics
import sys
import threading
import time
import types

import pytest

from repro import clock as clock_module
from repro.benchmarks.tpcc import TpccBenchmark
from repro.clock import RealClock
from repro.core import (Phase, RATE_DISABLED, ThreadedExecutor,
                        WorkloadConfiguration, WorkloadManager)
from repro.core import executors as executors_module
from repro.engine import Database

from ..conftest import MiniBenchmark


class _WallClock:
    """Stands in for the ``time`` module inside ``repro.clock``; a sleep
    is logged as a yield, and the time it costs is counted as 0."""

    def __init__(self, events) -> None:
        self.now = 0.0
        self.events = events

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.events.append(("sleep", self.now))


class _MonotonicClock(RealClock):
    """Real time read through this module's ``time``, so the run's own
    pacing and phase ends ignore the fake wall clock."""

    def now(self) -> float:
        return time.monotonic()


def _closed_loop(bench, workers, clock=None):
    cfg = WorkloadConfiguration(
        benchmark=bench.name, workers=workers, seed=1,
        phases=[Phase(duration=1, rate=RATE_DISABLED)])
    manager = WorkloadManager(bench, cfg, clock=clock)
    executor = ThreadedExecutor(bench.database, clock=clock)
    executor.add_workload(manager)
    return manager, executor


def test_workers_yield_once_per_interval_between_transactions(
        db, monkeypatch):
    events = []
    wall = _WallClock(events)
    monkeypatch.setattr(clock_module, "time", wall)
    monkeypatch.setattr(clock_module, "YIELD_INTERVAL", 1.0)
    monkeypatch.setattr(clock_module.os, "sched_yield",
                        lambda: events.append(("yield", wall.now)))
    run_with_resilience = executors_module.run_with_resilience

    def transaction(*args, **kwargs):
        events.append(("begin", wall.now))
        outcome = run_with_resilience(*args, **kwargs)
        wall.now += 0.4  # each transaction costs 0.4 s of wall time
        return outcome

    monkeypatch.setattr(executors_module, "run_with_resilience",
                        transaction)
    bench = MiniBenchmark(db, seed=42)
    bench.load()
    manager, executor = _closed_loop(bench, 1, _MonotonicClock())
    assert executor.run(timeout=10)["ok"]
    transactions = sum(1 for kind, _ in events if kind == "begin")
    yields = [(kind, at) for kind, at in events if kind != "begin"]
    assert transactions >= 30
    # One yield after the first transaction that ends at or past each
    # interval, never inside a transaction; every fourth one sleeps.
    assert [at for _, at in yields] == pytest.approx(
        [1.2 * (i + 1) for i in range(transactions // 3)])
    assert [kind for kind, _ in yields[:8]] == [
        "yield", "yield", "yield", "sleep"] * 2
    assert [kind for kind, _ in events[:8]] == [
        "begin", "begin", "begin", "yield", "begin", "begin", "begin",
        "yield"]
    assert manager.results.committed() == transactions


def test_a_yielding_worker_holds_no_engine_lock(monkeypatch):
    bench = TpccBenchmark(Database(), scale_factor=1, seed=7, districts=3,
                          customers_per_district=30, items=150,
                          initial_orders=30)
    bench.load()
    locks = bench.database.lock_manager
    yields = []
    holding = []

    def checked(release):
        def checked_release(*args):
            me = threading.get_ident()
            with locks._mutex:
                if me in locks._txn_thread.values():
                    holding.append(sorted(map(repr, locks._held)))
            yields.append((me, release))
            release(*args)
        return checked_release

    monkeypatch.setattr(clock_module.os, "sched_yield",
                        checked(os.sched_yield))
    monkeypatch.setattr(clock_module, "time", types.SimpleNamespace(
        monotonic=time.monotonic, sleep=checked(time.sleep)))
    manager, executor = _closed_loop(bench, 2)
    assert executor.run(timeout=15)["ok"]
    assert holding == []
    # Both workers yielded, many times over; two workers that may run on
    # several CPUs sleep at every yield.
    assert len({me for me, _release in yields}) == 2
    assert len(yields) >= 100
    if clock_module._cpus() > 1:
        assert {release for _me, release in yields} == {time.sleep}
    assert manager.results.committed() > 0


def _late_wakeups(bench, sleeper_cpu=None, workers=1):
    """How late a thread sleeping 2.5-7.5 ms at a time wakes while a
    closed-loop run keeps the GIL busy; with ``sleeper_cpu`` the sleeper
    runs on that CPU and the workers on the others.  The random sleeps
    spread its wakes evenly over the workers' cycles of yields."""
    late = []
    stop = threading.Event()
    rng = random.Random(1)

    def sleeper():
        if sleeper_cpu is not None:
            os.sched_setaffinity(0, {sleeper_cpu})
        while not stop.is_set():
            seconds = rng.uniform(0.0025, 0.0075)
            started = time.monotonic()
            time.sleep(seconds)
            late.append(time.monotonic() - started - seconds)

    _manager, executor = _closed_loop(bench, workers)
    interval = sys.getswitchinterval()
    affinity = os.sched_getaffinity(0) if sleeper_cpu is not None else None
    sys.setswitchinterval(0.005)
    thread = threading.Thread(target=sleeper, daemon=True)
    thread.start()
    try:
        if affinity is not None:
            # Worker threads inherit this (the starting) thread's CPUs.
            os.sched_setaffinity(0, affinity - {sleeper_cpu})
        assert executor.run(timeout=10)["ok"]
    finally:
        stop.set()
        thread.join(2.0)
        sys.setswitchinterval(interval)
        if affinity is not None:
            os.sched_setaffinity(0, affinity)
    assert not thread.is_alive()
    return late


def test_a_thread_waking_during_a_closed_loop_run_gets_the_gil_soon(db):
    # Without the yields the sleeper waits out the whole switch interval
    # (~5 ms late) each time it wakes.
    bench = MiniBenchmark(db, seed=42)
    bench.load()
    late = _late_wakeups(bench)
    assert len(late) >= 10
    assert statistics.median(late) < 0.0025


def test_a_thread_waking_during_a_two_worker_run_gets_the_gil_soon(db):
    # Two workers and the sleeper all wait for the GIL.  Were the workers
    # to sleep only at every fourth yield, the sleeper could lose the GIL
    # to the other worker at each sleep, in step with the order CPython
    # wakes its waiters in, for hundreds of ms on several CPUs.
    bench = MiniBenchmark(db, seed=42)
    bench.load()
    late = _late_wakeups(bench, workers=2)
    assert len(late) >= 10
    assert statistics.median(late) < 0.0025


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                    or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs and thread affinity")
def test_a_thread_waking_on_another_cpu_gets_the_gil_soon(db):
    # A waiter on another CPU loses every race for the GIL to a worker
    # that only calls sched_yield (often hundreds of ms late, so it wakes
    # a handful of times), and waits out the switch interval (~5 ms late)
    # behind one that never yields.  It takes the GIL at the lone
    # worker's next sleep, at most SLEEP_EVERY yields away.
    bench = MiniBenchmark(db, seed=42)
    bench.load()
    late = _late_wakeups(bench, sleeper_cpu=max(os.sched_getaffinity(0)))
    assert len(late) >= 50
    assert statistics.median(late) < 0.004
