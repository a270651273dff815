"""Threaded executor: real workers, wall-clock rate control.

These are short integration runs (a few wall seconds total) proving the
OLTP-Bench architecture works live, not just in simulation.
"""

import pytest

from repro.core import (Phase, RATE_DISABLED, ThreadedExecutor,
                        WorkloadConfiguration, WorkloadManager)
from repro.errors import ConfigurationError

from ..conftest import MiniBenchmark, call_into_run


def run_threaded(db, phases, workers=4, timeout=15):
    bench = MiniBenchmark(db, seed=42)
    bench.load()
    cfg = WorkloadConfiguration(benchmark="mini", workers=workers, seed=1,
                                phases=phases)
    manager = WorkloadManager(bench, cfg)
    executor = ThreadedExecutor(db)
    executor.add_workload(manager)
    executor.run(timeout=timeout)
    return manager


@pytest.mark.slow
def test_threaded_rate_control_hits_target(db):
    manager = run_threaded(db, [Phase(duration=3, rate=200)])
    throughput = manager.results.throughput()
    assert manager.results.committed() >= 550  # 3s * 200tps, small slack
    assert 160 <= throughput <= 220


@pytest.mark.slow
def test_threaded_never_exceeds_rate(db):
    manager = run_threaded(db, [Phase(duration=3, rate=150)])
    for _second, count in manager.results.per_second_throughput():
        assert count <= 165  # bucket-boundary slack only


@pytest.mark.slow
def test_threaded_closed_loop_runs_flat_out(db):
    manager = run_threaded(db, [
        Phase(duration=2, rate=RATE_DISABLED)], workers=2)
    assert manager.results.throughput() > 500  # engine-speed, no throttle


@pytest.mark.slow
def test_threaded_dynamic_rate_change(db):
    bench = MiniBenchmark(db, seed=42)
    bench.load()
    cfg = WorkloadConfiguration(
        benchmark="mini", workers=4, seed=1,
        phases=[Phase(duration=4, rate=200)])
    manager = WorkloadManager(bench, cfg)
    executor = ThreadedExecutor(db)
    executor.add_workload(manager)
    # Lands between the ticks at run start + 1 s and + 2 s: the last two
    # of the run's four seconds run at 40/s, so one whole clock second
    # (a series entry that is neither first nor last) lies inside them.
    change = call_into_run(manager, 1.5, lambda: manager.set_rate(40))
    executor.run(timeout=15)
    change.join(5.0)
    assert not change.is_alive()
    series = [count for _s, count in manager.results.per_second_throughput()]
    assert max(series) > 150
    assert min(series[1:-1] or series) < 80


@pytest.mark.slow
def test_threaded_stop_interrupts_run(db):
    import threading

    bench = MiniBenchmark(db, seed=42)
    bench.load()
    cfg = WorkloadConfiguration(
        benchmark="mini", workers=2, seed=1,
        phases=[Phase(duration=60, rate=50)])
    manager = WorkloadManager(bench, cfg)
    executor = ThreadedExecutor(db)
    executor.add_workload(manager)
    threading.Timer(1.0, executor.stop).start()
    executor.run(timeout=30)
    assert manager.finished
    assert manager.results.committed() < 200


@pytest.mark.slow
def test_stop_interrupts_think_time(db):
    """A worker sleeping through a long think time wakes at the end of
    the run: no leaked thread, and its sample is flushed."""
    import time

    bench = MiniBenchmark(db, seed=42)
    bench.load()
    cfg = WorkloadConfiguration(
        benchmark="mini", workers=1, seed=1,
        phases=[Phase(duration=1, rate=RATE_DISABLED, think_time=8)])
    manager = WorkloadManager(bench, cfg)
    executor = ThreadedExecutor(db)
    executor.add_workload(manager)
    started = time.monotonic()
    report = executor.run(timeout=15)
    elapsed = time.monotonic() - started
    assert report["ok"] and report["leaked_threads"] == []
    assert manager.results.committed() >= 1
    assert elapsed < 4.0


def test_run_without_workloads_rejected(db):
    with pytest.raises(ConfigurationError):
        ThreadedExecutor(db).run()


@pytest.mark.slow
def test_threaded_executor_reusable_across_runs(db):
    """Successive run() calls start fresh threads, not accumulated ones."""
    bench = MiniBenchmark(db, seed=42)
    bench.load()
    executor = ThreadedExecutor(db)

    def add(seed):
        cfg = WorkloadConfiguration(
            benchmark="mini", workers=2, seed=seed,
            phases=[Phase(duration=1, rate=50)])
        return executor.add_workload(WorkloadManager(bench, cfg))

    first = add(1)
    report1 = executor.run(timeout=10)
    assert report1["ok"] and report1["leaked_threads"] == []
    assert report1["workloads"] == 1
    assert report1["worker_threads"] == 2
    assert first.finished

    second = add(2)
    report2 = executor.run(timeout=10)
    # Only the fresh manager's workers: no accumulation from run one.
    assert report2["workloads"] == 1
    assert report2["worker_threads"] == 2
    assert report2["leaked_threads"] == []
    assert second.finished
    assert executor.last_run_report is report2
    assert len(executor._threads) == 2  # reset per run, not appended


def test_run_again_without_fresh_workload_rejected(db):
    bench = MiniBenchmark(db, seed=42)
    bench.load()
    cfg = WorkloadConfiguration(benchmark="mini", workers=1, seed=1,
                                phases=[Phase(duration=0.2, rate=20)])
    executor = ThreadedExecutor(db)
    executor.add_workload(WorkloadManager(bench, cfg))
    executor.run(timeout=10)
    with pytest.raises(ConfigurationError):
        executor.run(timeout=10)  # every added workload already ran


# -- batched hot path (batched take + buffered recording) ----------------


@pytest.mark.slow
def test_batched_run_flushes_all_samples(db):
    """No tail samples may be stranded in worker-local buffers."""
    manager = run_threaded(db, [Phase(duration=2, rate=200)])
    counters = manager.queue.counters()
    assert counters["offered"] == (counters["taken"]
                                   + counters["postponed"]
                                   + counters["depth"])
    # Every taken request became a recorded sample (buffers all flushed).
    assert len(manager.results) == counters["taken"]
    assert manager.results.recorder_stats()["sample_batches"] >= 1


@pytest.mark.slow
def test_every_request_counts_one_attempt_under_default_policy(
        db, monkeypatch):
    """Batched takes run each request through the attempt loop: with no
    retries (the chaos job's retry default unset), each recorded sample
    is exactly one counted attempt, injected faults or not."""
    monkeypatch.delenv("REPRO_CHAOS_RETRIES", raising=False)
    manager = run_threaded(db, [Phase(duration=1, rate=300)])
    assert len(manager.results) > 0
    stats = manager.resilience.stats.snapshot()
    assert stats["attempts"] == len(manager.results)
