"""Fault injection + resilience wired through the executors.

The acceptance story of the resilience subsystem: with a nonzero abort
profile, retries recover the injected failures (goodput close to the
fault-free run), the queue accounting invariant survives, and the
metrics payload's resilience counters reconcile exactly with the
injector's ground-truth log.
"""

import pytest

from repro.clock import SimClock
from repro.core import (Phase, SimulatedExecutor, ThreadedExecutor,
                        WorkloadConfiguration, WorkloadManager)
from repro.engine import Database

from ..conftest import MiniBenchmark


def build(db, phases, workers=4, seed=1, tenant="tenant-0"):
    db = db or Database()
    bench = MiniBenchmark(db, seed=42)
    bench.load()
    clock = SimClock()
    cfg = WorkloadConfiguration(benchmark="mini", workers=workers, seed=seed,
                                tenant=tenant, phases=phases)
    manager = WorkloadManager(bench, cfg, clock=clock)
    executor = SimulatedExecutor(db, "inmem", clock)
    executor.add_workload(manager)
    return executor, manager


ABORTS = {"abort_probability": 0.05}
RETRIES = {"max_attempts": 4, "backoff_base": 0.001, "backoff_max": 0.01}

CHAOS_ENV = ("REPRO_CHAOS_ABORTS", "REPRO_CHAOS_LATENCY",
             "REPRO_CHAOS_LOCK_TIMEOUTS", "REPRO_CHAOS_DISCONNECTS",
             "REPRO_CHAOS_RETRIES")


@pytest.fixture(autouse=True)
def _pin_chaos_env(monkeypatch):
    """These tests configure their own fault/retry story; the CI chaos
    job's ``REPRO_CHAOS_*`` defaults must not leak into it."""
    for var in CHAOS_ENV:
        monkeypatch.delenv(var, raising=False)


def test_faults_without_retries_pollute_results(db):
    executor, manager = build(db, [Phase(duration=10, rate=100)])
    manager.set_fault_profile(ABORTS)
    executor.run()
    injected = manager.faults.counters()["abort"]
    assert injected > 0
    # Every injected abort became a recorded aborted sample.
    assert manager.results.aborted() >= injected


def test_retries_recover_injected_faults(db):
    executor, manager = build(db, [Phase(duration=10, rate=100)])
    manager.set_fault_profile(ABORTS)
    manager.set_resilience(RETRIES)
    executor.run()
    injected = manager.faults.counters()["total"]
    assert injected > 0
    stats = manager.resilience.stats.snapshot()
    # A faulted request either recovered through retries or exhausted
    # them.  p=0.05 with 4 attempts leaves p^3 odds of exhaustion per
    # faulted request, so >= 99% of faulted requests must recover.
    faulted = stats["recovered"] + stats["exhausted"]
    assert faulted > 0
    assert stats["recovered"] >= 0.99 * faulted
    assert manager.results.committed() == 1000 - manager.results.aborted()


def test_goodput_within_tolerance_of_fault_free(db):
    clean_exec, clean = build(None, [Phase(duration=10, rate=100)])
    clean_exec.run()
    faulty_exec, faulty = build(None, [Phase(duration=10, rate=100)])
    faulty.set_fault_profile(ABORTS)
    faulty.set_resilience(RETRIES)
    faulty_exec.run()
    assert faulty.results.committed() >= 0.95 * clean.results.committed()


def test_queue_invariant_holds_under_faults(db):
    executor, manager = build(db, [Phase(duration=10, rate=100)])
    manager.set_fault_profile({"abort_probability": 0.1,
                               "disconnect_probability": 0.05})
    manager.set_resilience(RETRIES)
    executor.run()
    counters = manager.queue.counters()
    assert counters["offered"] == (counters["taken"]
                                   + counters["postponed"]
                                   + counters["depth"])


def test_metrics_counters_match_injector_ground_truth(db):
    executor, manager = build(db, [Phase(duration=10, rate=100)])
    manager.set_fault_profile(ABORTS)
    manager.set_resilience(RETRIES)
    executor.run()
    payload = manager.metrics()
    resilience = payload["resilience"]
    assert resilience["faults"]["injected"] == manager.faults.counters()
    assert resilience["retries"] == manager.resilience.stats.snapshot()
    assert resilience["faults"]["injected"]["total"] == \
        len(manager.faults.log())
    assert resilience["breaker"]["state"] == "closed"


def test_same_seed_same_fault_schedule(db):
    first_exec, first = build(None, [Phase(duration=5, rate=80)])
    first.set_fault_profile(ABORTS)
    first_exec.run()
    second_exec, second = build(None, [Phase(duration=5, rate=80)])
    second.set_fault_profile(ABORTS)
    second_exec.run()
    assert first.faults.schedule() == second.faults.schedule()
    assert first.faults.schedule()  # and it is not trivially empty


def test_injected_waits_surface_as_latency(db):
    executor, manager = build(db, [Phase(duration=5, rate=50)])
    manager.set_fault_profile({"latency_probability": 1.0})
    executor.run()
    # Every attempt carries a spike of at least latency_min seconds.
    quantiles = manager.results.metrics.latency_percentiles()
    assert quantiles["p50"] >= 0.05


def test_breaker_sheds_as_postponed(db):
    executor, manager = build(db, [Phase(duration=20, rate=100)])
    manager.set_fault_profile({"abort_probability": 1.0})
    manager.set_resilience({"breaker": {"error_threshold": 0.5,
                                        "min_samples": 10,
                                        "cooldown": 1.0}})
    executor.run()
    stats = manager.resilience.stats.snapshot()
    assert manager.resilience.breaker.describe()["opened_count"] > 0
    assert stats["breaker_shed"] > 0
    counters = manager.queue.counters()
    assert counters["offered"] == (counters["taken"]
                                   + counters["postponed"]
                                   + counters["depth"])
    # Shed requests were counted into the results' postponed tally too.
    assert manager.results.postponed >= stats["breaker_shed"]


def test_per_procedure_policy_only_retries_selected_txn(db):
    executor, manager = build(db, [Phase(duration=10, rate=60)])
    manager.set_fault_profile({"abort_probability": 1.0})
    manager.set_resilience({"per_procedure": {"Read": {"max_attempts": 2}}})
    executor.run()
    stats = manager.resilience.stats.snapshot()
    assert stats["retried"] > 0
    # Write requests fail on attempt one (default policy is 1 attempt),
    # so retries can never exceed the number of Read requests.
    reads = manager.results.metrics.txn_counts().get("Read", {})
    read_requests = sum(reads.values())
    assert stats["retried"] <= read_requests


@pytest.mark.slow
def test_threaded_executor_recovers_faults(db):
    bench = MiniBenchmark(db, seed=42)
    bench.load()
    cfg = WorkloadConfiguration(benchmark="mini", workers=4, seed=1,
                                phases=[Phase(duration=2, rate=50)])
    manager = WorkloadManager(bench, cfg)
    manager.set_fault_profile(ABORTS)
    manager.set_resilience(RETRIES)
    executor = ThreadedExecutor(db)
    executor.add_workload(manager)
    report = executor.run(timeout=15)
    assert report["ok"]
    injected = manager.faults.counters()["total"]
    stats = manager.resilience.stats.snapshot()
    assert injected > 0
    assert stats["recovered"] > 0
    counters = manager.queue.counters()
    assert counters["offered"] == (counters["taken"]
                                   + counters["postponed"]
                                   + counters["depth"])


# -- breaker admission is per request --------------------------------------

BREAKER = {"breaker": {"error_threshold": 0.5, "min_samples": 10,
                       "cooldown": 0.5}}


def _log_outcome_states(manager):
    """Log the breaker state each recorded outcome lands in."""
    breaker = manager.resilience.breaker
    record = breaker.record
    states = []

    def logged(ok, now=None):
        states.append(breaker.state)
        record(ok, now)

    breaker.record = logged
    return states


def _assert_one_probe_per_window(manager, states):
    opened = manager.resilience.breaker.describe()["opened_count"]
    assert opened >= 2
    # No outcome is recorded while the breaker is open: every request it
    # admitted ran before it opened or as a half-open probe.
    assert "open" not in states
    # Each probe fails (every attempt aborts) and reopens the breaker, so
    # every opening after the first follows exactly one probe.
    assert states.count("half-open") == opened - 1
    counters = manager.queue.counters()
    assert counters["offered"] == (counters["taken"]
                                   + counters["postponed"]
                                   + counters["depth"])


def test_sim_breaker_admits_one_probe_per_window(db):
    executor, manager = build(db, [Phase(duration=3, rate=400)])
    manager.set_fault_profile({"abort_probability": 1.0})
    manager.set_resilience(BREAKER)
    states = _log_outcome_states(manager)
    executor.run()
    _assert_one_probe_per_window(manager, states)


@pytest.mark.slow
def test_threaded_breaker_admits_one_probe_per_window(db):
    bench = MiniBenchmark(db, seed=42)
    bench.load()
    cfg = WorkloadConfiguration(benchmark="mini", workers=1, seed=1,
                                phases=[Phase(duration=2, rate=400)])
    manager = WorkloadManager(bench, cfg)
    manager.set_fault_profile({"abort_probability": 1.0})
    manager.set_resilience(BREAKER)
    states = _log_outcome_states(manager)
    executor = ThreadedExecutor(db)
    executor.add_workload(manager)
    assert executor.run(timeout=15)["ok"]
    _assert_one_probe_per_window(manager, states)


# A half-open probe admission that finds no due request is handed back:
# at a sparse rate the worker used to keep the probe slot and the breaker
# stayed half-open, shedding every later request, after one opening.
SPARSE_BREAKER = {"breaker": {"error_threshold": 0.5, "min_samples": 2,
                              "cooldown": 0.1}}


def test_sim_breaker_keeps_probing_at_a_sparse_rate(db):
    executor, manager = build(db, [Phase(duration=20, rate=1)], workers=1)
    manager.set_fault_profile({"abort_probability": 1.0})
    manager.set_resilience(SPARSE_BREAKER)
    executor.run()
    # Every arrival after the first opening is one failing probe.
    assert manager.resilience.breaker.describe()["opened_count"] >= 10


@pytest.mark.slow
def test_threaded_breaker_keeps_probing_at_a_sparse_rate(db):
    bench = MiniBenchmark(db, seed=42)
    bench.load()
    cfg = WorkloadConfiguration(benchmark="mini", workers=1, seed=1,
                                phases=[Phase(duration=3, rate=2)])
    manager = WorkloadManager(bench, cfg)
    manager.set_fault_profile({"abort_probability": 1.0})
    manager.set_resilience(SPARSE_BREAKER)
    executor = ThreadedExecutor(db)
    executor.add_workload(manager)
    assert executor.run(timeout=15)["ok"]
    assert manager.resilience.breaker.describe()["opened_count"] >= 3
