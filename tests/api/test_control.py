"""In-process control facade: verbs, feedback, validation."""

import pytest

from repro.api import ControlApi
from repro.clock import SimClock
from repro.core import (Phase, SimulatedExecutor, WorkloadConfiguration,
                        WorkloadManager)
from repro.errors import ApiError

from ..conftest import MiniBenchmark


@pytest.fixture
def setup(db):
    bench = MiniBenchmark(db, seed=42)
    bench.load()
    clock = SimClock()
    cfg = WorkloadConfiguration(
        benchmark="mini", workers=4, seed=1, tenant="t1",
        phases=[Phase(duration=30, rate=50)])
    manager = WorkloadManager(bench, cfg, clock=clock)
    executor = SimulatedExecutor(db, "inmem", clock)
    executor.add_workload(manager)
    control = ControlApi()
    control.register(manager)
    return control, manager, executor


def test_register_and_tenants(setup):
    control, _manager, _executor = setup
    assert control.tenants() == ["t1"]


def test_duplicate_registration_rejected(setup):
    control, manager, _executor = setup
    with pytest.raises(ApiError):
        control.register(manager)


def test_unknown_tenant_rejected(setup):
    control, _manager, _executor = setup
    with pytest.raises(ApiError):
        control.status("ghost")


def test_set_rate(setup):
    control, manager, _executor = setup
    response = control.set_rate("t1", 120)
    assert response == {"ok": True, "rate": 120}
    assert manager.current_rate() == 120


def test_set_rate_invalid(setup):
    control, _manager, _executor = setup
    with pytest.raises(ApiError):
        control.set_rate("t1", -5)


def test_set_weights(setup):
    control, manager, _executor = setup
    response = control.set_weights("t1", {"Write": 100})
    assert response["ok"]
    assert manager.current_weights() == {"Write": 100}
    with pytest.raises(ApiError):
        control.set_weights("t1", {"Ghost": 100})


def test_preset(setup):
    control, manager, _executor = setup
    control.set_preset("t1", "read-only")
    assert manager.current_weights() == {"Read": 100.0}
    with pytest.raises(ApiError):
        control.set_preset("t1", "nope")
    assert set(control.presets("t1")) == {
        "default", "read-only", "super-writes"}


def test_pause_resume(setup):
    control, manager, _executor = setup
    control.pause("t1")
    assert manager.paused
    control.resume("t1")
    assert not manager.paused


def test_think_time(setup):
    control, manager, _executor = setup
    control.set_think_time("t1", 0.25)
    assert manager.current_think_time() == 0.25
    with pytest.raises(ApiError):
        control.set_think_time("t1", -1)


def test_status_feedback_includes_instantaneous_metrics(setup):
    control, manager, executor = setup
    executor.run(until=6.0)
    status = control.status("t1", now=6.0)
    assert status["throughput"] == pytest.approx(50, rel=0.1)
    assert status["avg_latency"] > 0
    assert "Read" in status["per_txn"]
    assert status["per_txn"]["Read"]["avg_latency"] > 0


def test_metrics_include_engine_cache_stats(setup):
    control, manager, executor = setup
    executor.run(until=3.0)
    payload = control.metrics("t1", now=3.0)
    engine = payload["engine"]
    assert engine["plan_cache"]["hits"] > 0
    assert engine["plan_cache"]["misses"] >= 1
    assert engine["plan_cache"]["invalidations"] == 0
    assert engine["catalog_version"] >= 1
    # DDL invalidates: counters visible through the same payload.
    db = manager.benchmark.database
    db.execute(None, "CREATE TABLE extra (x INT PRIMARY KEY)")
    engine = control.metrics("t1", now=3.0)["engine"]
    assert engine["plan_cache"]["size"] == 0
    assert engine["plan_cache"]["invalidations"] >= 1


def test_all_status(setup):
    control, _manager, _executor = setup
    statuses = control.all_status(now=0.0)
    assert set(statuses) == {"t1"}


def test_benchmarks_listing(setup):
    control, _m, _e = setup
    rows = control.benchmarks()
    assert len(rows) == 15


def test_unregister(setup):
    control, _m, _e = setup
    control.unregister("t1")
    assert control.tenants() == []
    control.unregister("t1")  # idempotent
