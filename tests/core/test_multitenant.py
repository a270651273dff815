"""Multi-tenancy: parallel workloads on one instance interfere.

Each tenant is one ``WorkloadManager`` added to one shared
``SimulatedExecutor`` (paper §2.2.3).
"""

import pytest

from repro.clock import SimClock
from repro.core import (Phase, SimulatedExecutor, WorkloadConfiguration,
                        WorkloadManager, merge)
from repro.errors import ConfigurationError

from ..conftest import MiniBenchmark


def tenant_config(tenant, rate, duration=10, workers=4):
    return WorkloadConfiguration(
        benchmark="mini", workers=workers, seed=1, tenant=tenant,
        phases=[Phase(duration=duration, rate=rate)])


def run_tenants(db, *configs, personality="mysql"):
    """Run every config as a tenant of one simulated server; returns the
    per-tenant results."""
    bench = MiniBenchmark(db, seed=42)
    bench.load()
    executor = SimulatedExecutor(db, personality, SimClock())
    managers = [executor.add_workload(
        WorkloadManager(bench, config, clock=executor.clock))
        for config in configs]
    executor.run()
    return {manager.tenant: manager.results for manager in managers}


def test_two_tenants_run_in_parallel(db):
    per_tenant = run_tenants(db, tenant_config("t1", rate=50),
                             tenant_config("t2", rate=80))
    assert per_tenant["t1"].committed() == 500
    assert per_tenant["t2"].committed() == 800


def test_combined_results_merge(db):
    per_tenant = run_tenants(db, tenant_config("t1", rate=20, duration=5),
                             tenant_config("t2", rate=30, duration=5))
    combined = merge(per_tenant.values())
    assert len(combined) == 250
    tenants = {s.tenant for s in combined.samples()}
    assert tenants == {"t1", "t2"}


def test_interference_report(db):
    per_tenant = run_tenants(db, tenant_config("t1", rate=40, duration=8),
                             tenant_config("t2", rate=60, duration=8))
    report = {tenant: results.throughput((2, 6))
              for tenant, results in per_tenant.items()}
    assert report["t1"] == pytest.approx(40, rel=0.2)
    assert report["t2"] == pytest.approx(60, rel=0.2)


def test_heavy_tenant_slows_light_tenant(db):
    """Shared capacity: a saturating neighbour inflates latencies."""
    # Baseline: tenant alone.
    alone = run_tenants(db, tenant_config("solo", rate=100, workers=2),
                        personality="derby")
    solo_latency = alone["solo"].latency_percentiles()["avg"]

    # Same tenant next to a heavy neighbour on a fresh engine.
    shared = run_tenants(type(db)(),
                         tenant_config("light", rate=100, workers=2),
                         tenant_config("heavy", rate=4000, workers=32),
                         personality="derby")
    light_latency = shared["light"].latency_percentiles()["avg"]
    assert light_latency > solo_latency * 1.5


def test_unloaded_benchmark_rejected(db):
    bench = MiniBenchmark(db, seed=42)  # not loaded
    with pytest.raises(ConfigurationError, match="must be loaded"):
        WorkloadManager(bench, tenant_config("t1", rate=10))


def test_run_without_tenants_rejected(db):
    with pytest.raises(ConfigurationError):
        SimulatedExecutor(db, "mysql", SimClock()).run()
