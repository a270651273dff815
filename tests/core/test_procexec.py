"""Process-per-tenant executor: barrier, relay, results fidelity."""

import pytest

from repro.core import ProcessExecutor, TenantSpec, WorkloadConfiguration
from repro.core.phase import Phase
from repro.errors import ConfigurationError


def make_spec(i, rate=150, duration=2.0, benchmark="voter"):
    config = WorkloadConfiguration(
        benchmark=benchmark, scale_factor=0.1, workers=2, seed=42 + i,
        tenant=f"tenant-{i}",
        phases=[Phase(duration=duration, rate=rate)])
    return TenantSpec(config=config)


def test_requires_tenants():
    with pytest.raises(ConfigurationError):
        ProcessExecutor().run()


def test_duplicate_tenant_rejected():
    executor = ProcessExecutor()
    executor.add_tenant(make_spec(0))
    with pytest.raises(ConfigurationError):
        executor.add_tenant(make_spec(0))


def test_two_tenant_run_relays_results():
    executor = ProcessExecutor()
    for i in range(2):
        executor.add_tenant(make_spec(i))
    report = executor.run(timeout=15.0)
    assert report["ok"], report
    assert report["errors"] == {}
    per_tenant = executor.per_tenant_results()
    assert set(per_tenant) == {"tenant-0", "tenant-1"}
    for tenant, results in per_tenant.items():
        child = report["per_tenant"][tenant]
        # The relayed sample set is exactly what the child recorded.
        assert len(results) == child["queue"]["taken"]
        assert results.postponed == child["postponed"]
        counters = child["queue"]
        assert counters["offered"] == (counters["taken"]
                                       + counters["postponed"]
                                       + counters["depth"])
        assert child["recording"]["sample_batches"] >= 1
        assert results.committed() > 0
    combined = executor.combined_results()
    assert len(combined) == sum(len(r) for r in per_tenant.values())
    # Streaming metrics were rebuilt from the relayed batches.
    assert combined.metrics.committed() == combined.committed()


def test_failed_tenant_surfaces_as_configuration_error():
    executor = ProcessExecutor()
    spec = make_spec(0)
    spec.config.benchmark = "no-such-benchmark"
    executor.add_tenant(spec)
    with pytest.raises(ConfigurationError, match="failed to load"):
        executor.run(timeout=10.0)
