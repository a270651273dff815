"""Workload lifecycle over HTTP: create, start, stop, delete.

The full remote story: a client with no in-process wiring creates a
small YCSB workload, starts it, watches it run to completion through
the status endpoint, reads its metrics, and deletes it.
"""

import time

import pytest

from repro.api import ApiClient, ApiServer, ControlApi
from repro.errors import ApiConflict, ApiError, ApiNotFound

#: A deliberately tiny workload: 50 YCSB rows load in milliseconds and
#: one 1-second phase keeps the threaded run short.
CONFIG = {
    "benchmark": "ycsb",
    "scale_factor": 0.05,
    "workers": 2,
    "seed": 7,
    "tenant": "w1",
    "phases": [{"duration": 1, "rate": 50}],
}


@pytest.fixture
def client():
    server = ApiServer(ControlApi(), port=0).start()
    with ApiClient(server.url) as api:
        yield api
    server.stop()


def _await_state(client, tenant, state, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status = client.status(tenant)
        if status["state"] == state:
            return status
        time.sleep(0.05)
    raise AssertionError(f"tenant {tenant!r} never reached {state!r}")


@pytest.mark.slow
def test_full_lifecycle_over_http(client):
    created = client.create_workload(CONFIG)
    assert created["ok"] is True
    assert created["tenant"] == "w1"
    assert created["state"] == "created"

    listing = client.workloads()["workloads"]
    assert listing == [{"tenant": "w1", "benchmark": "ycsb",
                        "state": "created", "hosted": True}]

    started = client.start_workload("w1")
    assert started["state"] == "running"
    # The 1-second phase unwinds in real time and completes on its own.
    _await_state(client, "w1", "finished")
    metrics = client.metrics("w1")
    assert metrics["queue"]["offered"] > 0
    assert "resilience" in metrics

    deleted = client.delete_workload("w1")
    assert deleted["deleted"] is True
    assert client.tenants() == []
    with pytest.raises(ApiNotFound):
        client.status("w1")


@pytest.mark.slow
def test_stop_interrupts_a_long_phase(client):
    config = dict(CONFIG, phases=[{"duration": 120, "rate": 20}])
    client.create_workload(config)
    client.start_workload("w1")
    stopped = client.stop_workload("w1")
    assert stopped["state"] in ("stopped", "finished")
    status = client.status("w1")
    assert status["state"] != "running"


@pytest.mark.slow
def test_duplicate_create_conflicts(client):
    client.create_workload(CONFIG)
    with pytest.raises(ApiConflict):
        client.create_workload(CONFIG)


@pytest.mark.slow
def test_start_twice_conflicts(client):
    client.create_workload(CONFIG)
    client.start_workload("w1")
    try:
        with pytest.raises(ApiConflict):
            client.start_workload("w1")
    finally:
        client.stop_workload("w1")
    # A run is one-shot: once it has run, start refuses again.
    with pytest.raises(ApiConflict):
        client.start_workload("w1")


@pytest.mark.slow
def test_lifecycle_verbs_on_missing_tenant_404(client):
    with pytest.raises(ApiNotFound):
        client.start_workload("ghost")
    with pytest.raises(ApiNotFound):
        client.delete_workload("ghost")


@pytest.mark.slow
def test_create_rejects_bad_configs(client):
    with pytest.raises(ApiError):
        client.create_workload({"tenant": "x"})  # no benchmark
    with pytest.raises(ApiError):
        client.create_workload(dict(CONFIG, benchmark="not-a-benchmark"))
    assert client.tenants() == []  # nothing was half-registered


@pytest.mark.slow
def test_created_workload_accepts_fault_control(client):
    """Fault and resilience knobs work on hosted workloads pre-start."""
    client.create_workload(CONFIG)
    client.set_faults("w1", {"abort_probability": 0.1})
    client.set_resilience("w1", {"max_attempts": 3})
    faults = client.get_faults("w1")
    assert faults["faults"]["abort_probability"] == 0.1
    assert faults["injected"]["total"] == 0
    resilience = client.get_resilience("w1")
    assert resilience["resilience"]["max_attempts"] == 3
