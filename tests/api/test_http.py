"""REST server + client round trips over a real HTTP socket."""

import math

import pytest

from repro.api import ApiClient, ApiServer, ControlApi
from repro.core import (Phase, ThreadedExecutor, WorkloadConfiguration,
                        WorkloadManager)
from repro.errors import ApiError

from ..conftest import MiniBenchmark, call_into_run


@pytest.fixture
def live(db):
    bench = MiniBenchmark(db, seed=42)
    bench.load()
    cfg = WorkloadConfiguration(
        benchmark="mini", workers=2, seed=1, tenant="t1",
        phases=[Phase(duration=60, rate=30)])
    manager = WorkloadManager(bench, cfg)
    control = ControlApi()
    control.register(manager)
    server = ApiServer(control, port=0).start()
    with ApiClient(server.url) as client:
        yield client, manager
    server.stop()


@pytest.mark.slow
def test_tenants_and_benchmarks(live):
    client, _manager = live
    assert client.tenants() == ["t1"]
    assert len(client.benchmarks()) == 15


@pytest.mark.slow
def test_rate_round_trip(live):
    client, manager = live
    response = client.set_rate("t1", 75)
    assert response == {"ok": True, "rate": 75}
    assert manager.current_rate() == 75
    response = client.set_rate("t1", "unlimited")
    assert manager.current_rate() == "unlimited"


@pytest.mark.slow
def test_weights_and_preset_round_trip(live):
    client, manager = live
    client.set_weights("t1", {"Read": 10, "Write": 90})
    assert manager.current_weights() == {"Read": 10, "Write": 90}
    client.set_preset("t1", "read-only")
    assert manager.current_weights() == {"Read": 100.0}
    presets = client.presets("t1")
    assert "super-writes" in presets


@pytest.mark.slow
def test_pause_resume_round_trip(live):
    client, manager = live
    client.pause("t1")
    assert manager.paused
    client.resume("t1")
    assert not manager.paused


@pytest.mark.slow
def test_think_time_round_trip(live):
    client, manager = live
    client.set_think_time("t1", 0.05)
    assert manager.current_think_time() == 0.05


@pytest.mark.slow
def test_status_round_trip(live):
    client, _manager = live
    status = client.status("t1")
    assert status["benchmark"] == "mini"
    everything = client.all_status()
    assert "t1" in everything


@pytest.mark.slow
def test_error_surfaces_as_api_error(live):
    client, _manager = live
    with pytest.raises(ApiError):
        client.set_rate("t1", -3)
    with pytest.raises(ApiError):
        client.status("ghost")
    with pytest.raises(ApiError):
        client._request("GET", "/nope")


@pytest.mark.slow
def test_live_control_during_threaded_run(db):
    """The paper's demo loop: drive a live benchmark over HTTP."""
    bench = MiniBenchmark(db, seed=42)
    bench.load()
    cfg = WorkloadConfiguration(
        benchmark="mini", workers=4, seed=1, tenant="t1",
        phases=[Phase(duration=4, rate=200)])
    manager = WorkloadManager(bench, cfg)
    executor = ThreadedExecutor(db)
    executor.add_workload(manager)
    control = ControlApi()
    control.register(manager)
    with ApiServer(control, port=0) as server, \
            ApiClient(server.url) as client:
        # Lands between the pacer's ticks at run start + 1 s and + 2 s, so
        # arrivals run at 200/s in [start, start + 2) and at 30/s in
        # [start + 2, start + 4).
        throttle = call_into_run(
            manager, 1.5, lambda: client.set_rate("t1", 30))
        executor.run(timeout=15)
        throttle.join(5.0)
        assert not throttle.is_alive()
    start = min(s.start for s in manager.results.samples())
    # Whole-second windows (the metrics ring's resolution), one inside
    # each half.
    before_lo = math.ceil(start)
    after_lo = math.ceil(start + 2)
    before = manager.results.throughput((before_lo, before_lo + 1))
    after = manager.results.throughput((after_lo, after_lo + 1))
    assert before > 120
    assert after < 70


def test_client_rejects_bad_url():
    with pytest.raises(ApiError):
        ApiClient("ftp://nope")
