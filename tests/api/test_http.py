"""REST server + client round trips over a real HTTP socket."""

import math

import pytest

from repro.api import ApiClient, ApiServer, ControlApi
from repro.core import (Phase, ThreadedExecutor, WorkloadConfiguration,
                        WorkloadManager)
from repro.errors import ApiError

from ..conftest import MiniBenchmark


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
    import threading

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

        def throttle():
            client.set_rate("t1", 30)

        timer = threading.Timer(2.0, throttle)
        timer.start()
        executor.run(timeout=15)
        timer.cancel()
    samples = manager.results.samples()
    start = min(s.start for s in samples)
    # Whole-second windows (the metrics ring's resolution): one second
    # inside [start + 0.25, start + 2.25), before the throttle lands,
    # and one inside [start + 2.6, start + 4.6), after it.
    before_lo = math.ceil(start + 0.25)
    after_lo = math.ceil(start + 2.6)
    before = manager.results.throughput((before_lo, before_lo + 1))
    after = manager.results.throughput((after_lo, after_lo + 1))
    assert before > 120
    assert after < 70


def test_client_rejects_bad_url():
    with pytest.raises(ApiError):
        ApiClient("ftp://nope")
