"""HTTP server edge cases on the ``/v1`` surface: bad routes, bad bodies,
concurrent polls."""

import json
import threading
from http.client import HTTPConnection

import pytest

from repro.api import ApiServer, ControlApi
from repro.core import Phase, WorkloadConfiguration, WorkloadManager

from ..conftest import MiniBenchmark


@pytest.fixture
def server(db):
    bench = MiniBenchmark(db, seed=42)
    bench.load()
    cfg = WorkloadConfiguration(
        benchmark="mini", workers=2, seed=1, tenant="t1",
        phases=[Phase(duration=60, rate=10)])
    manager = WorkloadManager(bench, cfg)
    control = ControlApi()
    control.register(manager)
    srv = ApiServer(control, port=0).start()
    yield srv
    srv.stop()


def raw_request(server, method, path, body=None):
    host, port = server.address
    conn = HTTPConnection(host, port, timeout=5)
    payload = json.dumps(body).encode() if body is not None else None
    headers = {"Content-Type": "application/json"} if payload else {}
    conn.request(method, path, body=payload, headers=headers)
    response = conn.getresponse()
    data = json.loads(response.read() or b"null")
    conn.close()
    return response.status, data


@pytest.mark.slow
def test_unknown_get_route_is_404(server):
    status, data = raw_request(server, "GET", "/v1/nonsense")
    assert status == 404
    assert data["error"]["code"] == "not_found"


@pytest.mark.slow
def test_unknown_post_action_is_404(server):
    status, _data = raw_request(server, "POST", "/v1/workloads/t1/explode",
                                {})
    assert status == 404


@pytest.mark.slow
def test_post_to_get_only_route_is_405(server):
    for path in ("/v1/status", "/v1/metrics", "/v1/benchmarks", "/v1/tenants",
                 "/v1/workloads/t1/status", "/v1/workloads/t1/metrics",
                 "/v1/workloads/t1/presets"):
        status, data = raw_request(server, "POST", path, {})
        assert status == 405, path
        assert data["error"]["code"] == "method_not_allowed"


@pytest.mark.slow
def test_get_on_post_only_action_is_405(server):
    status, _data = raw_request(server, "GET", "/v1/workloads/t1/rate")
    assert status == 405


@pytest.mark.slow
def test_405_carries_allow_header(server):
    host, port = server.address
    conn = HTTPConnection(host, port, timeout=5)
    conn.request("POST", "/v1/workloads/t1/status")
    response = conn.getresponse()
    assert response.status == 405
    assert "GET" in (response.getheader("Allow") or "")
    response.read()
    conn.close()


@pytest.mark.slow
def test_unsupported_method_is_405_on_known_path(server):
    status, _data = raw_request(server, "PUT", "/v1/workloads/t1/rate", {})
    assert status == 405


@pytest.mark.slow
def test_unsupported_method_is_404_on_unknown_path(server):
    status, _data = raw_request(server, "DELETE", "/v1/no/such/path")
    assert status == 404


@pytest.mark.slow
def test_malformed_json_body_is_400(server):
    host, port = server.address
    conn = HTTPConnection(host, port, timeout=5)
    conn.request("POST", "/v1/workloads/t1/rate", body=b"{not json",
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    assert response.status == 400
    response.read()
    conn.close()


@pytest.mark.slow
def test_missing_body_fields_rejected(server):
    status, data = raw_request(server, "POST", "/v1/workloads/t1/rate", {})
    assert status == 400  # rate missing -> invalid


@pytest.mark.slow
def test_unknown_tenant_in_path_is_404(server):
    for path in ("/v1/workloads/ghost/status", "/v1/workloads/ghost/metrics"):
        status, data = raw_request(server, "GET", path)
        assert status == 404, path
        assert data["error"]["code"] == "not_found"
        assert "ghost" in data["error"]["message"]


@pytest.mark.slow
def test_metrics_route_round_trip(server):
    status, data = raw_request(server, "GET", "/v1/workloads/t1/metrics")
    assert status == 200
    assert data["tenant"] == "t1"
    assert "throughput" in data["window"]
    assert "total" in data["latency"]
    assert {"offered", "taken", "postponed", "depth"} <= set(data["queue"])
    engine = data["engine"]
    assert {"hits", "misses", "evictions", "invalidations"} <= \
        set(engine["plan_cache"])
    assert "catalog_version" in engine
    status, data = raw_request(server, "GET", "/v1/metrics")
    assert status == 200
    assert "t1" in data


@pytest.mark.slow
def test_metrics_window_param(server):
    status, data = raw_request(server, "GET",
                               "/v1/workloads/t1/metrics?window=2")
    assert status == 200
    assert data["window"]["seconds"] == 2


@pytest.mark.slow
def test_bad_window_param_is_400(server):
    status, _data = raw_request(server, "GET",
                                "/v1/workloads/t1/metrics?window=soon")
    assert status == 400
    status, _data = raw_request(server, "GET",
                                "/v1/workloads/t1/metrics?window=-1")
    assert status == 400
    for path in ("/v1/workloads/t1/metrics", "/v1/metrics",
                 "/v1/workloads/t1/status"):
        for raw in ("nan", "inf", "-inf"):
            status, data = raw_request(server, "GET",
                                       f"{path}?window={raw}")
            assert status == 400, (path, raw, data)
            assert data["error"]["code"] == "bad_request"


@pytest.mark.slow
def test_concurrent_status_polls(server):
    errors = []

    def poll():
        for _ in range(10):
            status, data = raw_request(server, "GET",
                                       "/v1/workloads/t1/status")
            if status != 200 or data["benchmark"] != "mini":
                errors.append(data)

    threads = [threading.Thread(target=poll) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert not errors
