"""Contract tests for the versioned v1 REST surface.

Every v1 route is probed with every HTTP method: allowed methods answer
200 (or a semantically correct 4xx), disallowed methods answer 405 with
an ``Allow`` header, unknown paths answer 404, and every v1 error uses
the uniform envelope ``{"error": {"code", "message"}}``.  A path
outside ``/v1`` is an enveloped 404.
"""

import json
from http.client import HTTPConnection

import pytest

from repro.api import ApiServer, ControlApi
from repro.core import Phase, WorkloadConfiguration, WorkloadManager

from ..conftest import MiniBenchmark

METHODS = ("GET", "POST", "PUT", "DELETE", "PATCH")

#: Every v1 route and the methods it accepts.  ``{tenant}`` is the
#: in-process tenant registered by the fixture.
V1_ROUTES = {
    "/v1/benchmarks": {"GET"},
    "/v1/status": {"GET"},
    "/v1/metrics": {"GET"},
    "/v1/tenants": {"GET"},
    "/v1/workloads": {"GET", "POST"},
    "/v1/workloads/{tenant}": {"GET", "DELETE"},
    "/v1/workloads/{tenant}/status": {"GET"},
    "/v1/workloads/{tenant}/metrics": {"GET"},
    "/v1/workloads/{tenant}/presets": {"GET"},
    "/v1/workloads/{tenant}/rate": {"POST"},
    "/v1/workloads/{tenant}/weights": {"POST"},
    "/v1/workloads/{tenant}/preset": {"POST"},
    "/v1/workloads/{tenant}/think_time": {"POST"},
    "/v1/workloads/{tenant}/pause": {"POST"},
    "/v1/workloads/{tenant}/resume": {"POST"},
    "/v1/workloads/{tenant}/start": {"POST"},
    "/v1/workloads/{tenant}/stop": {"POST"},
    "/v1/workloads/{tenant}/faults": {"GET", "PUT"},
    "/v1/workloads/{tenant}/resilience": {"GET", "PUT"},
}

TENANT = "t1"


@pytest.fixture
def server(db):
    bench = MiniBenchmark(db, seed=42)
    bench.load()
    cfg = WorkloadConfiguration(
        benchmark="mini", workers=2, seed=1, tenant=TENANT,
        phases=[Phase(duration=60, rate=30)])
    control = ControlApi()
    control.register(WorkloadManager(bench, cfg))
    api = ApiServer(control, port=0).start()
    yield api
    api.stop()


def call(server, method, path, body=None, raw_body=None):
    """One raw HTTP round trip: (status, headers, parsed json)."""
    host, port = server.address
    conn = HTTPConnection(host, port, timeout=5)
    try:
        payload = raw_body
        if body is not None:
            payload = json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        data = json.loads(response.read() or b"null")
        return response.status, dict(response.getheaders()), data
    finally:
        conn.close()


def _expand(path):
    return path.replace("{tenant}", TENANT)


# ---------------------------------------------------------------------------
# The route x method matrix
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_disallowed_methods_answer_405_with_allow(server):
    for route, allowed in V1_ROUTES.items():
        for method in METHODS:
            if method in allowed:
                continue
            status, headers, data = call(server, method, _expand(route))
            assert status == 405, (route, method, data)
            assert data["error"]["code"] == "method_not_allowed"
            assert "message" in data["error"]
            assert set(headers["Allow"].split(", ")) == allowed, route


@pytest.mark.slow
def test_get_routes_answer_200(server):
    for route, allowed in V1_ROUTES.items():
        if "GET" not in allowed:
            continue
        status, headers, data = call(server, "GET", _expand(route))
        assert status == 200, (route, data)
        assert "Deprecation" not in headers, route
        assert "error" not in (data if isinstance(data, dict) else {})


@pytest.mark.slow
def test_control_writes_round_trip(server):
    cases = [
        ("POST", "/rate", {"rate": 50}),
        ("POST", "/weights", {"weights": {"Read": 50, "Write": 50}}),
        ("POST", "/preset", {"preset": "read-only"}),
        ("POST", "/think_time", {"seconds": 0.01}),
        ("POST", "/pause", None),
        ("POST", "/resume", None),
        ("PUT", "/faults", {"abort_probability": 0.25}),
        ("PUT", "/resilience", {"max_attempts": 2}),
    ]
    base = f"/v1/workloads/{TENANT}"
    for method, suffix, body in cases:
        status, _, data = call(server, method, base + suffix, body=body)
        assert status == 200, (suffix, data)
        assert data.get("ok", True) is True
    # The PUTs actually landed and read back.
    _, _, faults = call(server, "GET", base + "/faults")
    assert faults["faults"]["abort_probability"] == 0.25
    _, _, resilience = call(server, "GET", base + "/resilience")
    assert resilience["resilience"]["max_attempts"] == 2


@pytest.mark.slow
def test_fault_put_is_partial_update(server):
    base = f"/v1/workloads/{TENANT}/faults"
    call(server, "PUT", base, body={"abort_probability": 0.1})
    call(server, "PUT", base, body={"latency_probability": 0.2})
    _, _, data = call(server, "GET", base)
    assert data["faults"]["abort_probability"] == 0.1
    assert data["faults"]["latency_probability"] == 0.2


# ---------------------------------------------------------------------------
# Error envelope
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_unknown_path_is_enveloped_404(server):
    status, _, data = call(server, "GET", "/v1/nope")
    assert status == 404
    assert data["error"]["code"] == "not_found"


@pytest.mark.slow
def test_unknown_tenant_is_enveloped_404(server):
    for path in ("/v1/workloads/ghost/status", "/v1/workloads/ghost/faults"):
        status, _, data = call(server, "GET", path)
        assert status == 404, path
        assert data["error"]["code"] == "not_found"


@pytest.mark.slow
def test_bad_bodies_are_enveloped_400(server):
    base = f"/v1/workloads/{TENANT}"
    cases = [
        ("POST", base + "/rate", None, b"{not json"),
        ("POST", base + "/rate", {"rate": -3}, None),
        ("PUT", base + "/faults", {"abort_probability": 2.0}, None),
        ("PUT", base + "/faults", {"bogus_knob": 1}, None),
        ("PUT", base + "/resilience", {"max_attempts": 0}, None),
        ("POST", "/v1/workloads", {"no_benchmark": True}, None),
    ]
    for method, path, body, raw in cases:
        status, _, data = call(server, method, path, body=body,
                               raw_body=raw)
        assert status == 400, (path, data)
        assert data["error"]["code"] == "bad_request"
        assert data["error"]["message"]


@pytest.mark.slow
def test_lifecycle_on_inprocess_tenant_is_409(server):
    """The host refuses to drive workloads it does not own."""
    for method, path in (("POST", f"/v1/workloads/{TENANT}/start"),
                         ("POST", f"/v1/workloads/{TENANT}/stop"),
                         ("DELETE", f"/v1/workloads/{TENANT}")):
        status, _, data = call(server, method, path)
        assert status == 409, (path, data)
        assert data["error"]["code"] == "conflict"
        assert "hosted" in data["error"]["message"]


@pytest.mark.slow
def test_workloads_listing_marks_inprocess_tenants(server):
    status, _, data = call(server, "GET", "/v1/workloads")
    assert status == 200
    assert data["workloads"] == [{
        "tenant": TENANT, "benchmark": "mini",
        "state": "created", "hosted": False,
    }]


# ---------------------------------------------------------------------------
# Unversioned paths
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_unversioned_paths_are_404(server):
    for route, methods in V1_ROUTES.items():
        path = _expand(route)[len("/v1"):]
        for method in sorted(methods):
            status, headers, data = call(server, method, path, body={})
            assert status == 404, (method, path, data)
            assert data["error"]["code"] == "not_found", (method, path)
            assert "Deprecation" not in headers, (method, path)
