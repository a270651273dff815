"""The control API's transport: one persistent connection per client
thread, idle connections closed by the server, and ``stop()`` leaving no
handler thread behind."""

import json
import socket
import sys
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.api import ApiClient, ApiServer, ControlApi
from repro.api import server as server_module
from repro.core import Phase, WorkloadConfiguration, WorkloadManager
from repro.errors import ApiMethodNotAllowed

from ..conftest import MiniBenchmark


class _RecordingClock:
    """Clock stub: captures requested sleeps instead of waiting."""

    def __init__(self) -> None:
        self.sleeps: list[float] = []

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)

    def now(self) -> float:
        return float(len(self.sleeps))


def _control(db) -> ControlApi:
    bench = MiniBenchmark(db, seed=42)
    bench.load()
    cfg = WorkloadConfiguration(
        benchmark="mini", workers=2, seed=1, tenant="t1",
        phases=[Phase(duration=60, rate=10)])
    control = ControlApi()
    control.register(WorkloadManager(bench, cfg))
    return control


def _count_accepts(server: ApiServer) -> list[int]:
    """Count the connections ``server`` accepts from now on."""
    httpd = server._httpd
    accepted = [0]
    process = httpd.process_request

    def counting(request, client_address):
        accepted[0] += 1
        process(request, client_address)

    httpd.process_request = counting
    return accepted


def _handler_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == "api-connection"]


@pytest.fixture
def server(db):
    srv = ApiServer(_control(db)).start()
    yield srv
    srv.stop()


def test_sequential_calls_share_one_connection(server):
    accepted = _count_accepts(server)
    with ApiClient(server.url) as client:
        for rate in range(1, 21):
            assert client.set_rate("t1", rate) == {"ok": True, "rate": rate}
        assert client.tenants() == ["t1"]
    assert accepted[0] == 1


def test_error_response_keeps_the_connection(server):
    accepted = _count_accepts(server)
    with ApiClient(server.url) as client:
        # A 405 whose request body the route never reads: the server
        # still consumes it, so the next request parses cleanly.
        with pytest.raises(ApiMethodNotAllowed):
            client._request("PUT", "/v1/status", {"pad": "x" * 5000})
        assert client.tenants() == ["t1"]
    assert accepted[0] == 1


def test_stop_with_an_idle_client_leaves_no_handler_thread(db):
    server = ApiServer(_control(db)).start()
    client = ApiClient(server.url)
    assert client.tenants() == ["t1"]
    assert _handler_threads()  # the idle connection's thread waits
    server.stop()
    assert _handler_threads() == []
    client.close()


def test_idle_timeout_close_is_resent_without_backoff(db, monkeypatch):
    monkeypatch.setattr(server_module, "IDLE_TIMEOUT", 0.2)
    server = ApiServer(_control(db)).start()
    accepted = _count_accepts(server)
    clock = _RecordingClock()
    try:
        with ApiClient(server.url, clock=clock) as client:
            assert client.tenants() == ["t1"]
            for thread in _handler_threads():
                thread.join(timeout=5.0)  # the server closed the idle one
            assert _handler_threads() == []
            assert client.tenants() == ["t1"]
        assert clock.sleeps == []
        assert accepted[0] == 2
    finally:
        server.stop()


def test_one_client_shared_by_threads(server):
    accepted = _count_accepts(server)
    barrier = threading.Barrier(4)
    wrong: list[object] = []

    def poll(rate: int) -> None:
        barrier.wait()
        for _ in range(25):
            answer = client.set_rate("t1", rate)
            if answer != {"ok": True, "rate": rate}:
                wrong.append(answer)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-request
    try:
        with ApiClient(server.url) as client:
            threads = [threading.Thread(target=poll, args=(rate,))
                       for rate in (11, 22, 33, 44)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
            assert len(client._connections) == 4
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []
    assert accepted[0] == 4  # one connection per calling thread


def test_close_ends_every_connection_and_later_calls_reconnect(server):
    accepted = _count_accepts(server)
    client = ApiClient(server.url)
    assert client.tenants() == ["t1"]
    client.close()
    for thread in _handler_threads():
        thread.join(timeout=5.0)
    assert _handler_threads() == []
    assert client.tenants() == ["t1"]
    assert accepted[0] == 2
    client.close()


def test_response_leaves_in_one_segment(server):
    # Headers and body arrive together: one recv returns the whole
    # response (a small one, over loopback).
    host, port = server.address
    conn = HTTPConnection(host, port, timeout=5)
    conn.connect()
    conn.sock.sendall(b"GET /v1/tenants HTTP/1.1\r\nHost: x\r\n\r\n")
    chunk = conn.sock.recv(65536)
    head, _, body = chunk.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200")
    assert json.loads(body) == ["t1"]
    conn.close()


def test_invalid_content_length_is_400_and_closes(server):
    host, port = server.address
    conn = HTTPConnection(host, port, timeout=5)
    conn.connect()
    conn.sock.sendall(b"POST /v1/workloads/t1/pause HTTP/1.1\r\nHost: x\r\n"
                      b"Content-Length: -5\r\n\r\n")
    response = b""
    while chunk := conn.sock.recv(65536):  # until the server closes
        response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400")
    assert b"Connection: close" in head
    assert json.loads(body)["error"]["code"] == "bad_request"
    conn.close()


def test_stop_on_an_idle_server_returns_at_once(db):
    server = ApiServer(_control(db)).start()
    with ApiClient(server.url) as client:
        assert client.tenants() == ["t1"]
    started = time.monotonic()
    server.stop()
    assert time.monotonic() - started < 0.1
    assert _handler_threads() == []
    assert not [t for t in threading.enumerate() if t.name == "api-server"]


def test_stop_ends_the_accept_loop_when_its_wake_up_fails(db, monkeypatch):
    server = ApiServer(_control(db)).start()
    listening = server._httpd.socket
    shutdown = socket.socket.shutdown

    def failing_shutdown(sock, how):
        if sock is listening:
            raise OSError("shutdown not supported")
        return shutdown(sock, how)

    monkeypatch.setattr(socket.socket, "shutdown", failing_shutdown)
    started = time.monotonic()
    server.stop()
    # The wait for a connection runs out instead (after at most 0.5 s),
    # well before stop() gives up joining the accept loop (2 s).
    assert time.monotonic() - started < 1.0
    assert not [t for t in threading.enumerate() if t.name == "api-server"]
