"""HTTP client for the v1 control API, mirroring ControlApi's surface.

Code written against :class:`~repro.api.control.ControlApi` runs unchanged
against an :class:`ApiClient` pointed at a remote ApiServer — which is how
the threaded demo wires the game to a live OLTP-Bench process.

The client speaks the versioned ``/v1`` surface and parses its error
envelope (``{"error": {"code", "message"}}``), mapping status codes back
onto the :class:`~repro.errors.ApiError` hierarchy (404 →
:class:`ApiNotFound`, 405 → :class:`ApiMethodNotAllowed`, 409 →
:class:`ApiConflict`).

It also dogfoods the resilience layer: a
:class:`~repro.core.resilience.RetryPolicy` governs retries of
*connection-level* failures (refused, reset, timed out) with exponential
backoff.  HTTP error **responses** are never retried — a 4xx/5xx answer
means the server made a decision; only failing to reach the server at
all is transient.

Each calling thread keeps one persistent connection and reuses it, so a
poll costs one request/response exchange, not a TCP handshake and a new
server thread.  A request that fails on a reused connection before any
response arrives (the server closed it while idle) is resent once, at
once, on a fresh connection; that resend is not a retry attempt.
:meth:`ApiClient.close` (or leaving ``with ApiClient(...)``) closes every
thread's connection.
"""

from __future__ import annotations

import json
import threading
from http.client import HTTPConnection, HTTPException
from typing import Mapping, Optional
from urllib.parse import urlparse

from ..clock import Clock, RealClock
from ..core.resilience import RetryPolicy
from ..errors import (ApiConflict, ApiError, ApiMethodNotAllowed,
                      ApiNotFound)
from ..rand import make_rng

#: Connection-level failures worth retrying; an HTTP response — any
#: status — is never one of these.
_TRANSIENT = (ConnectionError, HTTPException, OSError, TimeoutError)


def _window_query(window: Optional[float]) -> str:
    return "" if window is None else f"?window={window:g}"


def _message_from(data: object, status: int) -> str:
    """Extract the error message from a v1 envelope."""
    if isinstance(data, dict):
        error = data.get("error")
        if isinstance(error, dict):
            return str(error.get("message", f"HTTP {status}"))
    return f"HTTP {status}"


class ApiClient:
    """JSON-over-HTTP client for :class:`ApiServer`'s v1 surface."""

    def __init__(self, url: str, timeout: float = 5.0,
                 retry: Optional[RetryPolicy] = None,
                 clock: Optional[Clock] = None,
                 seed: Optional[int] = None) -> None:
        parsed = urlparse(url)
        if parsed.scheme != "http" or parsed.hostname is None:
            raise ApiError(f"invalid API url {url!r}")
        self._host = parsed.hostname
        self._port = parsed.port or 80
        self._timeout = timeout
        #: Connection-failure retry policy; default: 3 attempts with
        #: short exponential backoff.
        self._retry = retry or RetryPolicy(
            max_attempts=3, backoff_base=0.05, backoff_max=0.5)
        self._clock = clock or RealClock()
        self._rng = make_rng(seed, "api-client", self._host, self._port)
        self._local = threading.local()
        #: Every thread's connection, for close().
        self._connections: list[HTTPConnection] = []
        self._connections_lock = threading.Lock()

    def close(self) -> None:
        """Close every thread's connection; a later call reconnects."""
        with self._connections_lock:
            connections = list(self._connections)
        for conn in connections:
            conn.close()

    def __enter__(self) -> "ApiClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- transport ----------------------------------------------------------

    def _connection(self) -> HTTPConnection:
        """The calling thread's connection (opened on first use)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = HTTPConnection(self._host, self._port,
                                  timeout=self._timeout)
            self._local.conn = conn
            with self._connections_lock:
                self._connections.append(conn)
        return conn

    @staticmethod
    def _exchange(conn: HTTPConnection, method: str, path: str,
                  payload: Optional[bytes],
                  headers: dict[str, str]) -> tuple[int, bytes]:
        reused = conn.sock is not None
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
        except (BrokenPipeError, ConnectionResetError):
            if not reused:
                raise
            # The server closed the idle connection before answering:
            # resend once on a fresh one.
            conn.close()
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
        return response.status, response.read()

    def _request_once(self, method: str, path: str,
                      payload: Optional[bytes],
                      headers: dict[str, str]) -> object:
        conn = self._connection()
        try:
            status, raw = self._exchange(conn, method, path, payload,
                                         headers)
        except BaseException:
            # Whatever was half sent or half read, the next request
            # starts on a fresh connection.
            conn.close()
            raise
        data = json.loads(raw or b"null")
        if status >= 400:
            message = _message_from(data, status)
            # Mirror the server's status-code semantics so callers can
            # distinguish "no such tenant" from "bad request".
            if status == 404:
                raise ApiNotFound(message)
            if status == 405:
                raise ApiMethodNotAllowed(message)
            if status == 409:
                raise ApiConflict(message)
            raise ApiError(message)
        return data

    def _request(self, method: str, path: str,
                 body: Optional[dict] = None) -> object:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        attempts = 0
        while True:
            attempts += 1
            try:
                return self._request_once(method, path, payload, headers)
            except ApiError:
                raise
            except _TRANSIENT as exc:
                if attempts >= self._retry.max_attempts:
                    raise ApiError(
                        f"{method} {path} failed after {attempts} "
                        f"attempt(s): {exc}") from exc
                self._clock.sleep(self._retry.delay(attempts, self._rng))

    # -- mirrored surface -------------------------------------------------------

    def tenants(self) -> list[str]:
        return self._request("GET", "/v1/tenants")

    def benchmarks(self) -> list[dict]:
        return self._request("GET", "/v1/benchmarks")

    def all_status(self) -> dict:
        return self._request("GET", "/v1/status")

    def status(self, tenant: str, now: Optional[float] = None,
               window: Optional[float] = None) -> dict:
        # ``now`` mirrors ControlApi's signature for drop-in use (e.g. by
        # the game loop) but is ignored remotely: the server's clock rules.
        return self._request("GET", f"/v1/workloads/{tenant}/status"
                             + _window_query(window))

    def metrics(self, tenant: str, now: Optional[float] = None,
                window: Optional[float] = None) -> dict:
        """Streaming metrics: windowed throughput, latency quantiles,
        queue accounting.  ``now`` is accepted for ControlApi signature
        parity and ignored remotely."""
        return self._request("GET", f"/v1/workloads/{tenant}/metrics"
                             + _window_query(window))

    def all_metrics(self, window: Optional[float] = None) -> dict:
        return self._request("GET", "/v1/metrics" + _window_query(window))

    def presets(self, tenant: str) -> dict:
        return self._request("GET", f"/v1/workloads/{tenant}/presets")

    def set_rate(self, tenant: str, rate: object) -> dict:
        return self._request("POST", f"/v1/workloads/{tenant}/rate",
                             {"rate": rate})

    def set_weights(self, tenant: str,
                    weights: Mapping[str, float]) -> dict:
        return self._request("POST", f"/v1/workloads/{tenant}/weights",
                             {"weights": dict(weights)})

    def set_preset(self, tenant: str, preset: str) -> dict:
        return self._request("POST", f"/v1/workloads/{tenant}/preset",
                             {"preset": preset})

    def set_think_time(self, tenant: str, seconds: float) -> dict:
        return self._request("POST", f"/v1/workloads/{tenant}/think_time",
                             {"seconds": seconds})

    def pause(self, tenant: str) -> dict:
        return self._request("POST", f"/v1/workloads/{tenant}/pause")

    def resume(self, tenant: str) -> dict:
        return self._request("POST", f"/v1/workloads/{tenant}/resume")

    # -- faults / resilience (v1 only) --------------------------------------

    def get_faults(self, tenant: str) -> dict:
        return self._request("GET", f"/v1/workloads/{tenant}/faults")

    def set_faults(self, tenant: str,
                   fields: Mapping[str, object]) -> dict:
        return self._request("PUT", f"/v1/workloads/{tenant}/faults",
                             dict(fields))

    def get_resilience(self, tenant: str) -> dict:
        return self._request("GET", f"/v1/workloads/{tenant}/resilience")

    def set_resilience(self, tenant: str,
                       fields: Mapping[str, object]) -> dict:
        return self._request("PUT", f"/v1/workloads/{tenant}/resilience",
                             dict(fields))

    # -- lifecycle (v1 only) ------------------------------------------------

    def workloads(self) -> dict:
        return self._request("GET", "/v1/workloads")

    def create_workload(self, config: Mapping[str, object]) -> dict:
        return self._request("POST", "/v1/workloads", dict(config))

    def start_workload(self, tenant: str) -> dict:
        return self._request("POST", f"/v1/workloads/{tenant}/start")

    def stop_workload(self, tenant: str) -> dict:
        return self._request("POST", f"/v1/workloads/{tenant}/stop")

    def delete_workload(self, tenant: str) -> dict:
        return self._request("DELETE", f"/v1/workloads/{tenant}")
