"""HTTP/JSON server exposing the control facade as a REST API.

The surface is versioned under ``/v1`` (see docs/api.md for the full
route reference):

    GET    /v1/benchmarks                        -> paper Table 1
    GET    /v1/status                            -> every tenant's status
    GET    /v1/metrics                           -> every tenant's metrics
    GET    /v1/tenants
    GET    /v1/workloads                         -> registry with states
    POST   /v1/workloads                         {config body} -> create
    GET    /v1/workloads/<tenant>                -> status
    DELETE /v1/workloads/<tenant>                -> stop + unregister
    POST   /v1/workloads/<tenant>/start
    POST   /v1/workloads/<tenant>/stop
    GET    /v1/workloads/<tenant>/status
    GET    /v1/workloads/<tenant>/metrics        ?window=<seconds>
    GET    /v1/workloads/<tenant>/presets
    POST   /v1/workloads/<tenant>/rate           {"rate": 150|"unlimited"|"disabled"}
    POST   /v1/workloads/<tenant>/weights        {"weights": {"NewOrder": 45, ...}}
    POST   /v1/workloads/<tenant>/preset         {"preset": "read-only"}
    POST   /v1/workloads/<tenant>/think_time     {"seconds": 0.01}
    POST   /v1/workloads/<tenant>/pause
    POST   /v1/workloads/<tenant>/resume
    GET    /v1/workloads/<tenant>/faults
    PUT    /v1/workloads/<tenant>/faults         {"abort_probability": 0.05, ...}
    GET    /v1/workloads/<tenant>/resilience
    PUT    /v1/workloads/<tenant>/resilience     {"max_attempts": 4, ...}

v1 errors use a uniform envelope::

    {"error": {"code": "<symbol>", "message": "<human text>"}}

with codes ``bad_request`` (400), ``not_found`` (404),
``method_not_allowed`` (405, plus an ``Allow`` header), ``conflict``
(409), and ``internal`` (500).  A path outside ``/v1`` is a 404.

Connections are persistent HTTP/1.1: one handler thread serves every
request a client sends on its connection, and each response (status
line, headers and body) leaves in one write with Nagle's algorithm off.
A connection idle for :data:`IDLE_TIMEOUT` seconds is closed;
:meth:`ApiServer.stop` shuts every open connection down and joins its
handler thread.
"""

from __future__ import annotations

import json
import math
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional
from urllib.parse import parse_qs, urlsplit

from ..errors import (ApiConflict, ApiError, ApiMethodNotAllowed,
                      ApiNotFound)
from .control import ControlApi
from .lifecycle import WorkloadHost

#: POST actions under /v1/workloads/<tenant>/<action>.
_POST_ACTIONS = ("rate", "weights", "preset", "think_time", "pause",
                 "resume")
#: GET views under /v1/workloads/<tenant>/<view>.
_GET_VIEWS = ("status", "metrics", "presets")
#: Lifecycle actions under /v1/workloads/<tenant>/<action>.
_LIFECYCLE_ACTIONS = ("start", "stop")
#: GET+PUT resources under /v1/workloads/<tenant>/<resource>.
_PUT_RESOURCES = ("faults", "resilience")

#: Seconds a keep-alive connection may sit idle before the server closes it.
IDLE_TIMEOUT = 15.0
#: Bytes the handler buffers per response; one larger goes out in pieces.
_WRITE_BUFFER = 1 << 16
#: Seconds :meth:`ApiServer.stop` waits for each handler thread to end.
_JOIN_TIMEOUT = 2.0


class _HttpServer(ThreadingHTTPServer):
    """A threading HTTP server that knows its open connections.

    Each accepted connection gets a daemon handler thread, registered
    until the connection closes, so :meth:`close_connections` can shut
    them all down and join their threads with a bound.
    """

    #: Longest single wait for a connection (``handle_request``'s bound),
    #: so a stop whose wake-up failed still ends the accept loop.
    timeout = 0.5

    def __init__(self, address: tuple[str, int], handler) -> None:
        super().__init__(address, handler)
        self._open: dict[socket.socket, threading.Thread] = {}
        self._open_lock = threading.Lock()
        self._stopping = False

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address), name="api-connection",
            daemon=True)
        with self._open_lock:
            self._open[request] = thread
        thread.start()

    def serve_until_stopped(self) -> None:
        """Serve connections until :meth:`stop_serving`."""
        while not self._stopping:
            self.handle_request()

    def stop_serving(self) -> None:
        """End :meth:`serve_until_stopped` without serving another
        connection.  Shutting the listening socket down wakes the wait for
        a connection at once on Linux; elsewhere it ends within
        :attr:`timeout`."""
        self._stopping = True
        try:
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # not supported on this platform: the timeout ends it

    def verify_request(self, request, client_address) -> bool:
        return not self._stopping

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.pop(request, None)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        # A peer that goes away, or a connection cut by stop(), is not a
        # server fault: no traceback for those.
        if not (self._stopping
                or isinstance(sys.exc_info()[1], ConnectionError)):
            super().handle_error(request, client_address)

    def close_connections(self) -> None:
        """Shut every open connection down and join its handler thread."""
        with self._open_lock:
            open_now = list(self._open.items())
        for request, _thread in open_now:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its handler
        for _request, thread in open_now:
            thread.join(timeout=_JOIN_TIMEOUT)


class ApiServer:
    """Runs the control API on a background HTTP server thread."""

    def __init__(self, control: ControlApi, host: str = "127.0.0.1",
                 port: int = 0,
                 workloads: Optional[WorkloadHost] = None) -> None:
        self.control = control
        self.workloads = workloads or WorkloadHost(control)
        handler = _make_handler(control, self.workloads)
        self._httpd = _HttpServer((host, port), handler)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ApiServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_until_stopped, name="api-server",
            daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.stop_serving()
        if self._thread is not None:
            self._thread.join(timeout=_JOIN_TIMEOUT)
        self._httpd.close_connections()
        self._httpd.server_close()
        self.workloads.shutdown()

    def __enter__(self) -> "ApiServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()


def _make_handler(control: ControlApi, host: WorkloadHost):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = IDLE_TIMEOUT
        wbufsize = _WRITE_BUFFER
        disable_nagle_algorithm = True

        def log_message(self, *_args) -> None:  # silence stderr spam
            pass

        # -- helpers --------------------------------------------------

        def _send(self, code: int, payload: object,
                  allow: tuple[str, ...] = ()) -> None:
            body = json.dumps(payload).encode()
            self.send_response(code)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if allow:
                self.send_header("Allow", ", ".join(allow))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def _take_body(self) -> None:
            """Read the request body off the connection, whatever the
            route makes of it, so the next request starts clean."""
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                length = -1
            if length < 0:
                self.close_connection = True
                raise ApiError("invalid Content-Length")
            self.body = self.rfile.read(length)

        def _read_body(self) -> dict:
            if not self.body:
                return {}
            try:
                return json.loads(self.body)
            except json.JSONDecodeError:
                raise ApiError("request body is not valid JSON") from None

        def _window(self, query: dict) -> float:
            raw = query.get("window", ["5.0"])[0]
            try:
                window = float(raw)
            except ValueError:
                raise ApiError(f"window must be a number, got "
                               f"{raw!r}") from None
            if not math.isfinite(window):
                raise ApiError(f"window must be finite, got {raw!r}")
            if window <= 0:
                raise ApiError("window must be positive")
            return window

        def _error(self, code: int, symbol: str, exc: Exception,
                   allow: tuple[str, ...] = ()) -> None:
            self._send(code, {"error": {"code": symbol,
                                        "message": str(exc)}}, allow=allow)

        def _route(self, method: str) -> None:
            split = urlsplit(self.path)
            parts = [p for p in split.path.split("/") if p]
            query = parse_qs(split.query)
            try:
                self._take_body()
                handlers = (self._match(parts[1:], query)
                            if parts[:1] == ["v1"] else {})
                if not handlers:
                    raise ApiNotFound(f"unknown path {split.path!r}")
                handler = handlers.get(method)
                if handler is None:
                    raise ApiMethodNotAllowed(
                        f"{method} not allowed on {split.path!r}",
                        allowed=tuple(sorted(handlers)))
                payload = handler()
            except ApiMethodNotAllowed as exc:
                self._error(405, "method_not_allowed", exc,
                            allow=exc.allowed)
            except ApiNotFound as exc:
                self._error(404, "not_found", exc)
            except ApiConflict as exc:
                self._error(409, "conflict", exc)
            except ApiError as exc:
                self._error(400, "bad_request", exc)
            except Exception as exc:  # pragma: no cover - defensive
                self._error(500, "internal", exc)
            else:
                self._send(200, payload)

        def _match(self, parts: list[str], query: dict
                   ) -> dict[str, Callable[[], object]]:
            """Map the path below ``/v1`` to its {method: handler} table.

            An empty table means the path does not exist (404); a known
            path queried with a method missing from its table is a 405.
            """
            if parts == ["benchmarks"]:
                return {"GET": control.benchmarks}
            if parts == ["status"]:
                return {"GET": control.all_status}
            if parts == ["metrics"]:
                return {"GET": lambda: control.all_metrics(
                    window=self._window(query))}
            if parts == ["tenants"]:
                return {"GET": control.tenants}
            if parts == ["workloads"]:
                return {"GET": host.list,
                        "POST": lambda: host.create(self._read_body())}
            if len(parts) == 2 and parts[0] == "workloads":
                tenant = parts[1]
                return {"GET": lambda: control.status(tenant),
                        "DELETE": lambda: host.delete(tenant)}
            if len(parts) == 3 and parts[0] == "workloads":
                tenant, action = parts[1], parts[2]
                if action == "status":
                    return {"GET": lambda: control.status(
                        tenant, window=self._window(query))}
                if action == "metrics":
                    return {"GET": lambda: control.metrics(
                        tenant, window=self._window(query))}
                if action == "presets":
                    return {"GET": lambda: control.presets(tenant)}
                if action in _POST_ACTIONS:
                    return {"POST": lambda: self._post_action(
                        tenant, action)}
                if action in _LIFECYCLE_ACTIONS:
                    verb = host.start if action == "start" else host.stop
                    return {"POST": lambda: verb(tenant)}
                if action == "faults":
                    return {"GET": lambda: control.get_faults(tenant),
                            "PUT": lambda: control.set_faults(
                                tenant, self._read_body())}
                if action == "resilience":
                    return {"GET": lambda: control.get_resilience(tenant),
                            "PUT": lambda: control.set_resilience(
                                tenant, self._read_body())}
            return {}

        def _post_action(self, tenant: str, action: str) -> object:
            body = self._read_body()
            if action == "rate":
                return control.set_rate(tenant, body.get("rate"))
            if action == "weights":
                return control.set_weights(tenant,
                                           body.get("weights", {}))
            if action == "preset":
                return control.set_preset(tenant, body.get("preset", ""))
            if action == "think_time":
                return control.set_think_time(tenant,
                                              body.get("seconds", 0.0))
            if action == "pause":
                return control.pause(tenant)
            return control.resume(tenant)

        def do_GET(self) -> None:  # noqa: N802 - http.server naming
            self._route("GET")

        def do_POST(self) -> None:  # noqa: N802
            self._route("POST")

        def do_PUT(self) -> None:  # noqa: N802
            self._route("PUT")

        def do_DELETE(self) -> None:  # noqa: N802
            self._route("DELETE")

        def do_PATCH(self) -> None:  # noqa: N802
            self._route("PATCH")

    return Handler
