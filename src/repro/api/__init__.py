"""The runtime control API (paper §2.2.4).

"We created a RESTful application programming interface (API) for
OLTP-Bench that exposes the ability to programmatically control its
execution at the runtime. This includes changing the current phase
parameters by throttling the throughput or changing the workload mixture.
In addition, this API also provides instantaneous feedback about the
current execution throughput and average latency per transaction type."

Three pieces:

* :class:`ControlApi` — the in-process facade over registered
  WorkloadManagers; the game drives this directly in simulated runs;
* :class:`ApiServer` — an HTTP/JSON server exposing the facade under the
  versioned ``/v1`` surface (any other path is a 404);
* :class:`WorkloadHost` — workload lifecycle (create/start/stop/delete)
  over HTTP;
* :class:`ApiClient` — a Python client with the same method surface,
  speaking v1 with timeouts and connection-failure retries.
"""

from .control import ControlApi
from .lifecycle import WorkloadHost
from .server import ApiServer
from .client import ApiClient

__all__ = ["ControlApi", "ApiServer", "ApiClient", "WorkloadHost"]
