"""Process-parallel execution: one OS process per tenant.

The :class:`~repro.core.executors.ThreadedExecutor` runs every tenant's
worker pool inside one Python process, so all tenants share one GIL — at
driver-capacity rates the interpreter itself becomes the bottleneck the
paper's Workload Manager is supposed to never be.  :class:`ProcessExecutor`
escapes it: each tenant gets its own child process owning its own engine
instance, benchmark dataset, request queue, and (batched)
ThreadedExecutor, so each request takes the same per-request path
(breaker admission, then ``executors._execute``) as on the in-process
substrates; the parent coordinates a ready/go barrier so data
loading never pollutes the measured window, and a per-tenant relay thread
drains a pipe carrying the final sample set.

Protocol on each tenant pipe (child -> parent unless noted):

1. ``("ready", tenant)`` once schema + data are loaded;
2. parent -> child ``("go", timeout)`` after *all* tenants are ready;
3. ``("samples", chunk)`` — the final sample list in bounded chunks;
4. ``("done", report)`` and EOF; or ``("error", message)`` followed by the
   child re-raising (never swallowed — the exit code must show it).

Only :class:`~repro.core.results.LatencySample` tuples and plain dicts
cross the pipe; engine objects, managers, and locks never do.  The parent
rebuilds a :class:`~repro.core.results.Results` per tenant via
``record_batch`` (one lock pass per chunk), so post-run reporting and
``merge`` work exactly as with in-process executors.

Caveats (documented in docs/driver-scaling.md): tenants no longer share
one database instance, so this substrate measures *driver* scale-out and
per-tenant-database deployments, not cross-tenant engine interference —
use the threaded or simulated executors for interference studies.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import ConfigurationError
from .benchmark import BenchmarkModule
from .config import WorkloadConfiguration
from .manager import WorkloadManager
from .results import Results, merge

#: Samples per pipe message when relaying the final sample set.
SAMPLE_CHUNK = 1024
#: Seconds each tenant may take to load before the run gives up.
READY_TIMEOUT = 120.0


@dataclass
class TenantSpec:
    """Picklable description of one tenant's workload.

    ``benchmark_factory`` (a module-level callable, so it pickles under
    any multiprocessing start method) receives the spec and must return a
    *loaded* :class:`BenchmarkModule`; when omitted the child builds a
    fresh engine ``Database`` and loads the registry benchmark named by
    ``config.benchmark``.
    """

    config: WorkloadConfiguration
    benchmark_factory: Optional[Callable[["TenantSpec"], BenchmarkModule]] \
        = None


def _build_benchmark(spec: TenantSpec) -> BenchmarkModule:
    if spec.benchmark_factory is not None:
        return spec.benchmark_factory(spec)
    from ..benchmarks import create_benchmark
    from ..engine.database import Database
    bench = create_benchmark(spec.config.benchmark, Database(),
                             scale_factor=spec.config.scale_factor,
                             seed=spec.config.seed)
    bench.load()
    return bench


def _tenant_main(spec: TenantSpec, conn) -> None:
    """Child-process entry point: load, barrier, run, relay, report."""
    from .executors import ThreadedExecutor

    try:
        bench = _build_benchmark(spec)
        executor = ThreadedExecutor(bench.database)
        manager = WorkloadManager(bench, spec.config, clock=executor.clock)
        executor.add_workload(manager)
        conn.send(("ready", spec.config.tenant))
        message = conn.recv()
        if message[0] != "go":
            raise ConfigurationError(
                f"tenant {spec.config.tenant!r} expected 'go', "
                f"got {message[0]!r}")
        report = executor.run(timeout=message[1])

        samples = manager.results.samples()
        for start in range(0, len(samples), SAMPLE_CHUNK):
            conn.send(("samples", samples[start:start + SAMPLE_CHUNK]))
        report = dict(report)
        report.update({
            "tenant": spec.config.tenant,
            "postponed": manager.results.postponed,
            "queue": manager.queue.counters(),
            "recording": manager.results.recorder_stats(),
        })
        conn.send(("done", report))
    except Exception as exc:
        # Surface the failure to the parent, then re-raise so the child
        # exits non-zero; swallowing here would make a dead tenant look
        # like an idle one.
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass
        raise
    finally:
        conn.close()


class _TenantHandle:
    """Parent-side state for one tenant child."""

    __slots__ = ("spec", "process", "conn", "relay", "results", "report",
                 "error")

    def __init__(self, spec: TenantSpec, process, conn) -> None:
        self.spec = spec
        self.process = process
        self.conn = conn
        self.relay: Optional[threading.Thread] = None
        self.results = Results()
        self.report: Optional[dict] = None
        self.error: Optional[str] = None


class ProcessExecutor:
    """Runs each tenant's worker pool in its own OS process.

    ``add_tenant`` one :class:`TenantSpec` per tenant, ``run``, then read
    ``per_tenant_results`` or ``combined_results``.
    """

    def __init__(self) -> None:
        # fork inherits the parent's imports (no re-exec, ~10x faster
        # startup) and keeps closures picklable-free; fall back to the
        # platform default (spawn) where fork is unavailable.
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else None)
        self._tenants: list[_TenantHandle] = []
        self.last_run_report: dict = {}

    def add_tenant(self, spec: TenantSpec) -> TenantSpec:
        if any(h.spec.config.tenant == spec.config.tenant
               for h in self._tenants):
            raise ConfigurationError(
                f"duplicate tenant name {spec.config.tenant!r}")
        self._tenants.append(_TenantHandle(spec, None, None))
        return spec

    # -- run -------------------------------------------------------------

    def run(self, timeout: Optional[float] = None) -> dict:
        """Load all tenants, release them together, collect results.

        The ready/go barrier guarantees data loading (which can dwarf the
        measured phase) never overlaps any tenant's measurement window.
        """
        if not self._tenants:
            raise ConfigurationError("no tenants added")
        for handle in self._tenants:
            parent_conn, child_conn = self._ctx.Pipe()
            process = self._ctx.Process(
                target=_tenant_main, args=(handle.spec, child_conn),
                name=f"repro-{handle.spec.config.tenant}", daemon=True)
            handle.process = process
            handle.conn = parent_conn
            process.start()
            child_conn.close()

        # Barrier: wait until every tenant has loaded.
        for handle in self._tenants:
            if not handle.conn.poll(READY_TIMEOUT):
                self.stop()
                raise ConfigurationError(
                    f"tenant {handle.spec.config.tenant!r} did not become "
                    f"ready within {READY_TIMEOUT}s")
            kind, payload = handle.conn.recv()
            if kind == "error":
                self.stop()
                raise ConfigurationError(
                    f"tenant {handle.spec.config.tenant!r} failed to "
                    f"load: {payload}")

        for handle in self._tenants:
            handle.conn.send(("go", timeout))
            relay = threading.Thread(
                target=self._relay_loop, args=(handle,),
                name=f"relay-{handle.spec.config.tenant}", daemon=True)
            handle.relay = relay
            relay.start()

        join_timeout = (timeout + 30.0) if timeout else None
        for handle in self._tenants:
            assert handle.relay is not None
            handle.relay.join(join_timeout)
            handle.process.join(5.0)

        leaked = [h.spec.config.tenant for h in self._tenants
                  if h.process.is_alive()]
        errors = {h.spec.config.tenant: h.error
                  for h in self._tenants if h.error}
        report: dict = {
            "tenants": len(self._tenants),
            "per_tenant": {h.spec.config.tenant: h.report
                           for h in self._tenants},
            "leaked_processes": leaked,
            "errors": errors,
            "ok": not leaked and not errors,
        }
        if leaked:
            self.stop()
            report["error"] = (
                f"{len(leaked)} tenant process(es) still alive after "
                f"join: {leaked}")
        elif errors:
            report["error"] = f"tenant failures: {errors}"
        self.last_run_report = report
        return report

    def _relay_loop(self, handle: _TenantHandle) -> None:
        conn = handle.conn
        while True:
            try:
                kind, payload = conn.recv()
            except (EOFError, OSError):
                if handle.report is None and handle.error is None:
                    handle.error = "tenant pipe closed before 'done'"
                return
            if kind == "samples":
                handle.results.record_batch(payload)
            elif kind == "done":
                handle.report = payload
                handle.results.record_postponed(payload["postponed"])
                return
            elif kind == "error":
                handle.error = payload
                return

    def stop(self) -> None:
        """Terminate all tenant processes (hard stop)."""
        for handle in self._tenants:
            if handle.process is not None and handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(2.0)

    # -- reporting --------------------------------------------------------

    def per_tenant_results(self) -> dict[str, Results]:
        return {h.spec.config.tenant: h.results for h in self._tenants}

    def combined_results(self) -> Results:
        return merge(self.per_tenant_results().values())
