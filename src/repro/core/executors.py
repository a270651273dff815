"""Execution substrates: real threads vs. discrete-event simulation.

Both executors drive the *same* WorkloadManager, request queue, and
benchmark transaction code against the *same* SQL engine, and every
request on either takes the same path: the circuit breaker admits it,
:func:`_execute` samples its transaction type, builds the procedure, runs
it through :func:`~repro.core.resilience.run_with_resilience` and builds
its :class:`~repro.core.results.LatencySample`.  The substrates differ
only in how time passes:

* :class:`ThreadedExecutor` — OLTP-Bench's architecture verbatim: a pacing
  thread feeds the queue each second, worker threads pull requests, execute
  them over DB-API connections, and sleep think times.  Real lock
  contention, real blocking, and a latency that is the wall-clock time the
  attempt loop took.  Subject to GIL scheduling noise, so it backs the live
  demo and integration tests.
  :class:`~repro.core.procexec.ProcessExecutor` runs one of these per child
  process, so it takes the same path.
* :class:`SimulatedExecutor` — a deterministic event loop over a
  :class:`~repro.clock.SimClock`.  Transactions execute against the real
  engine at dispatch time (real rows, real SQL); their *duration* in
  virtual time is sampled from a :class:`DbmsPersonality` given the
  transaction's read/write footprint and the server-wide load (one
  :class:`LoadTracker` per executor makes tenants interfere).  This is the
  substrate for rate-control-precision experiments: exact, fast,
  reproducible.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from ..clock import Clock, GilYielder, RealClock, SimClock
from ..engine.database import Database
from ..engine.dbapi import connect
from ..engine.service import DbmsPersonality, LoadTracker, get_personality
from ..errors import ConfigurationError
from ..faults import FaultingConnection
from ..rand import make_rng
from .manager import STATE_CREATED, WorkloadManager
from .requestqueue import Request
from .resilience import ResilientOutcome, run_with_resilience
from .results import LatencySample

#: Most due requests a throughput worker takes per queue visit.
TAKE_BATCH = 16


# ---------------------------------------------------------------------------
# The per-request path both substrates share
# ---------------------------------------------------------------------------


class _Worker:
    """One worker's connection and random streams (plus simulator state:
    ``busy`` and a per-worker ``extra_think``)."""

    __slots__ = ("worker_id", "conn", "rng", "retry_rng", "busy",
                 "extra_think")

    def __init__(self, worker_id: int, conn: FaultingConnection, rng,
                 retry_rng, extra_think: float = 0.0) -> None:
        self.worker_id = worker_id
        self.conn = conn
        self.rng = rng
        self.retry_rng = retry_rng
        self.busy = False
        self.extra_think = extra_think


def _open_worker(database: Database, manager: WorkloadManager,
                 worker_id: int, extra_think: float = 0.0) -> _Worker:
    """Connect one worker and seed its transaction and retry streams.

    The connection is wrapped for fault injection; the wrapper is inert
    (passes every call straight through) until the retry loop arms it
    with a fault plan.
    """
    config = manager.config
    return _Worker(
        worker_id,
        FaultingConnection(connect(database, isolation=config.isolation)),
        make_rng(config.seed, "worker", manager.tenant, worker_id),
        make_rng(config.seed, "retry", manager.tenant, worker_id),
        extra_think)


#: ``latency(worker, outcome, started) -> seconds``: how a substrate turns
#: a finished attempt loop into the sample's latency.
LatencyModel = Callable[[_Worker, ResilientOutcome, float], float]


def _execute(manager: WorkloadManager, worker: _Worker, request: Request,
             clock: Clock, waiter: Optional[Callable[[float], None]],
             latency: LatencyModel) -> LatencySample:
    """Run one admitted request and return its sample (not yet recorded).

    ``run_with_resilience`` is looked up in this module at call time, so
    a tracer can wrap it by name.
    """
    txn_name = manager.sample_txn_name(worker.rng)
    proc = manager.benchmark.make_procedure(txn_name)
    started = clock.now()
    outcome = run_with_resilience(
        proc, txn_name, worker.conn, worker.rng, clock=clock,
        resilience=manager.resilience, injector=manager.faults,
        retry_rng=worker.retry_rng, waiter=waiter)
    return LatencySample(
        txn_name=txn_name, start=request.arrival_time,
        queue_delay=max(0.0, started - request.arrival_time),
        latency=latency(worker, outcome, started), status=outcome.status,
        worker_id=worker.worker_id, tenant=manager.tenant)


# ---------------------------------------------------------------------------
# Threaded execution
# ---------------------------------------------------------------------------


class ThreadedExecutor:
    """Runs workloads with real worker threads over wall-clock time.

    The worker hot path is batched: each queue visit pulls up to
    :data:`TAKE_BATCH` due requests in one lock/condvar round-trip, and
    each completed transaction lands in a worker-local
    :class:`~repro.core.results.SampleBuffer` that flushes into the
    streaming metrics pipeline in epochs.  While the circuit breaker is
    enabled a worker takes one request per admission.
    """

    def __init__(self, database: Database,
                 clock: Optional[Clock] = None) -> None:
        self.database = database
        self.clock = clock or RealClock()
        self._workloads: list[tuple[WorkloadManager, int]] = []
        self._threads: list[threading.Thread] = []
        self._stop = threading.Event()
        #: Report of the most recent :meth:`run`, including any worker
        #: threads that failed to join (a leak the caller must see).
        self.last_run_report: dict[str, object] = {}

    def add_workload(self, manager: WorkloadManager,
                     workers: Optional[int] = None) -> WorkloadManager:
        self._workloads.append((manager, workers or manager.config.workers))
        return manager

    def run(self, timeout: Optional[float] = None) -> dict[str, object]:
        """Execute all pending workloads to phase completion (or timeout).

        Each call runs the workloads added since construction that have
        not started yet, with a fresh thread list and stop flag — an
        executor can therefore be reused across successive runs without
        accumulating dead (or worse, leaked-but-alive) worker threads.
        Returns a run report; ``report["leaked_threads"]`` names workers
        that missed the join deadline and ``report["error"]`` is set when
        any did.
        """
        if not self._workloads:
            raise ConfigurationError("no workloads added")
        runnable = [(manager, count) for manager, count in self._workloads
                    if manager.state == STATE_CREATED]
        if not runnable:
            raise ConfigurationError(
                "no runnable workloads: every added workload already ran "
                "(add_workload a fresh manager before calling run again)")
        self._stop = threading.Event()
        self._threads = []
        self._worker_count = sum(count for _manager, count in runnable)
        pacers = []
        for manager, worker_count in runnable:
            manager.begin_run(self.clock.now())
            for worker_id in range(worker_count):
                thread = threading.Thread(
                    target=self._worker_loop, args=(manager, worker_id),
                    name=f"{manager.tenant}-worker-{worker_id}", daemon=True)
                self._threads.append(thread)
                thread.start()
            pacer = threading.Thread(
                target=self._pacer_loop, args=(manager,),
                name=f"{manager.tenant}-pacer", daemon=True)
            pacers.append(pacer)
            pacer.start()
        deadline = (self.clock.now() + timeout) if timeout else None
        for pacer in pacers:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - self.clock.now())
            pacer.join(remaining)
        self.stop()
        for thread in self._threads:
            thread.join(timeout=2.0)
        leaked = [thread.name for thread in self._threads
                  if thread.is_alive()]
        report: dict[str, object] = {
            "workloads": len(runnable),
            "worker_threads": len(self._threads),
            "leaked_threads": leaked,
            "ok": not leaked,
        }
        if leaked:
            report["error"] = (
                f"{len(leaked)} worker thread(s) still alive after the "
                f"2s join deadline: {leaked}")
        self.last_run_report = report
        return report

    def stop(self) -> None:
        self._stop.set()
        for manager, _count in self._workloads:
            manager.stop()

    # -- pacing ----------------------------------------------------------

    def _pacer_loop(self, manager: WorkloadManager) -> None:
        second = self.clock.now()
        while not self._stop.is_set():
            if manager.tick(second) is None:
                return
            second += 1.0
            delay = second - self.clock.now()
            if delay > 0:
                self._stop.wait(delay)

    # -- workers ------------------------------------------------------------

    def _worker_loop(self, manager: WorkloadManager, worker_id: int) -> None:
        worker = _open_worker(self.database, manager, worker_id)
        breaker = manager.resilience.breaker
        # Yields between transactions, when the worker holds no engine lock.
        yielder = GilYielder(self._worker_count)
        # Worker-local sample recorder: per-sample appends, epoch flushes.
        # Flushed whenever the worker idles (empty queue, pause, breaker
        # backoff) and on exit, so samples never outlive the worker.
        recorder = manager.results.buffered()
        try:
            while not self._stop.is_set() and not manager.finished:
                if manager.paused or not manager.worker_enabled(worker_id):
                    recorder.flush()
                    self._stop.wait(0.01)
                    continue
                if not manager.breaker_allows():
                    # Breaker open: shed due requests (counted postponed)
                    # instead of executing them, then back off briefly.
                    recorder.flush()
                    manager.shed_breaker_open()
                    self._stop.wait(0.02)
                    continue
                think = manager.current_think_time()
                if manager.closed_loop:
                    batch = [Request(self.clock.now(), 0)]
                else:
                    # One admission covers one request while the breaker
                    # is enabled (a disabled one admits every request).
                    # Thinking workers take one at a time too (they must
                    # sleep between transactions anyway); throughput
                    # workers amortize the lock/condvar round-trip over
                    # up to ``TAKE_BATCH`` due requests.
                    limit = 1 if think > 0 or breaker.enabled else TAKE_BATCH
                    batch = manager.queue.take_batch(limit, timeout=0.2)
                    if not batch:
                        breaker.release()
                        recorder.flush()
                        continue
                try:
                    for request in batch:
                        recorder.add(_execute(
                            manager, worker, request, self.clock,
                            self._stop.wait, self._elapsed))
                        yielder.maybe_yield()
                except Exception:
                    # Engine errors are converted to STATUS_ERROR samples
                    # inside the attempt loop; anything reaching here is a
                    # harness bug.  A worker dying silently would skew
                    # delivered throughput for the rest of the run, so
                    # stop the workload before letting the excepthook
                    # report it.
                    manager.stop()
                    raise
                if think > 0:
                    self._stop.wait(think)
        finally:
            recorder.flush()
            worker.conn.close()

    def _elapsed(self, worker: _Worker, outcome: ResilientOutcome,
                 started: float) -> float:
        """Threaded latency: the wall-clock time the attempt loop took."""
        return self.clock.now() - started


# ---------------------------------------------------------------------------
# Simulated execution
# ---------------------------------------------------------------------------


class _SimWorkload:
    def __init__(self, manager: WorkloadManager,
                 workers: list[_Worker]) -> None:
        self.manager = manager
        self.workers = workers
        self.next_wake: Optional[float] = None


class SimulatedExecutor:
    """Deterministic discrete-event execution over virtual time."""

    def __init__(self, database: Database,
                 personality: DbmsPersonality | str = "inmem",
                 clock: Optional[SimClock] = None) -> None:
        self.database = database
        if isinstance(personality, str):
            personality = get_personality(personality)
        self.personality = personality
        self.clock = clock or SimClock()
        self.tracker = LoadTracker()
        self._workloads: list[_SimWorkload] = []

    def add_workload(self, manager: WorkloadManager,
                     workers: Optional[int] = None,
                     worker_think=None) -> WorkloadManager:
        """Attach a workload; ``worker_think(worker_id) -> seconds`` adds a
        per-worker extra think time, modelling heterogeneous clients."""
        if manager.clock is not self.clock:
            raise ConfigurationError(
                "manager must be constructed with the executor's SimClock")
        count = workers or manager.config.workers
        sim_workers = [
            _open_worker(self.database, manager, worker_id,
                         worker_think(worker_id) if worker_think else 0.0)
            for worker_id in range(count)]
        workload = _SimWorkload(manager, sim_workers)
        self._workloads.append(workload)
        manager.on_control_change = lambda: self._schedule_dispatch(workload)
        return workload.manager

    # -- scheduling helpers --------------------------------------------------

    def at(self, when: float, callback) -> None:
        """Schedule a control action at virtual time ``when``.

        Benches and the game use this to change rates/mixtures mid-run.
        """
        self.clock.call_at(when, callback)

    def _schedule_dispatch(self, workload: _SimWorkload) -> None:
        self.clock.call_at(self.clock.now(),
                           lambda: self._dispatch(workload))

    # -- run loop ------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:
        if not self._workloads:
            raise ConfigurationError("no workloads added")
        start = self.clock.now()
        for workload in self._workloads:
            workload.manager.begin_run(start)
            self._tick(workload, start)
        if until is not None:
            self.clock.run_until(start + until)
        else:
            self.clock.run()

    def _tick(self, workload: _SimWorkload, second: float) -> None:
        manager = workload.manager
        if manager.tick(second) is None:
            return
        self.clock.call_at(second + 1.0,
                           lambda: self._tick(workload, second + 1.0))
        self._dispatch(workload)

    def _dispatch(self, workload: _SimWorkload) -> None:
        manager = workload.manager
        if not manager.running or manager.paused:
            return
        now = self.clock.now()
        closed_loop = manager.closed_loop
        while True:
            worker = next(
                (w for w in workload.workers
                 if not w.busy and manager.worker_enabled(w.worker_id)),
                None)
            if worker is None:
                return
            if not manager.breaker_allows():
                # Breaker open: shed everything already due (counted as
                # postponed) and come back when the cooldown admits a
                # probe.
                manager.shed_breaker_open()
                retry_after = manager.resilience.breaker.retry_after(now)
                if retry_after > 0:
                    self.clock.call_at(now + retry_after,
                                       lambda: self._dispatch(workload))
                return
            request = (Request(now, 0) if closed_loop
                       else manager.queue.poll(now))
            if request is None:
                manager.resilience.breaker.release()
                arrival = manager.queue.next_arrival()
                if arrival is not None and arrival > now:
                    if workload.next_wake is None or \
                            workload.next_wake <= now or \
                            arrival < workload.next_wake:
                        workload.next_wake = arrival
                        self.clock.call_at(
                            arrival, lambda: self._dispatch(workload))
                return
            self._start(workload, worker, request)

    def _start(self, workload: _SimWorkload, worker: _Worker,
               request: Request) -> None:
        # Real SQL execution happens instantly at dispatch; the personality
        # decides how long it *takes* in virtual time.  Retries and
        # injected latency cannot sleep on a SimClock, so the loop runs
        # with waiter=None and its requested waits (backoff delays plus
        # latency spikes) are folded into the virtual service time.
        worker.busy = True
        sample = _execute(workload.manager, worker, request, self.clock,
                          None, self._service_time)
        self.clock.call_later(sample.latency, lambda: self._complete(
            workload, worker, sample))

    def _service_time(self, worker: _Worker, outcome: ResilientOutcome,
                      started: float) -> float:
        """Virtual latency: the personality's service time for the
        transaction's footprint under the current load, plus the waits
        the attempt loop requested.  The transaction counts as in flight
        (a tracker entry keyed by its worker) until :meth:`_complete`."""
        stats = worker.conn.last_txn_stats
        rows_read = stats.rows_read if stats else 0
        writes = stats.write_footprint if stats else 0
        self.tracker.started(worker, writes > 0)
        service = self.personality.service_time(
            worker.rng, rows_read, writes,
            self.tracker.active, self.tracker.active_writers)
        return service + outcome.waited

    def _complete(self, workload: _SimWorkload, worker: _Worker,
                  sample: LatencySample) -> None:
        self.tracker.finished(worker)
        manager = workload.manager
        manager.record(sample)
        think = manager.current_think_time() + worker.extra_think
        if think > 0:
            self.clock.call_later(
                think, lambda: self._free(workload, worker))
        else:
            self._free(workload, worker)

    def _free(self, workload: _SimWorkload, worker: _Worker) -> None:
        worker.busy = False
        self._dispatch(workload)
