"""The benchmark's three workloads, their output checks and their metrics.

* ``tpcc-closed`` — TPC-C, one warehouse, closed loop on the threaded
  executor with deadlock victims retried: engine- and lock-bound, skips
  the queue.
* ``ycsb-open`` — YCSB, open loop on the threaded executor with retries
  on: phase A below capacity (latency), phase B above it (throughput and
  feedback).  Bound by the pacer, queue and recording path.  Runnable,
  but not declared in ``BENCHMARK.json``: its sub-millisecond requests
  are too exposed to the host's scheduling noise (on a shared 2-vCPU Xeon
  VM, five-seed quartile spreads reached 0.20 on throughput, 0.29 on
  median and 0.59 on p99 latency, against the 0.25 largest bound a metric
  may have).
* ``tpcc-sim`` — small TPC-C on the simulated executor: single-threaded
  and deterministic, so time per transaction is code cost.

Every workload returns a :class:`Report`: end-to-end metrics, or per-layer
metrics in the traced run, each with its unit and sample count, plus the
output checks and the failure accounting.  A feedback client polls the
workload's metrics through the REST API at 10 Hz while it runs, as the
game does.  The process runs on one core (``run.py`` pins it) and every
timed section starts from a collected heap.

Costs are measured in CPU time, not wall time.  On a shared virtual host
the hypervisor steals a varying share of the wall clock (3-17% between
runs on a 2-vCPU Xeon VM), which moved wall-clock throughput by up to 20%
between runs of one seed.  CPU time excludes stolen time, and the measured windows keep
the process at one busy core (the GIL), so on an unshared host CPU time
and wall time agree.  ``throughput_tps`` divides committed transactions by
the process CPU time; per-transaction costs are the worker thread's CPU
time from one transaction start to its next.  Latencies and feedback round
trips are what a client waits for and stay on the wall clock.

The host's own speed still swung by nearly 2x within a minute on that VM,
and CPU time moves with it.  So every time is also scaled by the host's
speed over the interval it was measured in (:mod:`hostspeed`): the figures
read as on a host of the reference speed.  The run record keeps the
unscaled figures, the wall-clock throughput and set-up time, and the host
speed factors beside them.

Per-transaction figures are weighted by the configured mixture (each
type's median, or its own distribution, weighted by its configured share),
so the few heavy Delivery and StockLevel transactions a run happens to draw
do not move them; with 4% shares they swing the raw mean by 10% or more.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import threading
import time
import traceback
from bisect import bisect_right
from collections import Counter, defaultdict
from typing import Callable, Optional

from repro.api import ApiClient, ApiServer, ControlApi
from repro.benchmarks.tpcc import TpccBenchmark
from repro.benchmarks.ycsb import YcsbBenchmark
from repro.clock import SimClock
from repro.core import (Phase, RATE_DISABLED, SimulatedExecutor,
                        STATUS_ABORTED, STATUS_ERROR, STATUS_OK,
                        ThreadedExecutor, WorkloadConfiguration,
                        WorkloadManager)
from repro.engine import Database
from repro.faults import FaultProfile

import layers
from hostspeed import HostSpeed
from stats import pct
from tracing import Tracer

#: Worker connections of the threaded workloads: one per CPU.
WORKERS = len(os.sched_getaffinity(0))
#: Warm-up run (plan caches fill), excluded from every measured window.
WARMUP_SECONDS = 1.0
FEEDBACK_PERIOD = 0.1  # the game's 10 Hz altitude loop
#: A poll's round trip is partly CPU work, which the host's speed scales,
#: and partly waits for the GIL switch interval, a fixed wall time: against
#: the host-speed factor its elasticity was 0.3 on tpcc-sim and 0.7 on
#: tpcc-closed (ten runs each on a 2-vCPU Xeon VM), so round trips are
#: scaled by the factor to this power.
FEEDBACK_SPEED_EXPONENT = 0.5

TPCC_CLOSED_SIZES = dict(districts=10, customers_per_district=300,
                         items=10_000, initial_orders=300)
TPCC_CLOSED_SETUPS = 5
#: Attempts per request.  The two workers deadlock a few times in 100k
#: transactions; like a TPC-C client, the loop retries the victim, so no
#: request fails.
TPCC_CLOSED_RETRIES = 3

YCSB_SCALE = 10
YCSB_RATE_A = 3000.0  # about a third of the threaded executor's capacity
YCSB_RATE_B = 18000.0  # about twice its capacity; cap-policy sheds the rest
YCSB_RETRIES = 3
YCSB_SETUPS = 3

TPCC_SIM_SIZES = dict(districts=2, customers_per_district=40, items=100,
                      initial_orders=25)
SIM_RATE = 200.0
SIM_WORKERS = 8
SIM_PERSONALITY = "mysql"
#: Virtual seconds simulated per second of ``--seconds``; the run is split
#: over two identical simulations whose digests must agree.
SIM_VIRTUAL_PER_SECOND = 0.75
SIM_WARMUP_VIRTUAL = 1.0
SIM_MIN_SETUPS = 3
SIM_SETUP_BUDGET = 0.5

cpu_time = time.process_time


class Report:
    """Everything one run measured and checked."""

    def __init__(self) -> None:
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.checks: dict[str, bool] = {}
        self.attempted = 0
        self.failed = 0
        self.outcomes: dict[str, object] = {}
        #: Figures the run record keeps beside the metrics: wall-clock
        #: counterparts of the CPU-time ones.
        self.extra: dict[str, float] = {}
        #: The traced run's tracer, whose spans ``--out`` writes.
        self.tracer: Optional[Tracer] = None

    def metric(self, name: str, value: float, unit: str,
               samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok) and self.checks.get(name, True)

    def account(self, samples: list, delta: dict[str, dict],
                refused: int = 0, shed: int = 0) -> None:
        """Failures are error samples, conflict aborts and refused
        requests; intended aborts and by-design shedding are counted apart.
        A conflict (deadlock or lock timeout) the retry policy retried is
        not a failure, so the conflicts that ended a request are the
        engine's count less the retries; the aborts beyond those are the
        benchmark's intended rollbacks (TPC-C's ``UserAbort``)."""
        statuses = Counter(s.status for s in samples)
        locks = delta["locks"]
        conflicts = min(statuses[STATUS_ABORTED],
                        max(0, locks["deadlocks"] + locks["timeouts"]
                            - delta["resilience"]["retried"]))
        errors = statuses[STATUS_ERROR]
        self.attempted += len(samples) + refused
        self.failed += errors + conflicts + refused
        for key, value in (("errors", errors), ("conflict_aborts", conflicts),
                           ("refused", refused),
                           ("intended_aborts",
                            statuses[STATUS_ABORTED] - conflicts),
                           ("shed", shed)):
            self.outcomes[key] = self.outcomes.get(key, 0) + value

    def add_layers(self, values: dict[str, tuple[float, int]],
                   tracer: Tracer) -> None:
        self.tracer = tracer
        units = dict(layers.PER_LAYER)
        for name, (value, samples) in values.items():
            self.metric(name, value, units[name], samples)
        self.metric("outcome.failed_ratio",
                    self.failed / max(1, self.attempted), "ratio",
                    self.attempted)

    def latency(self, by_type: dict[str, list[float]],
                weights: dict[str, float]) -> None:
        """``latency_p50_ms`` is :func:`mixture_median`: TPC-C's mixture
        puts its own median in the gap between the fast Payment and the
        slower NewOrder latencies, where it jumped between 1.6 and 3.4 ms
        from run to run."""
        samples = sum(map(len, by_type.values()))
        self.metric("latency_p50_ms", mixture_median(by_type, weights) * 1e3,
                    "ms", samples)
        self.metric("latency_p99_ms", mixture_pct(by_type, weights, 99) * 1e3,
                    "ms", samples)

    def feedback_errors(self, feedback: "Feedback") -> None:
        self.check("feedback_polls_ok", not feedback.errors)
        if feedback.errors:
            self.outcomes["feedback_errors"] = feedback.errors[:3]

    def feedback(self, feedback: "Feedback", speed: HostSpeed) -> None:
        round_trips = [(ended - started) * speed.factor(started, ended)
                       ** FEEDBACK_SPEED_EXPONENT
                       for started, ended in feedback.polls]
        for name, q in (("feedback_p50_ms", 50), ("feedback_p95_ms", 95)):
            self.metric(name, pct(round_trips, q) * 1e3, "ms",
                        len(round_trips))

    def tail(self, by_type: dict[str, list[float]],
             weights: dict[str, float]) -> None:
        self.metric("tail_ms_per_txn", mixture_median(by_type, weights) * 1e3,
                    "ms", sum(map(len, by_type.values())))

    def throughput(self, committed: int, cpu: float, scaled_cpu: float,
                   wall: float) -> None:
        self.metric("throughput_tps", committed / scaled_cpu, "1/s",
                    committed)
        self.extra["throughput_unscaled_tps"] = committed / cpu
        self.extra["throughput_wall_tps"] = committed / wall
        self.extra["host_speed_factor"] = scaled_cpu / cpu


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _weighted(by_type: dict[str, list[float]], weights: dict[str, float]
              ) -> dict[str, float]:
    """Configured shares of the types that have samples, summing to 1."""
    present = {name: weights.get(name, 0.0) for name, values
               in by_type.items() if values and weights.get(name, 0.0) > 0}
    total = sum(present.values())
    return {name: weight / total for name, weight in present.items()}


def mixture_pct(by_type: dict[str, list[float]], weights: dict[str, float],
                q: float) -> float:
    """The ``q``-th percentile of the configured mixture: each type's
    empirical distribution weighted by its configured share."""
    shares = _weighted(by_type, weights)
    if not shares:
        return 0.0
    ordered = {name: sorted(by_type[name]) for name in shares}

    def below(value: float) -> float:
        return sum(share * bisect_right(ordered[name], value)
                   / len(ordered[name]) for name, share in shares.items())

    candidates = sorted(v for values in ordered.values() for v in values)
    low, high = 0, len(candidates) - 1
    while low < high:
        middle = (low + high) // 2
        if below(candidates[middle]) >= q / 100.0:
            high = middle
        else:
            low = middle + 1
    return candidates[low]


def mixture_median(by_type: dict[str, list[float]],
                   weights: dict[str, float]) -> float:
    """Each type's median weighted by its configured share: the typical
    transaction of the mixture, robust to the few heavy ones a run draws
    (the weighted mean of tpcc-closed's last-quarter costs ranged from 2.1
    to 3.0 ms over five runs)."""
    shares = _weighted(by_type, weights)
    return sum(share * pct(by_type[name], 50)
               for name, share in shares.items())


def by_type(pairs) -> dict[str, list[float]]:
    grouped: dict[str, list[float]] = defaultdict(list)
    for name, value in pairs:
        grouped[name].append(value)
    return grouped


class Setups:
    """Times repeated builds of a workload's state, each from a collected
    heap; ``setup_s`` is the median of their CPU times, each scaled by the
    host's speed while it ran."""

    def __init__(self, build: Callable[[], object],
                 discard: Callable[[object], None] = lambda _built: None
                 ) -> None:
        self._build = build
        self._discard = discard
        self.cpu: list[float] = []
        self.wall: list[float] = []
        self.spans: list[tuple[float, float]] = []

    def build(self, at_least: int, budget: float = 0.0,
              at_most: int = 25) -> object:
        """Build ``at_least`` times, and more while these builds took
        under ``budget`` CPU seconds; return the last build."""
        built, spent, count = None, 0.0, 0
        while count < at_least or (spent < budget and count < at_most):
            if built is not None:
                self._discard(built)
                built = None
            gc.collect()
            wall, cpu = time.monotonic(), cpu_time()
            built = self._build()
            self.cpu.append(cpu_time() - cpu)
            self.spans.append((wall, time.monotonic()))
            self.wall.append(self.spans[-1][1] - wall)
            spent += self.cpu[-1]
            count += 1
        return built

    def report(self, report: Report, speed: HostSpeed) -> None:
        report.metric("setup_s", pct([cpu * speed.factor(*span) for cpu, span
                                      in zip(self.cpu, self.spans)], 50),
                      "s", len(self.cpu))
        report.extra["setup_unscaled_s"] = pct(self.cpu, 50)
        report.extra["setup_wall_s"] = pct(self.wall, 50)


def counter_state(db: Database, manager: WorkloadManager) -> dict[str, dict]:
    stats = manager.resilience.stats.snapshot()
    return {
        "engine": db.counters.snapshot(),
        "locks": db.lock_manager.stats.snapshot(),
        "plan_cache": db.plan_cache.snapshot(),
        "resilience": {key: stats[key] for key in ("attempts", "retried")},
    }


def counter_delta(before: dict[str, dict], after: dict[str, dict]
                  ) -> dict[str, dict]:
    return {group: {key: value - before[group].get(key, 0)
                    for key, value in after[group].items()
                    if isinstance(value, (int, float))}
            for group in after}


def sum_deltas(deltas: list[dict[str, dict]]) -> dict[str, dict]:
    total: dict[str, dict] = {}
    for delta in deltas:
        for group, values in delta.items():
            bucket = total.setdefault(group, {})
            for key, value in values.items():
                bucket[key] = bucket.get(key, 0) + value
    return total


class TxnCosts:
    """Per-transaction CPU cost: the worker thread's CPU time from one
    transaction start to its next, taken where the executors draw each
    transaction's type (``WorkloadManager.sample_txn_name``)."""

    def __init__(self, manager: WorkloadManager) -> None:
        self.manager = manager
        self._starts: dict[int, list[tuple[float, float, str]]] = \
            defaultdict(list)
        sample = manager.sample_txn_name
        starts = self._starts

        def timed_sample(rng):
            name = sample(rng)
            starts[threading.get_ident()].append(
                (time.monotonic(), time.thread_time(), name))
            return name

        manager.sample_txn_name = timed_sample

    def close(self) -> None:
        del self.manager.sample_txn_name

    def count(self) -> int:
        return sum(map(len, self._starts.values()))

    def costs(self, speed: HostSpeed, low: float = float("-inf"),
              high: float = float("inf")) -> dict[str, list[float]]:
        """CPU seconds of the transactions started in ``[low, high)``,
        each scaled by the host's speed while it ran."""
        return by_type(
            (name, (next_cpu - cpu) * speed.factor(at, next_at))
            for starts in self._starts.values()
            for (at, cpu, name), (next_at, next_cpu, _name)
            in zip(starts, starts[1:]) if low <= at < high)


class Window:
    """One measured executor run of one workload manager.

    ``ticks`` holds ``(second, cpu)`` for every pacer tick: the second
    boundary the tick served (on the threaded executor's clock,
    ``time.monotonic``) and the process CPU time when it ran.
    """

    def __init__(self, manager: WorkloadManager, ticks: list,
                 costs: TxnCosts, wall: float, delta: dict[str, dict],
                 run_report: dict) -> None:
        self.manager = manager
        self.ticks = ticks
        self.costs = costs
        self.wall = wall
        self.delta = delta
        self.run_report = run_report
        self.samples = manager.results.samples()

    def inside(self) -> list:
        """Samples completed between the first and the last tick."""
        low, high = self.ticks[0][0], self.ticks[-1][0]
        return [s for s in self.samples if low <= s.end <= high]

    def committed(self) -> int:
        return sum(1 for s in self.inside() if s.status == STATUS_OK)

    def cpu(self) -> float:
        return max(self.ticks[-1][1] - self.ticks[0][1], 1e-9)

    def scaled_cpu(self, speed: HostSpeed) -> float:
        """Process CPU time, each second scaled by the host's speed."""
        return max(sum((cpu - last_cpu) * speed.factor(last, second)
                       for (last, last_cpu), (second, cpu)
                       in zip(self.ticks, self.ticks[1:])), 1e-9)

    def committed_per_cpu_s(self, speed: HostSpeed) -> float:
        return self.committed() / self.scaled_cpu(speed)

    def measure_throughput(self, report: Report, speed: HostSpeed) -> None:
        report.throughput(self.committed(), self.cpu(), self.scaled_cpu(speed),
                          self.ticks[-1][0] - self.ticks[0][0])

    def latencies(self, speed: HostSpeed) -> dict[str, list[float]]:
        """Latency of each transaction completed inside the window, scaled
        by the host's speed while it ran."""
        return by_type((s.txn_name,
                        s.latency * speed.factor(s.end - s.latency, s.end))
                       for s in self.inside())

    def last_quarter_costs(self, speed: HostSpeed
                           ) -> dict[str, list[float]]:
        low, high = self.ticks[0][0], self.ticks[-1][0]
        return self.costs.costs(speed, low + 0.75 * (high - low), high)

    def statuses(self) -> Counter:
        return Counter(s.status for s in self.samples)


def new_manager(benchmark, tenant: str, phase: Phase, seed: int, *,
                workers: int, retries: int = 1, clock=None
                ) -> WorkloadManager:
    config = WorkloadConfiguration(benchmark=benchmark.name, workers=workers,
                                   seed=seed, tenant=tenant, phases=[phase])
    manager = WorkloadManager(benchmark, config, clock=clock)
    manager.faults.set_profile(FaultProfile())
    if retries > 1:
        manager.set_resilience({"max_attempts": retries})
    return manager


class Feedback:
    """The feedback client: polls one tenant's metrics through the REST
    API at a fixed period from its own thread, like the game's altitude
    loop, against a live :class:`ApiServer`."""

    def __init__(self, control: ControlApi, url: str,
                 tracer: Optional[Tracer] = None) -> None:
        self.control = control
        self.client = ApiClient(url)
        self.tracer = tracer
        #: ``(started, ended)`` of each answered poll.
        self.polls: list[tuple[float, float]] = []
        self.errors: list[str] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self, manager: WorkloadManager) -> None:
        self.control.register(manager)
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, args=(manager.tenant,),
            name="feedback-client", daemon=True)
        self._thread.start()

    def stop(self, manager: WorkloadManager) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.control.unregister(manager.tenant)

    def _loop(self, tenant: str) -> None:
        due = time.monotonic()
        while not self._stop.is_set():
            started = time.monotonic()
            try:
                payload = self.client.metrics(tenant)
                if payload.get("tenant") != tenant:
                    raise AssertionError(f"poll answered for {payload!r}")
            except Exception:  # noqa: BLE001 - kept for the run record
                # The client thread must keep polling; the failure is
                # reported in the run record and fails the run's checks.
                self.errors.append(traceback.format_exc(limit=3))
            else:
                ended = time.monotonic()
                self.polls.append((started, ended))
                if self.tracer is not None:
                    self.tracer.record("api.poll", started, ended)
            due += FEEDBACK_PERIOD
            self._stop.wait(max(0.0, due - time.monotonic()))


def threaded_window(benchmark, tenant: str, phase: Phase, seed: int, *,
                    retries: int = 1, tracer: Optional[Tracer] = None,
                    feedback: Optional[Feedback] = None) -> Window:
    """Run one phase on a fresh :class:`ThreadedExecutor` and measure it."""
    db = benchmark.database
    manager = new_manager(benchmark, tenant, phase, seed, workers=WORKERS,
                          retries=retries)
    executor = ThreadedExecutor(db)
    executor.add_workload(manager, WORKERS)
    before = counter_state(db, manager)
    if tracer is not None:
        layers.install(tracer, benchmark)
    # The pacer ticks once a second (the last tick ends the phase); note
    # the process CPU time at each to divide costs by.
    ticks: list[tuple[float, float]] = []
    tick = manager.tick

    def timed_tick(second):
        ticks.append((second, cpu_time()))
        return tick(second)

    manager.tick = timed_tick
    costs = TxnCosts(manager)
    gc.collect()
    try:
        if feedback is not None:
            feedback.start(manager)
        started = time.perf_counter()
        run_report = executor.run(timeout=phase.duration + 30.0)
        wall = time.perf_counter() - started
        if feedback is not None:
            feedback.stop(manager)
    finally:
        costs.close()
        del manager.tick
        if tracer is not None:
            tracer.uninstall()
    delta = counter_delta(before, counter_state(db, manager))
    return Window(manager, ticks, costs, wall, delta, run_report)


def threads_settled(baseline: set) -> bool:
    """True once every thread started during the run has ended."""
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if not [t for t in threading.enumerate() if t not in baseline]:
            return True
        time.sleep(0.05)
    return False


def threaded_layers(tracer: Tracer, windows: list[Window],
                    queue_delays: list[float], postponed: int
                    ) -> dict[str, tuple[float, int]]:
    return layers.compute(
        tracer.spans(), tracer.thread_names(),
        txns=sum(len(w.samples) for w in windows),
        worker_time=sum(w.wall for w in windows) * WORKERS, simulated=False,
        deltas=sum_deltas([w.delta for w in windows]),
        queue_delays=queue_delays, postponed=postponed, quarters=None)


# ---------------------------------------------------------------------------
# tpcc-closed
# ---------------------------------------------------------------------------


def _load_tpcc(seed: int, sizes: dict, clock=None) -> TpccBenchmark:
    db = Database(clock=clock)
    benchmark = TpccBenchmark(db, scale_factor=1, seed=seed, **sizes)
    benchmark.load()
    return benchmark


def tpcc_closed(seed: int, seconds: float, trace: bool,
                speed: HostSpeed) -> Report:
    report = Report()
    baseline = set(threading.enumerate())
    setups = Setups(lambda: _load_tpcc(seed, TPCC_CLOSED_SIZES))
    benchmark = setups.build(1 if trace else TPCC_CLOSED_SETUPS)
    threaded_window(benchmark, "warmup",
                    Phase(duration=WARMUP_SECONDS, rate=RATE_DISABLED), seed,
                    retries=TPCC_CLOSED_RETRIES)
    phase = Phase(duration=seconds, rate=RATE_DISABLED)
    control = ControlApi()
    tracer = Tracer() if trace else None
    with ApiServer(control) as server:
        feedback = Feedback(control, server.url)
        windows = [threaded_window(benchmark, "tpcc", phase, seed + 1,
                                   retries=TPCC_CLOSED_RETRIES,
                                   feedback=None if trace else feedback)]
        if trace:
            feedback.tracer = tracer
            windows.append(threaded_window(benchmark, "tpcc-traced", phase,
                                           seed + 2,
                                           retries=TPCC_CLOSED_RETRIES,
                                           tracer=tracer, feedback=feedback))
    measured = windows[-1]
    for each in windows:
        report.check("executor_run_ok", each.run_report.get("ok", False))
    report.feedback_errors(feedback)
    report.check("no_leaked_threads", threads_settled(baseline))
    for name, ok in benchmark.check_consistency().items():
        report.check(f"tpcc_consistency.{name}", ok)
    report.account(measured.samples, measured.delta)

    inside = measured.inside()
    if trace:
        values = threaded_layers(tracer, [measured], [], 0)
        values["tracing.overhead_ratio"] = (
            measured.committed_per_cpu_s(speed)
            / max(windows[0].committed_per_cpu_s(speed), 1e-9), len(inside))
        report.add_layers(values, tracer)
        return report
    weights = measured.manager.current_weights()
    setups.report(report, speed)
    measured.measure_throughput(report, speed)
    report.latency(measured.latencies(speed), weights)
    report.metric("delivered_ratio", measured.committed() / max(1, len(inside)),
                  "ratio", len(inside))
    report.feedback(feedback, speed)
    report.tail(measured.last_quarter_costs(speed), weights)
    return report


# ---------------------------------------------------------------------------
# ycsb-open
# ---------------------------------------------------------------------------


class _YcsbSetup:
    def __init__(self, seed: int) -> None:
        self.benchmark = YcsbBenchmark(Database(), scale_factor=YCSB_SCALE,
                                       seed=seed)
        self.benchmark.load()
        self.control = ControlApi()
        self.server = ApiServer(self.control).start()

    def close(self) -> None:
        self.server.stop()


def _queue_consistent(window: Window) -> bool:
    counters = window.manager.queue.counters()
    return counters["offered"] == (counters["taken"] + counters["postponed"]
                                   + counters["depth"])


def ycsb_open(seed: int, seconds: float, trace: bool,
              speed: HostSpeed) -> Report:
    report = Report()
    baseline = set(threading.enumerate())
    setups = Setups(lambda: _YcsbSetup(seed), lambda built: built.close())
    setup = setups.build(1 if trace else YCSB_SETUPS)
    try:
        return _ycsb_measure(report, setups, setup, seed, seconds, trace,
                             speed)
    finally:
        setup.close()
        report.check("no_leaked_threads", threads_settled(baseline))


def _ycsb_phases(setup: _YcsbSetup, seed: int, seconds: float,
                 tracer: Optional[Tracer]) -> tuple[Window, Window, Feedback]:
    """Phase A below capacity, then phase B above it with the feedback
    client polling (its GIL handoffs would otherwise sit in phase A's
    latency tail)."""
    feedback = Feedback(setup.control, setup.server.url, tracer)
    half = seconds / 2.0
    phase_a = threaded_window(
        setup.benchmark, "ycsb-a", Phase(duration=half, rate=YCSB_RATE_A),
        seed, retries=YCSB_RETRIES, tracer=tracer)
    phase_b = threaded_window(
        setup.benchmark, "ycsb-b", Phase(duration=half, rate=YCSB_RATE_B),
        seed + 1, retries=YCSB_RETRIES, tracer=tracer, feedback=feedback)
    return phase_a, phase_b, feedback


def _ycsb_measure(report: Report, setups: Setups, setup: _YcsbSetup,
                  seed: int, seconds: float, trace: bool, speed: HostSpeed
                  ) -> Report:
    threaded_window(setup.benchmark, "warmup",
                    Phase(duration=WARMUP_SECONDS, rate=YCSB_RATE_A), seed,
                    retries=YCSB_RETRIES)
    phase_a, phase_b, feedback = _ycsb_phases(setup, seed + 2, seconds, None)
    tracer = Tracer() if trace else None
    if trace:
        untraced_tps = phase_b.committed_per_cpu_s(speed)
        phase_a, phase_b, feedback = _ycsb_phases(setup, seed + 4, seconds,
                                                  tracer)
    for window in (phase_a, phase_b):
        report.check("executor_run_ok", window.run_report.get("ok", False))
        report.check("queue_accounting", _queue_consistent(window))
    report.feedback_errors(feedback)
    counters_a = phase_a.manager.queue.counters()
    counters_b = phase_b.manager.queue.counters()
    report.account(phase_a.samples, phase_a.delta,
                   refused=counters_a["postponed"])
    report.account(phase_b.samples, phase_b.delta,
                   shed=counters_b["postponed"])

    if trace:
        values = threaded_layers(
            tracer, [phase_a, phase_b],
            [s.queue_delay for s in phase_a.inside()],
            counters_a["postponed"] + counters_b["postponed"])
        values["tracing.overhead_ratio"] = (
            phase_b.committed_per_cpu_s(speed) / max(untraced_tps, 1e-9),
            len(phase_b.inside()))
        report.add_layers(values, tracer)
        return report
    setups.report(report, speed)
    phase_b.measure_throughput(report, speed)
    # Open loop: a request's latency counts from when it was due.  Each
    # percentile is the median over the phase's seconds of that second's
    # percentile, so one stalled second (a full garbage collection, a burst
    # of stolen CPU) does not decide the run's figure.
    per_second = [([s.queue_delay + s.latency for s in phase_a.samples
                    if low <= s.start < high], speed.factor(low, high))
                  for (low, _), (high, _) in zip(phase_a.ticks,
                                                 phase_a.ticks[1:])]
    for name, q in (("latency_p50_ms", 50), ("latency_p99_ms", 99)):
        report.metric(name, pct([pct(due, q) * scale
                                 for due, scale in per_second], 50) * 1e3,
                      "ms", sum(len(due) for due, _ in per_second))
    report.metric("delivered_ratio",
                  phase_a.statuses()[STATUS_OK]
                  / max(1, counters_a["offered"]), "ratio",
                  counters_a["offered"])
    report.feedback(feedback, speed)
    report.tail(phase_b.last_quarter_costs(speed),
                phase_b.manager.current_weights())
    return report


# ---------------------------------------------------------------------------
# tpcc-sim
# ---------------------------------------------------------------------------


class SimRun:
    """One deterministic simulated TPC-C run, timed in quarters."""

    def __init__(self, benchmark: TpccBenchmark, clock: SimClock,
                 seed: int, virtual_seconds: float, feedback: Feedback,
                 tracer: Optional[Tracer] = None) -> None:
        self.benchmark = benchmark
        db = benchmark.database
        phase = Phase(duration=SIM_WARMUP_VIRTUAL + virtual_seconds,
                      rate=SIM_RATE)
        manager = new_manager(benchmark, "tpcc-sim", phase, seed,
                              workers=SIM_WORKERS, clock=clock)
        executor = SimulatedExecutor(db, SIM_PERSONALITY, clock)
        executor.add_workload(manager, SIM_WORKERS)
        self.manager = manager
        origin = clock.now()
        executor.run(until=SIM_WARMUP_VIRTUAL)
        before = counter_state(db, manager)
        self.costs = TxnCosts(manager)
        if tracer is not None:
            layers.install(tracer, benchmark)
        #: Monotonic bounds of each quarter (to place spans and costs) and
        #: the process CPU time each took.
        self.quarters: list[tuple[float, float]] = []
        self.quarter_cpu: list[float] = []
        gc.collect()
        feedback.start(manager)
        try:
            for quarter in range(1, 5):
                wall, cpu = time.monotonic(), cpu_time()
                clock.run_until(origin + SIM_WARMUP_VIRTUAL
                                + virtual_seconds * quarter / 4)
                self.quarter_cpu.append(cpu_time() - cpu)
                self.quarters.append((wall, time.monotonic()))
        finally:
            self.cpu = sum(self.quarter_cpu)
            feedback.stop(manager)
            if tracer is not None:
                tracer.uninstall()
            self.costs.close()
        self.wall = self.quarters[-1][1] - self.quarters[0][0]
        self.txns = self.costs.count()
        self.delta = counter_delta(before, counter_state(db, manager))
        clock.run()  # drain in-flight completions and the final tick
        self.samples = manager.results.samples()

    def scaled_cpu(self, speed: HostSpeed) -> float:
        """Process CPU time, each quarter scaled by the host's speed."""
        return sum(cpu * speed.factor(*bounds)
                   for cpu, bounds in zip(self.quarter_cpu, self.quarters))

    def last_quarter_costs(self, speed: HostSpeed
                           ) -> dict[str, list[float]]:
        return self.costs.costs(speed, *self.quarters[-1])

    def digest(self) -> str:
        """Per-type committed/aborted counts plus the engine counters."""
        outcome = Counter((s.txn_name, s.status) for s in self.samples)
        payload = {
            "outcomes": sorted(f"{name}:{status}:{count}" for
                               (name, status), count in outcome.items()),
            "engine": self.benchmark.database.counters.snapshot(),
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True)
                              .encode()).hexdigest()[:16]


def _sim_setup(seed: int) -> tuple[TpccBenchmark, SimClock]:
    clock = SimClock()
    return _load_tpcc(seed, TPCC_SIM_SIZES, clock), clock


def _merge(groups: list[dict[str, list[float]]]) -> dict[str, list[float]]:
    merged: dict[str, list[float]] = defaultdict(list)
    for group in groups:
        for name, values in group.items():
            merged[name].extend(values)
    return merged


def tpcc_sim(seed: int, seconds: float, trace: bool,
             speed: HostSpeed) -> Report:
    """Two identical simulations; the second is traced in a traced run."""
    report = Report()
    baseline = set(threading.enumerate())
    virtual = SIM_VIRTUAL_PER_SECOND * seconds
    # Half the set-ups before each simulation: a run's set-up figure then
    # spans its whole length, not only its first second.
    setups = Setups(lambda: _sim_setup(seed))
    control = ControlApi()
    tracer = Tracer() if trace else None
    with ApiServer(control) as server:
        feedback = Feedback(control, server.url)
        first = SimRun(*setups.build(SIM_MIN_SETUPS, SIM_SETUP_BUDGET), seed,
                       virtual, feedback)
        feedback.tracer = tracer
        second = SimRun(*setups.build(SIM_MIN_SETUPS, SIM_SETUP_BUDGET),
                        seed, virtual, feedback, tracer)
    runs = (first, second)

    digests = (first.digest(), second.digest())
    report.check("sim_digest_repeats", digests[0] == digests[1])
    report.outcomes["digest"] = digests[0]
    report.feedback_errors(feedback)
    report.check("no_leaked_threads", threads_settled(baseline))
    for run in runs:
        for name, ok in run.benchmark.check_consistency().items():
            report.check(f"tpcc_consistency.{name}", ok)
    report.account(second.samples, second.delta)

    if trace:
        values = layers.compute(
            tracer.spans(), tracer.thread_names(), txns=second.txns,
            worker_time=second.wall, simulated=True, deltas=second.delta,
            queue_delays=[s.queue_delay for s in second.samples],
            postponed=second.manager.queue.counters()["postponed"],
            quarters=second.quarters)
        values["tracing.overhead_ratio"] = (
            (second.txns / second.scaled_cpu(speed))
            / (first.txns / first.scaled_cpu(speed)), second.txns)
        report.add_layers(values, tracer)
        return report
    weights = second.manager.current_weights()
    txns = sum(r.txns for r in runs)
    setups.report(report, speed)
    report.throughput(txns, sum(r.cpu for r in runs),
                      sum(r.scaled_cpu(speed) for r in runs),
                      sum(r.wall for r in runs))
    report.latency(_merge([r.costs.costs(speed) for r in runs]), weights)
    statuses = Counter(s.status for s in second.samples)
    offered = second.manager.queue.counters()["offered"]
    report.metric("delivered_ratio",
                  statuses[STATUS_OK] / max(1, offered), "ratio", offered)
    report.feedback(feedback, speed)
    report.tail(_merge([r.last_quarter_costs(speed) for r in runs]),
                weights)
    return report


WORKLOADS = {
    "tpcc-closed": tpcc_closed,
    "ycsb-open": ycsb_open,
    "tpcc-sim": tpcc_sim,
}


def run(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    """Run one workload with the host's speed sampled throughout."""
    with HostSpeed() as speed:
        report = WORKLOADS[workload](seed, seconds, trace, speed)
    report.extra["host_speed_samples"] = len(speed.speeds)
    return report
