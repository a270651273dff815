"""The Workload Manager: centralized control of rate, mixture, and phases.

Paper §2.1: "OLTP-Bench's client-side component contains a centralized
Workload Manager that is responsible for tightly controlling the
characteristics of the workload via a centralized request queue."

The manager owns the phase schedule and the request queue.  An *executor*
(threaded or simulated, see ``repro.core.executors``) drives it by calling
:meth:`tick` at every second boundary; workers consume the queue and call
:meth:`sample_txn_name` / :meth:`record`.

All control operations (:meth:`set_rate`, :meth:`set_weights`,
:meth:`pause`, ...) are thread-safe and take effect immediately — they are
what the REST control API and the BenchPress game invoke at runtime.
Dynamic overrides last until the next phase transition, which restores the
phase's configured parameters.
"""

from __future__ import annotations

import random
import threading
from typing import Callable, Mapping, Optional

from ..clock import Clock, RealClock
from ..errors import ConfigurationError
from ..faults import FaultInjector, FaultProfile, default_profile
from ..rand import DiscreteDistribution, make_rng
from .benchmark import BenchmarkModule
from .config import WorkloadConfiguration
from .phase import Phase, RATE_DISABLED, RATE_UNLIMITED
from .rates import ArrivalSchedule
from .requestqueue import POLICY_CAP, RequestQueue
from .resilience import Resilience
from .results import LatencySample, Results

STATE_CREATED = "created"
STATE_RUNNING = "running"
STATE_FINISHED = "finished"
STATE_STOPPED = "stopped"


class WorkloadManager:
    """Drives one workload (one tenant) against a database."""

    def __init__(self, benchmark: BenchmarkModule,
                 config: WorkloadConfiguration,
                 clock: Optional[Clock] = None,
                 queue_policy: str = POLICY_CAP) -> None:
        if not benchmark.loaded:
            raise ConfigurationError(
                f"benchmark {benchmark.name!r} must be loaded first")
        if not config.phases:
            raise ConfigurationError("configuration has no phases")
        config.validated_against(benchmark.procedure_names())
        self.benchmark = benchmark
        self.config = config
        self.clock = clock or RealClock()
        self.queue = RequestQueue(clock=self.clock, policy=queue_policy)
        self.results = Results()
        self.tenant = config.tenant

        self._lock = threading.RLock()
        self._state = STATE_CREATED
        self._phase_index = -1
        self._phase_started_at = 0.0
        self._run_started_at = 0.0
        self._rate_override: Optional[object] = None
        self._weights_override: Optional[dict[str, float]] = None
        self._think_override: Optional[float] = None
        self._active_workers_override: Optional[int] = None
        self._schedule: Optional[ArrivalSchedule] = None
        self._mixture: Optional[DiscreteDistribution] = None
        self._mixture_version = 0
        self._arrival_rng = make_rng(config.seed, "arrivals")
        self._paused = False
        #: Deterministic fault source (chaos, the fourth control verb).
        self.faults = FaultInjector(seed=config.seed, tenant=self.tenant,
                                    profile=default_profile())
        #: Retry policy + circuit breaker + resilience counters.
        self.resilience = Resilience(clock=self.clock)
        #: Executors register a callback fired after any control change so
        #: that event-driven executors can reschedule dispatches.
        self.on_control_change: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # lifecycle (called by executors)
    # ------------------------------------------------------------------

    def begin_run(self, now: float) -> None:
        with self._lock:
            if self._state != STATE_CREATED:
                raise ConfigurationError(
                    f"cannot start a manager in state {self._state!r}")
            self._state = STATE_RUNNING
            self._run_started_at = now
            self._enter_phase(0, now)

    def tick(self, now: float) -> Optional[list[float]]:
        """Advance phases and emit this second's arrival batch.

        Returns the arrival timestamps offered to the queue, an empty list
        for closed-loop phases, or ``None`` when the run has completed.
        """
        with self._lock:
            if self._state != STATE_RUNNING:
                return None
            phase = self.current_phase
            while now >= self._phase_started_at + phase.duration:
                if self._phase_index + 1 >= len(self.config.phases):
                    self._state = STATE_FINISHED
                    self.queue.shutdown()
                    return None
                self._enter_phase(
                    self._phase_index + 1,
                    self._phase_started_at + phase.duration)
                phase = self.current_phase
            if self.closed_loop:
                return []
            assert self._schedule is not None
            arrivals = self._schedule.batch(now)
            shed = self.queue.offer_batch(arrivals)
            if shed:
                self.results.record_postponed(shed)
            return arrivals

    def stop(self) -> None:
        with self._lock:
            if self._state in (STATE_RUNNING, STATE_CREATED):
                self._state = STATE_STOPPED
            self.queue.shutdown()
        self._notify()

    def _enter_phase(self, index: int, started_at: float) -> None:
        previous_rate = self.current_rate() if self._phase_index >= 0 \
            else None
        self._phase_index = index
        self._phase_started_at = started_at
        self._rate_override = None
        self._weights_override = None
        self._think_override = None
        self._active_workers_override = None
        if (previous_rate is not None
                and self.current_phase.rate != previous_rate
                and self.queue.policy == POLICY_CAP):
            # A rate-changing transition invalidates the old rate's
            # pending arrivals; shed them *and* count them, so
            # offered == taken + postponed + depth holds across phases.
            dropped = self.queue.clear()
            if dropped:
                self.results.record_postponed(dropped)
        self._rebuild_schedule()
        self._rebuild_mixture()

    # ------------------------------------------------------------------
    # state views
    # ------------------------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    @property
    def running(self) -> bool:
        return self._state == STATE_RUNNING

    @property
    def finished(self) -> bool:
        return self._state in (STATE_FINISHED, STATE_STOPPED)

    @property
    def current_phase(self) -> Phase:
        with self._lock:
            index = max(self._phase_index, 0)
            return self.config.phases[index]

    @property
    def phase_index(self) -> int:
        return self._phase_index

    def current_rate(self) -> object:
        with self._lock:
            if self._rate_override is not None:
                return self._rate_override
            return self.current_phase.rate

    def current_weights(self) -> dict[str, float]:
        with self._lock:
            if self._weights_override is not None:
                return dict(self._weights_override)
            weights = dict(self.current_phase.weights)
            if not weights:
                weights = self.benchmark.default_weights()
            return weights

    def current_think_time(self) -> float:
        with self._lock:
            if self._think_override is not None:
                return self._think_override
            return self.current_phase.think_time

    def current_active_workers(self) -> Optional[int]:
        with self._lock:
            if self._active_workers_override is not None:
                return self._active_workers_override
            return self.current_phase.active_workers

    def worker_enabled(self, worker_id: int) -> bool:
        """Whether this worker participates in the current phase.

        OLTP-Bench's ``<active_terminals>``: only the first N configured
        workers execute; the rest idle until a later phase (or a dynamic
        override) re-enables them.
        """
        active = self.current_active_workers()
        return active is None or worker_id < active

    @property
    def closed_loop(self) -> bool:
        return self.current_rate() == RATE_DISABLED

    @property
    def paused(self) -> bool:
        return self._paused

    # ------------------------------------------------------------------
    # runtime control (REST API / game surface)
    # ------------------------------------------------------------------

    def set_rate(self, rate: object) -> None:
        """Throttle or open up the request rate from the next pacer tick.

        Each tick queues a whole second's arrivals, so the current
        second's already queued arrivals keep the old rate.
        """
        Phase._validate_rate(rate)
        with self._lock:
            self._rate_override = rate
            self._rebuild_schedule()
        self._notify()

    def set_weights(self, weights: Mapping[str, float]) -> None:
        """Change the transaction mixture on demand (paper §2.2.2)."""
        unknown = set(weights) - set(self.benchmark.procedure_names())
        if unknown:
            raise ConfigurationError(
                f"unknown transactions in mixture: {sorted(unknown)}")
        if not weights or sum(weights.values()) <= 0:
            raise ConfigurationError("mixture weights must sum > 0")
        with self._lock:
            self._weights_override = dict(weights)
            self._rebuild_mixture()
        self._notify()

    def set_preset_mixture(self, preset: str) -> None:
        presets = self.benchmark.preset_mixtures()
        if preset not in presets:
            raise ConfigurationError(
                f"unknown preset {preset!r}; available: {sorted(presets)}")
        self.set_weights(presets[preset])

    def set_think_time(self, seconds: float) -> None:
        if seconds < 0:
            raise ConfigurationError("think time must be non-negative")
        with self._lock:
            self._think_override = seconds
        self._notify()

    def set_active_workers(self, count: Optional[int]) -> None:
        """Dynamically change how many workers execute (None = all)."""
        if count is not None and count <= 0:
            raise ConfigurationError("active_workers must be positive")
        with self._lock:
            self._active_workers_override = count
        self._notify()

    def set_fault_profile(self, fields: Mapping[str, object]) -> None:
        """Re-tune the fault injector mid-run (partial update)."""
        self.faults.set_profile(self.faults.profile().updated(fields))
        self._notify()

    def current_fault_profile(self) -> dict[str, float]:
        return self.faults.profile().to_dict()

    def set_resilience(self, fields: Mapping[str, object]) -> None:
        """Re-tune retry policies / circuit breaker mid-run."""
        self.resilience.configure(fields)
        self._notify()

    def current_resilience(self) -> dict[str, object]:
        return self.resilience.describe()

    def breaker_allows(self) -> bool:
        """May a worker execute one request right now?  False while
        shedding load.  Executors ask once per request."""
        return self.resilience.breaker.allow()

    def shed_breaker_open(self) -> int:
        """Shed due requests while the breaker is open; they count as
        postponed so the queue accounting invariant is preserved."""
        dropped = self.queue.drop_due(self.clock.now())
        if dropped:
            self.results.record_postponed(dropped)
            self.resilience.stats.record_breaker_shed(dropped)
        return dropped

    def resilience_payload(self) -> dict[str, object]:
        """Faults + retry/breaker state for the metrics snapshot."""
        return {
            "faults": {
                "profile": self.faults.profile().to_dict(),
                "injected": self.faults.counters(),
            },
            "retries": self.resilience.stats.snapshot(),
            "breaker": self.resilience.breaker.describe(),
        }

    def pause(self) -> None:
        """Temporarily block all workers from executing (paper §4.1.1)."""
        with self._lock:
            self._paused = True
            self.queue.pause()
        self._notify()

    def resume(self) -> None:
        with self._lock:
            self._paused = False
            self.queue.resume()
        self._notify()

    def _notify(self) -> None:
        callback = self.on_control_change
        if callback is not None:
            callback()

    def _rebuild_schedule(self) -> None:
        rate = (self._rate_override if self._rate_override is not None
                else self.current_phase.rate)
        if rate == RATE_DISABLED:
            self._schedule = None
            return
        effective = (Phase(duration=1.0, rate=rate).effective_rate
                     if rate != RATE_UNLIMITED
                     else Phase(duration=1.0).effective_rate)
        if self._schedule is None:
            self._schedule = ArrivalSchedule(
                effective, self.current_phase.arrival, self._arrival_rng)
        else:
            self._schedule.set_rate(effective)
            self._schedule.arrival = self.current_phase.arrival

    def _rebuild_mixture(self) -> None:
        weights = self.current_weights()
        names = list(weights)
        self._mixture = DiscreteDistribution(
            names, [weights[n] for n in names])
        self._mixture_version += 1

    # ------------------------------------------------------------------
    # worker-facing API
    # ------------------------------------------------------------------

    def sample_txn_name(self, rng: random.Random) -> str:
        # Lock-free fast path: a DiscreteDistribution is immutable after
        # construction and weight changes swap in a whole new instance
        # (atomic reference assignment), so workers may sample whichever
        # mixture they observe without serialising on the manager lock —
        # this runs once per executed transaction.
        mixture = self._mixture
        if mixture is None:
            with self._lock:
                if self._mixture is None:
                    self._rebuild_mixture()
                mixture = self._mixture
            assert mixture is not None
        return str(mixture.sample(rng))

    def record(self, sample: LatencySample) -> None:
        self.results.record(sample)

    # ------------------------------------------------------------------
    # status (REST API feedback, paper §2.2.4)
    # ------------------------------------------------------------------

    def status(self, now: Optional[float] = None,
               window: float = 5.0) -> dict[str, object]:
        if now is None:
            now = self.clock.now()
        instantaneous = self.results.metrics.instantaneous(now, window)
        with self._lock:
            return {
                "benchmark": self.benchmark.name,
                "tenant": self.tenant,
                "state": self._state,
                "paused": self._paused,
                "phase_index": self._phase_index,
                "phase_count": len(self.config.phases),
                "rate": self.current_rate(),
                "weights": self.current_weights(),
                "think_time": self.current_think_time(),
                "elapsed": max(0.0, now - self._run_started_at),
                "queue_depth": len(self.queue),
                "postponed": self.results.postponed,
                "throughput": instantaneous["throughput"],
                "avg_latency": instantaneous["avg_latency"],
                "per_txn": instantaneous["per_txn"],
            }

    def metrics(self, now: Optional[float] = None,
                window: float = 5.0) -> dict[str, object]:
        """The full streaming-metrics payload (``GET .../metrics``).

        Sliding-window throughput, per-transaction-type latency
        quantiles, and the queue's offered/taken/postponed accounting —
        all O(bins)/O(window); the raw sample list is never touched.
        """
        if now is None:
            now = self.clock.now()
        snapshot = self.results.metrics.snapshot(
            now, window,
            queue=self.queue.counters(),
            resilience=self.resilience_payload())
        snapshot["engine"] = self.benchmark.database.cache_stats()
        snapshot["recording"] = self.results.recorder_stats()
        with self._lock:
            snapshot.update({
                "benchmark": self.benchmark.name,
                "tenant": self.tenant,
                "state": self._state,
                "paused": self._paused,
                "elapsed": max(0.0, now - self._run_started_at),
            })
        return snapshot
