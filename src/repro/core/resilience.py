"""Resilience policy: retry with backoff, timeouts, and a circuit breaker.

The executors used to give up on the first exception, which means a
single transient fault — injected by ``repro.faults`` or organic engine
contention — pollutes the measured results.  This module makes the
harness survive transient faults the way a production client would:

* :class:`RetryPolicy` — per-procedure retry with exponential backoff
  plus deterministic jitter and a per-attempt timeout that bounds
  injected latency spikes;
* :class:`CircuitBreaker` — sheds load (counted as *postponed*, so the
  queue invariant ``offered == taken + postponed + depth`` still holds)
  when the recent error rate spikes, then probes half-open after a
  cooldown;
* :class:`ResilienceStats` — retried/recovered/exhausted/timeout/shed
  counters and a retry-latency histogram, surfaced through
  ``WorkloadManager.metrics()`` → ``GET /v1/metrics``;
* :func:`run_with_resilience` — the attempt loop every request on every
  execution substrate runs through.  With no retries, no armed faults and
  the breaker off it costs one policy lookup, one attempt count and one
  bare attempt, so the executors need no second path around it.

Only *retryable* failures are retried: :class:`TransactionAborted`
subclasses and injected disconnects.  Benchmark-intended aborts
(:class:`~repro.core.procedure.UserAbort`, e.g. TPC-C's 1% invalid
item) are part of the workload's semantics and are never retried.
"""

from __future__ import annotations

import os
import random
import threading
from collections import deque
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional

from ..clock import Clock
from ..errors import (ConfigurationError, Error, InjectedDisconnect,
                      StatementTimeout, TransactionAborted)
from ..faults.connection import CONNECTION_FAULT_KINDS, FaultingConnection
from ..faults.injector import FaultInjector, KIND_LATENCY
from ..metrics.histogram import LatencyHistogram
from .procedure import UserAbort
from .results import STATUS_ABORTED, STATUS_ERROR, STATUS_OK

#: Environment knob read by :func:`default_retry_policy` — the CI chaos
#: job sets it so the whole tier-1 suite runs with retries absorbing the
#: injected transients.
ENV_RETRIES = "REPRO_CHAOS_RETRIES"


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Immutable retry/backoff/timeout parameters for one procedure."""

    #: Total attempts including the first; 1 disables retries.
    max_attempts: int = 1
    #: First backoff delay in seconds.
    backoff_base: float = 0.01
    #: Multiplier applied per additional failure (exponential backoff).
    backoff_multiplier: float = 2.0
    #: Ceiling on any single backoff delay.
    backoff_max: float = 1.0
    #: Fraction of each delay that is randomized away (decorrelation).
    jitter: float = 0.5
    #: Per-attempt timeout in seconds; bounds injected latency spikes
    #: (a spike longer than this fails fast as a retryable
    #: :class:`~repro.errors.StatementTimeout` after only ``timeout``
    #: seconds of waiting).  ``None`` disables the bound.
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigurationError("backoff delays must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError("jitter must be in [0, 1]")
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigurationError("timeout must be positive or None")

    def delay(self, failures: int,
              rng: Optional[random.Random] = None) -> float:
        """Backoff before retry number ``failures`` (1-based)."""
        base = self.backoff_base * (self.backoff_multiplier
                                    ** max(0, failures - 1))
        base = min(self.backoff_max, base)
        if self.jitter and rng is not None:
            base *= 1.0 - self.jitter * rng.random()
        return base

    def to_dict(self) -> dict[str, object]:
        return {
            "max_attempts": self.max_attempts,
            "backoff_base": self.backoff_base,
            "backoff_multiplier": self.backoff_multiplier,
            "backoff_max": self.backoff_max,
            "jitter": self.jitter,
            "timeout": self.timeout,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, object],
                  base: Optional["RetryPolicy"] = None) -> "RetryPolicy":
        known = set(cls().to_dict())
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(
                f"unknown retry policy fields: {sorted(unknown)}; "
                f"known: {sorted(known)}")
        policy = base or cls()
        fields: dict[str, object] = {}
        try:
            for key, value in raw.items():
                if key == "max_attempts":
                    fields[key] = int(value)  # type: ignore[arg-type]
                elif key == "timeout":
                    fields[key] = None if value is None else float(value)  # type: ignore[arg-type]
                else:
                    fields[key] = float(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise ConfigurationError(
                "retry policy values must be numbers") from None
        return replace(policy, **fields)  # type: ignore[arg-type]


def default_retry_policy() -> RetryPolicy:
    """Zero-retry unless the ``REPRO_CHAOS_RETRIES`` env knob is set."""
    raw = os.environ.get(ENV_RETRIES, "")
    try:
        attempts = int(raw)
    except ValueError:
        attempts = 1
    if attempts > 1:
        # Chaos runs share real test suites: keep backoff tight so the
        # absorbed retries do not blow test deadlines.
        return RetryPolicy(max_attempts=attempts, backoff_base=0.002,
                           backoff_max=0.05)
    return RetryPolicy()


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


class CircuitBreaker:
    """Error-rate circuit breaker over a sliding outcome window.

    Disabled unless ``error_threshold`` is set.  While *open*, callers
    must shed load instead of executing; after ``cooldown`` seconds one
    half-open probe is admitted, and its outcome decides between closing
    and re-opening.  All time comes from the injected clock, so the
    breaker behaves identically under the simulated executor.
    """

    def __init__(self, clock: Clock,
                 error_threshold: Optional[float] = None,
                 window_seconds: float = 5.0,
                 min_samples: int = 20,
                 cooldown: float = 2.0) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._outcomes: deque[tuple[float, bool]] = deque()
        self._state = BREAKER_CLOSED
        self._opened_at = 0.0
        self._probe_inflight = False
        self._probe_owner = 0
        self.opened_count = 0
        self.configure(error_threshold=error_threshold,
                       window_seconds=window_seconds,
                       min_samples=min_samples, cooldown=cooldown)

    def configure(self, error_threshold: Optional[float] = None,
                  window_seconds: Optional[float] = None,
                  min_samples: Optional[int] = None,
                  cooldown: Optional[float] = None) -> None:
        with self._lock:
            if error_threshold is not None and \
                    not 0.0 < float(error_threshold) <= 1.0:
                raise ConfigurationError(
                    "error_threshold must be in (0, 1] or None")
            self.error_threshold = (None if error_threshold is None
                                    else float(error_threshold))
            if window_seconds is not None:
                if window_seconds <= 0:
                    raise ConfigurationError(
                        "window_seconds must be positive")
                self.window_seconds = float(window_seconds)
            if min_samples is not None:
                if min_samples < 1:
                    raise ConfigurationError("min_samples must be >= 1")
                self.min_samples = int(min_samples)
            if cooldown is not None:
                if cooldown <= 0:
                    raise ConfigurationError("cooldown must be positive")
                self.cooldown = float(cooldown)
            if self.error_threshold is None:
                self._state = BREAKER_CLOSED
                self._probe_inflight = False
                self._outcomes.clear()

    @property
    def enabled(self) -> bool:
        return self.error_threshold is not None

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _prune(self, now: float) -> None:
        horizon = now - self.window_seconds
        while self._outcomes and self._outcomes[0][0] < horizon:
            self._outcomes.popleft()

    def allow(self, now: Optional[float] = None) -> bool:
        """May one request execute right now?  False means: shed it.

        Callers ask once per request: a half-open breaker admits exactly
        one probe, and a caller that then finds no request to run must
        :meth:`release` its admission.
        """
        if not self.enabled:
            return True
        if now is None:
            now = self._clock.now()
        with self._lock:
            if self._state == BREAKER_CLOSED:
                return True
            if self._state == BREAKER_OPEN:
                if now - self._opened_at < self.cooldown:
                    return False
                self._state = BREAKER_HALF_OPEN
            elif self._probe_inflight:
                return False  # half-open: one probe at a time
            self._probe_inflight = True
            self._probe_owner = threading.get_ident()
            return True

    def release(self) -> None:
        """Hand back an admission that found no request to run.

        Only the half-open probe is rationed, so only the thread holding
        it has anything to return; without this an idle half-open window
        (paused queue, no due request) would hold the probe slot forever.
        """
        if not self.enabled:
            return
        with self._lock:
            if (self._state == BREAKER_HALF_OPEN and self._probe_inflight
                    and self._probe_owner == threading.get_ident()):
                self._probe_inflight = False

    def retry_after(self, now: Optional[float] = None) -> float:
        """Seconds until the next half-open probe is admitted."""
        if now is None:
            now = self._clock.now()
        with self._lock:
            if self._state != BREAKER_OPEN:
                return 0.0
            return max(0.0, self._opened_at + self.cooldown - now)

    def record(self, ok: bool, now: Optional[float] = None) -> None:
        """Feed one transaction outcome into the error-rate window."""
        if not self.enabled:
            return
        if now is None:
            now = self._clock.now()
        with self._lock:
            if self._state == BREAKER_HALF_OPEN:
                self._probe_inflight = False
                if ok:
                    self._state = BREAKER_CLOSED
                    self._outcomes.clear()
                else:
                    self._state = BREAKER_OPEN
                    self._opened_at = now
                    self.opened_count += 1
                return
            self._outcomes.append((now, ok))
            self._prune(now)
            if self._state != BREAKER_CLOSED:
                return
            total = len(self._outcomes)
            if total < self.min_samples:
                return
            failures = sum(1 for _, outcome_ok in self._outcomes
                           if not outcome_ok)
            if failures / total > self.error_threshold:
                self._state = BREAKER_OPEN
                self._opened_at = now
                self.opened_count += 1

    def describe(self) -> dict[str, object]:
        with self._lock:
            return {
                "error_threshold": self.error_threshold,
                "window_seconds": self.window_seconds,
                "min_samples": self.min_samples,
                "cooldown": self.cooldown,
                "state": self._state,
                "opened_count": self.opened_count,
            }


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------


class ResilienceStats:
    """Thread-safe counters + retry-latency histogram for one workload."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._attempts = 0
        self._retried = 0
        self._recovered = 0
        self._exhausted = 0
        self._timeouts = 0
        self._breaker_shed = 0
        self._retry_delay = LatencyHistogram()

    def record_attempt(self) -> None:
        with self._lock:
            self._attempts += 1

    def record_retry(self, delay: float) -> None:
        with self._lock:
            self._retried += 1
            self._retry_delay.record(delay)

    def record_recovered(self) -> None:
        with self._lock:
            self._recovered += 1

    def record_exhausted(self) -> None:
        with self._lock:
            self._exhausted += 1

    def record_timeout(self) -> None:
        with self._lock:
            self._timeouts += 1

    def record_breaker_shed(self, count: int = 1) -> None:
        with self._lock:
            self._breaker_shed += count

    def snapshot(self) -> dict[str, object]:
        with self._lock:
            return {
                "attempts": self._attempts,
                "retried": self._retried,
                "recovered": self._recovered,
                "exhausted": self._exhausted,
                "timeouts": self._timeouts,
                "breaker_shed": self._breaker_shed,
                "retry_latency": self._retry_delay.snapshot(),
            }


# ---------------------------------------------------------------------------
# Per-workload resilience state
# ---------------------------------------------------------------------------


class Resilience:
    """One workload's retry policies, circuit breaker, and stats."""

    def __init__(self, clock: Clock,
                 default: Optional[RetryPolicy] = None,
                 per_procedure: Optional[Mapping[str, RetryPolicy]] = None,
                 breaker: Optional[CircuitBreaker] = None) -> None:
        self._lock = threading.Lock()
        #: ``(default policy, per-procedure overrides)``.  Writers build a
        #: new pair under ``_lock`` and publish it with one reference
        #: assignment; the overrides mapping is read-only and never
        #: mutated after publication, so :meth:`policy_for` (once per
        #: request) reads whichever pair it observes without the lock.
        self._policies: tuple[RetryPolicy, Mapping[str, RetryPolicy]] = (
            default or default_retry_policy(),
            MappingProxyType(dict(per_procedure or {})))
        self.breaker = breaker or CircuitBreaker(clock)
        self.stats = ResilienceStats()

    def policy_for(self, txn_name: str) -> RetryPolicy:
        default, overrides = self._policies
        return overrides.get(txn_name, default)

    def set_default(self, policy: RetryPolicy) -> None:
        with self._lock:
            self._policies = (policy, self._policies[1])

    def set_procedure_policy(self, txn_name: str,
                             policy: Optional[RetryPolicy]) -> None:
        with self._lock:
            default, overrides = self._policies
            updated = dict(overrides)
            if policy is None:
                updated.pop(txn_name, None)
            else:
                updated[txn_name] = policy
            self._policies = (default, MappingProxyType(updated))

    def configure(self, raw: Mapping[str, object]) -> None:
        """Partial update from a control-plane body.

        Top-level retry fields update the default policy; the optional
        ``per_procedure`` mapping overrides single transactions (null
        clears an override); the optional ``breaker`` mapping re-tunes
        the circuit breaker.  The policies change all at once or, when a
        field is invalid, not at all.
        """
        if not isinstance(raw, Mapping):
            raise ConfigurationError("resilience body must be an object")
        body = dict(raw)
        per_procedure = body.pop("per_procedure", None)
        breaker = body.pop("breaker", None)
        with self._lock:
            default, overrides = self._policies
            if body:
                default = RetryPolicy.from_dict(body, base=default)
            updated = dict(overrides)
            if per_procedure is not None:
                if not isinstance(per_procedure, Mapping):
                    raise ConfigurationError(
                        "per_procedure must map txn names to policies")
                for name, fields in per_procedure.items():
                    if fields is None:
                        updated.pop(name, None)
                    else:
                        updated[name] = RetryPolicy.from_dict(
                            fields, base=updated.get(name, default))
            self._policies = (default, MappingProxyType(updated))
        if breaker is not None:
            if not isinstance(breaker, Mapping):
                raise ConfigurationError("breaker must be an object")
            known = {"error_threshold", "window_seconds", "min_samples",
                     "cooldown"}
            unknown = set(breaker) - known
            if unknown:
                raise ConfigurationError(
                    f"unknown breaker fields: {sorted(unknown)}")
            self.breaker.configure(**breaker)  # type: ignore[arg-type]

    def describe(self) -> dict[str, object]:
        default, overrides = self._policies
        return {
            **default.to_dict(),
            "per_procedure": {name: policy.to_dict() for name, policy
                              in sorted(overrides.items())},
            "breaker": self.breaker.describe(),
        }


# ---------------------------------------------------------------------------
# The shared attempt loop
# ---------------------------------------------------------------------------


class ResilientOutcome(NamedTuple):
    """Final result of one request after retries."""

    status: str
    attempts: int
    #: Injected-latency and backoff seconds the loop *requested*; real
    #: executors slept them through ``waiter``, the simulated executor
    #: adds them to the transaction's virtual service time instead.
    waited: float


def _attempt(proc, conn, rng) -> tuple[str, Optional[Exception]]:
    """Execute one transaction attempt; map the outcome like a worker."""
    try:
        proc.run(conn, rng)
        if conn.in_transaction:
            conn.commit()
        return STATUS_OK, None
    except TransactionAborted as exc:
        conn.rollback()
        return STATUS_ABORTED, exc
    except Error as exc:
        conn.rollback()
        return STATUS_ERROR, exc


def _wait(seconds: float,
          waiter: Optional[Callable[[float], None]]) -> float:
    """Sleep ``seconds`` through ``waiter`` (if any); return the seconds
    to add to the outcome's ``waited`` (nothing for a non-positive one)."""
    if seconds <= 0:
        return 0.0
    if waiter is not None:
        waiter(seconds)
    return seconds


def run_with_resilience(proc, txn_name: str, conn: FaultingConnection,
                        rng: random.Random, *,
                        clock: Clock,
                        resilience: Resilience,
                        injector: Optional[FaultInjector] = None,
                        retry_rng: Optional[random.Random] = None,
                        waiter: Optional[Callable[[float], None]] = None,
                        ) -> ResilientOutcome:
    """Run one request under the workload's retry policy.

    ``waiter`` performs real (interruptible) sleeps for the threaded
    executor; the simulated executor passes ``None`` and folds the
    returned :attr:`ResilientOutcome.waited` into virtual service time.
    """
    policy = resilience.policy_for(txn_name)
    stats = resilience.stats
    breaker = resilience.breaker
    waited = 0.0
    attempts = 0
    while True:
        attempts += 1
        stats.record_attempt()
        # ``armed`` is a lock-free read: while faults are disabled the
        # injector's per-attempt lock is never touched.  (Default True so
        # duck-typed injectors without the property still inject.)
        plan = injector.attempt_begin(txn_name) \
            if injector is not None and getattr(injector, "armed", True) \
            else None
        if plan is None:
            status, exc = _attempt(proc, conn, rng)
        elif plan.kind == KIND_LATENCY:
            spike = plan.latency
            if policy.timeout is not None and spike > policy.timeout:
                # The statement timeout bounds the spike: give up after
                # ``timeout`` seconds instead of riding it out.
                waited += _wait(policy.timeout, waiter)
                conn.rollback()
                stats.record_timeout()
                status = STATUS_ABORTED
                exc = StatementTimeout(
                    f"injected latency spike of {spike:.3f}s exceeded the "
                    f"{policy.timeout:.3f}s statement timeout")
            else:
                waited += _wait(spike, waiter)
                status, exc = _attempt(proc, conn, rng)
        else:
            if plan.kind in CONNECTION_FAULT_KINDS:
                conn.arm(plan)
            status, exc = _attempt(proc, conn, rng)
            # Disarm: an organic failure can beat the planned fault to
            # the punch, and a stale plan must not leak into the retry.
            conn.arm(None)
        ok = status == STATUS_OK
        if breaker.enabled:
            breaker.record(ok, clock.now())
        if ok:
            if attempts > 1:
                stats.record_recovered()
            return ResilientOutcome(status, attempts, waited)
        if conn.dropped or isinstance(exc, InjectedDisconnect):
            conn.reconnect()
        retryable = (exc is not None
                     and getattr(exc, "retryable", False)
                     and not isinstance(exc, UserAbort))
        if not retryable:
            return ResilientOutcome(status, attempts, waited)
        if attempts >= policy.max_attempts:
            if policy.max_attempts > 1:
                stats.record_exhausted()
            return ResilientOutcome(status, attempts, waited)
        delay = policy.delay(attempts, retry_rng)
        stats.record_retry(delay)
        waited += _wait(delay, waiter)


__all__ = [
    "BREAKER_CLOSED", "BREAKER_HALF_OPEN", "BREAKER_OPEN", "CircuitBreaker",
    "ENV_RETRIES", "Resilience", "ResilienceStats", "ResilientOutcome",
    "RetryPolicy", "default_retry_policy", "run_with_resilience",
]
