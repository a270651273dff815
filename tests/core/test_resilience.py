"""Resilience layer: retry policy, circuit breaker, and the attempt loop."""

import pytest

from repro.clock import SimClock
from repro.core.procedure import Procedure, UserAbort
from repro.core.resilience import (BREAKER_CLOSED, BREAKER_HALF_OPEN,
                                   BREAKER_OPEN, CircuitBreaker, ENV_RETRIES,
                                   Resilience, RetryPolicy,
                                   default_retry_policy, run_with_resilience)
from repro.engine import connect
from repro.errors import ConfigurationError, InjectedAbort, TransactionAborted
from repro.faults import FaultInjector, FaultProfile, FaultingConnection
from repro.rand import make_rng


class _FixedRng:
    """rng.random() returns a constant (deterministic jitter)."""

    def __init__(self, value: float) -> None:
        self.value = value

    def random(self) -> float:
        return self.value


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ConfigurationError):
        RetryPolicy(backoff_multiplier=0.5)
    with pytest.raises(ConfigurationError):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ConfigurationError):
        RetryPolicy(timeout=0)


def test_backoff_grows_exponentially_and_caps():
    policy = RetryPolicy(max_attempts=5, backoff_base=0.1,
                         backoff_multiplier=2.0, backoff_max=0.3,
                         jitter=0.0)
    assert policy.delay(1) == pytest.approx(0.1)
    assert policy.delay(2) == pytest.approx(0.2)
    assert policy.delay(3) == pytest.approx(0.3)  # capped
    assert policy.delay(10) == pytest.approx(0.3)


def test_jitter_shrinks_the_delay_deterministically():
    policy = RetryPolicy(backoff_base=0.1, jitter=0.5)
    assert policy.delay(1, _FixedRng(1.0)) == pytest.approx(0.05)
    assert policy.delay(1, _FixedRng(0.0)) == pytest.approx(0.1)


def test_from_dict_partial_update():
    base = RetryPolicy(max_attempts=3, backoff_base=0.2)
    updated = RetryPolicy.from_dict({"max_attempts": 5}, base=base)
    assert updated.max_attempts == 5
    assert updated.backoff_base == 0.2


def test_from_dict_rejects_unknown_and_garbage():
    with pytest.raises(ConfigurationError):
        RetryPolicy.from_dict({"bogus": 1})
    with pytest.raises(ConfigurationError):
        RetryPolicy.from_dict({"max_attempts": "many"})


def test_default_policy_reads_env(monkeypatch):
    monkeypatch.delenv(ENV_RETRIES, raising=False)
    assert default_retry_policy().max_attempts == 1
    monkeypatch.setenv(ENV_RETRIES, "4")
    assert default_retry_policy().max_attempts == 4


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------


def _tripped_breaker(clock):
    breaker = CircuitBreaker(clock, error_threshold=0.5, min_samples=4,
                             window_seconds=10.0, cooldown=2.0)
    for _ in range(4):
        breaker.record(False)
    return breaker


def test_disabled_breaker_always_allows():
    clock = SimClock()
    breaker = CircuitBreaker(clock)
    for _ in range(100):
        breaker.record(False)
    assert breaker.allow()
    assert breaker.state == BREAKER_CLOSED


def test_breaker_opens_on_error_rate():
    clock = SimClock()
    breaker = _tripped_breaker(clock)
    assert breaker.state == BREAKER_OPEN
    assert not breaker.allow()
    assert breaker.retry_after() == pytest.approx(2.0)


def test_breaker_needs_minimum_volume():
    clock = SimClock()
    breaker = CircuitBreaker(clock, error_threshold=0.5, min_samples=10)
    for _ in range(9):
        breaker.record(False)
    assert breaker.state == BREAKER_CLOSED


def test_half_open_probe_success_closes():
    clock = SimClock()
    breaker = _tripped_breaker(clock)
    clock.run_until(2.5)  # past the cooldown
    assert breaker.allow()  # the single probe
    assert breaker.state == BREAKER_HALF_OPEN
    assert not breaker.allow()  # second caller is still shed
    breaker.record(True)
    assert breaker.state == BREAKER_CLOSED
    assert breaker.allow()


def test_half_open_probe_failure_reopens():
    clock = SimClock()
    breaker = _tripped_breaker(clock)
    clock.run_until(2.5)
    assert breaker.allow()
    breaker.record(False)
    assert breaker.state == BREAKER_OPEN
    assert breaker.describe()["opened_count"] == 2


def test_released_probe_admits_the_next_caller():
    """A probe admission that found no request is handed back, so an idle
    half-open window cannot hold the probe slot forever."""
    clock = SimClock()
    breaker = _tripped_breaker(clock)
    clock.run_until(2.5)
    assert breaker.allow()
    breaker.release()
    assert breaker.state == BREAKER_HALF_OPEN
    assert breaker.allow()  # the slot is free again
    assert not breaker.allow()


def test_only_the_probe_holder_can_release_it():
    import threading

    clock = SimClock()
    breaker = _tripped_breaker(clock)
    clock.run_until(2.5)
    assert breaker.allow()
    other = threading.Thread(target=breaker.release)
    other.start()
    other.join()
    assert not breaker.allow()  # still one probe in flight


def test_breaker_configure_validation():
    breaker = CircuitBreaker(SimClock())
    with pytest.raises(ConfigurationError):
        breaker.configure(error_threshold=1.5)
    with pytest.raises(ConfigurationError):
        breaker.configure(cooldown=-1)


def test_clearing_threshold_disables_and_closes():
    clock = SimClock()
    breaker = _tripped_breaker(clock)
    breaker.configure(error_threshold=None)
    assert breaker.allow()
    assert breaker.state == BREAKER_CLOSED


# ---------------------------------------------------------------------------
# run_with_resilience over the real engine
# ---------------------------------------------------------------------------


class _Increment(Procedure):
    name = "Increment"

    def run(self, conn, rng):
        cur = conn.cursor()
        cur.execute("UPDATE kv SET v = v + 1 WHERE k = ?", (1,))
        conn.commit()


class _AlwaysUserAbort(Procedure):
    name = "GiveUp"

    def run(self, conn, rng):
        raise UserAbort("benchmark-intended abort")


@pytest.fixture
def harness(db):
    setup = connect(db)
    cur = setup.cursor()
    cur.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT NOT NULL)")
    cur.execute("INSERT INTO kv VALUES (?, ?)", (1, 0))
    setup.commit()
    conn = FaultingConnection(connect(db))
    yield conn, setup
    conn.close()
    setup.close()


def _run(conn, proc, profile, policy, waits=None, injector_seed=1):
    clock = SimClock()
    resilience = Resilience(clock, default=policy)
    injector = FaultInjector(seed=injector_seed, profile=profile)
    outcome = run_with_resilience(
        proc, proc.name, conn, make_rng(1, "w"), clock=clock,
        resilience=resilience, injector=injector,
        retry_rng=make_rng(1, "r"),
        waiter=(waits.append if waits is not None else None))
    return outcome, resilience, injector


def test_clean_run_single_attempt(harness):
    conn, _ = harness
    outcome, resilience, _ = _run(
        conn, _Increment({}), FaultProfile(), RetryPolicy(max_attempts=3))
    assert outcome.status == "ok"
    assert outcome.attempts == 1
    assert outcome.waited == 0.0
    stats = resilience.stats.snapshot()
    assert stats["attempts"] == 1
    assert stats["retried"] == 0


def test_retry_recovers_injected_abort(harness):
    conn, setup = harness
    waits = []
    outcome, resilience, injector = _run(
        conn, _Increment({}), FaultProfile(abort_probability=1.0),
        RetryPolicy(max_attempts=3, jitter=0.0, backoff_base=0.01),
        waits=waits)
    # Attempt 1 and 2 hit the certain fault; with max_attempts=3 the
    # third attempt hits it too, so certainty can never recover -- use
    # the stats to check the retries actually happened.
    assert outcome.attempts == 3
    assert outcome.status == "aborted"
    stats = resilience.stats.snapshot()
    assert stats["retried"] == 2
    assert stats["exhausted"] == 1
    assert injector.counters()["abort"] == 3
    assert len(waits) == 2  # two backoff sleeps through the waiter
    assert outcome.waited == pytest.approx(sum(waits))
    # Every aborted attempt rolled back: no increment survived.
    cur = setup.cursor()
    cur.execute("SELECT v FROM kv WHERE k = ?", (1,))
    assert cur.fetchall()[0][0] == 0
    setup.commit()


def test_retry_recovers_when_fault_is_transient(harness):
    conn, setup = harness

    class _OneShotInjector:
        """Injects exactly one abort, like a real transient conflict."""

        def __init__(self) -> None:
            self.calls = 0

        def attempt_begin(self, txn_name):
            self.calls += 1
            if self.calls == 1:
                from repro.faults import FaultPlan, KIND_ABORT
                return FaultPlan(index=0, txn_name=txn_name,
                                 kind=KIND_ABORT, at_statement=0)
            return None

    clock = SimClock()
    resilience = Resilience(
        clock, default=RetryPolicy(max_attempts=3, jitter=0.0))
    outcome = run_with_resilience(
        _Increment({}), "Increment", conn, make_rng(1, "w"), clock=clock,
        resilience=resilience, injector=_OneShotInjector(),
        retry_rng=make_rng(1, "r"), waiter=None)
    assert outcome.status == "ok"
    assert outcome.attempts == 2
    stats = resilience.stats.snapshot()
    assert stats["recovered"] == 1
    cur = setup.cursor()
    cur.execute("SELECT v FROM kv WHERE k = ?", (1,))
    assert cur.fetchall()[0][0] == 1
    setup.commit()


def test_disconnect_is_retried_through_reconnect(harness):
    conn, _ = harness
    outcome, resilience, injector = _run(
        conn, _Increment({}), FaultProfile(disconnect_probability=0.5),
        RetryPolicy(max_attempts=10, jitter=0.0), injector_seed=8)
    assert outcome.status == "ok"
    assert injector.counters()["disconnect"] >= 1
    assert not conn.dropped  # the loop reconnected after every drop


def test_user_abort_is_never_retried(harness):
    conn, _ = harness
    outcome, resilience, _ = _run(
        conn, _AlwaysUserAbort({}), FaultProfile(),
        RetryPolicy(max_attempts=5))
    assert outcome.status == "aborted"
    assert outcome.attempts == 1
    assert resilience.stats.snapshot()["retried"] == 0


def test_latency_spike_waits_without_timeout(harness):
    conn, _ = harness
    profile = FaultProfile(latency_probability=1.0, latency_min=0.05,
                           latency_max=0.05)
    outcome, _, _ = _run(conn, _Increment({}), profile, RetryPolicy())
    assert outcome.status == "ok"
    assert outcome.waited == pytest.approx(0.05)


def test_statement_timeout_bounds_the_spike(harness):
    conn, _ = harness
    profile = FaultProfile(latency_probability=1.0, latency_min=0.5,
                           latency_max=0.5)
    policy = RetryPolicy(max_attempts=1, timeout=0.05)
    outcome, resilience, _ = _run(conn, _Increment({}), profile, policy)
    assert outcome.status == "aborted"
    # Waited only the timeout, not the full spike.
    assert outcome.waited == pytest.approx(0.05)
    assert resilience.stats.snapshot()["timeouts"] == 1


def test_resilience_configure_round_trip():
    clock = SimClock()
    resilience = Resilience(clock)
    resilience.configure({
        "max_attempts": 4,
        "per_procedure": {"Write": {"max_attempts": 7}},
        "breaker": {"error_threshold": 0.5, "min_samples": 5},
    })
    assert resilience.policy_for("Read").max_attempts == 4
    assert resilience.policy_for("Write").max_attempts == 7
    assert resilience.breaker.enabled
    described = resilience.describe()
    assert described["max_attempts"] == 4
    assert described["per_procedure"]["Write"]["max_attempts"] == 7
    assert described["breaker"]["error_threshold"] == 0.5
    # null clears the per-procedure override
    resilience.configure({"per_procedure": {"Write": None}})
    assert resilience.policy_for("Write").max_attempts == 4


def test_resilience_configure_rejects_bad_bodies():
    resilience = Resilience(SimClock())
    with pytest.raises(ConfigurationError):
        resilience.configure({"bogus_field": 1})
    with pytest.raises(ConfigurationError):
        resilience.configure({"breaker": {"bogus": 1}})
    with pytest.raises(ConfigurationError):
        resilience.configure({"per_procedure": "not-a-mapping"})


def test_policy_for_sees_every_writer_on_the_next_call():
    """``policy_for`` reads a published snapshot without the lock; each
    writer must publish before it returns."""
    resilience = Resilience(SimClock(), default=RetryPolicy())
    assert resilience.policy_for("Write").max_attempts == 1
    resilience.set_default(RetryPolicy(max_attempts=2))
    assert resilience.policy_for("Write").max_attempts == 2
    resilience.set_procedure_policy("Write", RetryPolicy(max_attempts=5))
    assert resilience.policy_for("Write").max_attempts == 5
    assert resilience.policy_for("Read").max_attempts == 2
    resilience.configure({"max_attempts": 3,
                          "per_procedure": {"Read": {"timeout": 0.5}}})
    assert resilience.policy_for("Read").timeout == 0.5
    assert resilience.policy_for("Read").max_attempts == 3
    assert resilience.policy_for("Write").max_attempts == 5
    resilience.configure({"per_procedure": {"Write": None}})
    assert resilience.policy_for("Write").max_attempts == 3
    resilience.set_procedure_policy("Read", None)
    assert resilience.policy_for("Read").timeout is None


def test_invalid_configure_changes_no_policy():
    resilience = Resilience(SimClock(), default=RetryPolicy())
    with pytest.raises(ConfigurationError):
        resilience.configure({"per_procedure": {
            "Read": {"max_attempts": 4}, "Write": {"max_attempts": 0}}})
    assert resilience.policy_for("Read").max_attempts == 1
    assert resilience.describe()["per_procedure"] == {}


def test_concurrent_policy_writers_lose_no_update():
    """Writers copy the published overrides, change the copy and publish
    it; without the writer lock one could publish a copy that drops
    another's change.  Each writer only raises its own procedure's
    attempts, so no reader may ever see one fall."""
    import sys
    import threading

    resilience = Resilience(SimClock(), default=RetryPolicy())
    names = [f"T{i}" for i in range(8)]
    regressions = []

    def write(name):
        for attempts in range(2, 202):
            resilience.set_procedure_policy(
                name, RetryPolicy(max_attempts=attempts))

    def read():
        last = dict.fromkeys(names, 1)
        for _ in range(500):
            for name in names:
                attempts = resilience.policy_for(name).max_attempts
                if attempts < last[name]:
                    regressions.append((name, last[name], attempts))
                last[name] = attempts

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = ([threading.Thread(target=write, args=(n,))
                    for n in names]
                   + [threading.Thread(target=read) for _ in range(2)])
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not regressions
    described = resilience.describe()["per_procedure"]
    assert {name: policy["max_attempts"]
            for name, policy in described.items()} == \
        dict.fromkeys(names, 201)
