"""WorkloadManager: phases, dynamic control, status reporting."""

import random

import pytest

from repro.clock import SimClock
from repro.core import (Phase, RATE_DISABLED, WorkloadConfiguration,
                        WorkloadManager)
from repro.errors import ConfigurationError


def make_manager(mini_benchmark, phases=None, **kwargs):
    cfg = WorkloadConfiguration(
        benchmark="mini", workers=2, seed=1,
        phases=phases or [
            Phase(duration=10, rate=100, weights={"Read": 70, "Write": 30}),
            Phase(duration=10, rate=50, weights={"Read": 100}),
        ], **kwargs)
    return WorkloadManager(mini_benchmark, cfg, clock=SimClock())


def test_requires_phases(mini_benchmark):
    with pytest.raises(ConfigurationError):
        WorkloadManager(mini_benchmark, WorkloadConfiguration(
            benchmark="mini", phases=[]), clock=SimClock())


def test_rejects_unknown_txn_in_phase(mini_benchmark):
    with pytest.raises(ConfigurationError):
        make_manager(mini_benchmark, phases=[
            Phase(duration=5, rate=1, weights={"Nope": 100})])


def test_tick_emits_batches_and_advances_phases(mini_benchmark):
    manager = make_manager(mini_benchmark)
    manager.begin_run(0.0)
    assert len(manager.tick(0.0)) == 100
    assert manager.phase_index == 0
    assert len(manager.tick(10.0)) == 50  # second phase
    assert manager.phase_index == 1
    assert manager.tick(20.0) is None  # finished
    assert manager.finished


def test_cannot_start_twice(mini_benchmark):
    manager = make_manager(mini_benchmark)
    manager.begin_run(0.0)
    with pytest.raises(ConfigurationError):
        manager.begin_run(1.0)


def test_rate_override_and_phase_reset(mini_benchmark):
    manager = make_manager(mini_benchmark)
    manager.begin_run(0.0)
    manager.tick(0.0)
    manager.set_rate(10)
    assert manager.current_rate() == 10
    assert len(manager.tick(1.0)) == 10
    # Phase transition restores the configured parameters.
    manager.tick(10.0)
    assert manager.current_rate() == 50


def test_weights_override(mini_benchmark):
    manager = make_manager(mini_benchmark)
    manager.begin_run(0.0)
    manager.set_weights({"Write": 100})
    rng = random.Random(1)
    names = {manager.sample_txn_name(rng) for _ in range(50)}
    assert names == {"Write"}


def test_weights_override_validation(mini_benchmark):
    manager = make_manager(mini_benchmark)
    with pytest.raises(ConfigurationError):
        manager.set_weights({"Ghost": 100})
    with pytest.raises(ConfigurationError):
        manager.set_weights({})


def test_preset_mixture(mini_benchmark):
    manager = make_manager(mini_benchmark)
    manager.begin_run(0.0)
    manager.set_preset_mixture("read-only")
    assert manager.current_weights() == {"Read": 100.0}
    manager.set_preset_mixture("super-writes")
    assert manager.current_weights() == {"Write": 100.0}
    with pytest.raises(ConfigurationError):
        manager.set_preset_mixture("turbo")


def test_closed_loop_detection(mini_benchmark):
    manager = make_manager(mini_benchmark, phases=[
        Phase(duration=5, rate=RATE_DISABLED,
              weights={"Read": 100})])
    manager.begin_run(0.0)
    assert manager.closed_loop
    assert manager.tick(0.0) == []


def test_dynamic_switch_to_closed_loop(mini_benchmark):
    manager = make_manager(mini_benchmark)
    manager.begin_run(0.0)
    manager.set_rate(RATE_DISABLED)
    assert manager.closed_loop
    assert manager.tick(1.0) == []
    manager.set_rate(25)
    assert len(manager.tick(2.0)) == 25


def test_pause_resume(mini_benchmark):
    manager = make_manager(mini_benchmark)
    manager.begin_run(0.0)
    manager.tick(0.0)
    manager.pause()
    assert manager.paused
    assert manager.queue.poll(5.0) is None
    manager.resume()
    assert manager.queue.poll(5.0) is not None


def test_think_time_override(mini_benchmark):
    manager = make_manager(mini_benchmark)
    manager.begin_run(0.0)
    manager.set_think_time(0.5)
    assert manager.current_think_time() == 0.5
    with pytest.raises(ConfigurationError):
        manager.set_think_time(-1)


def test_stop_shuts_queue(mini_benchmark):
    manager = make_manager(mini_benchmark)
    manager.begin_run(0.0)
    manager.tick(0.0)
    manager.stop()
    assert manager.finished
    assert manager.tick(1.0) is None


def test_control_change_callback_fired(mini_benchmark):
    manager = make_manager(mini_benchmark)
    calls = []
    manager.on_control_change = lambda: calls.append(1)
    manager.begin_run(0.0)
    manager.set_rate(5)
    manager.pause()
    manager.resume()
    assert len(calls) == 3


def test_status_shape(mini_benchmark):
    manager = make_manager(mini_benchmark)
    manager.begin_run(0.0)
    manager.tick(0.0)
    status = manager.status(now=1.0)
    for key in ("benchmark", "tenant", "state", "phase_index", "rate",
                "weights", "throughput", "avg_latency", "per_txn",
                "queue_depth", "postponed"):
        assert key in status
    assert status["benchmark"] == "mini"
    assert status["rate"] == 100


def test_default_weights_used_when_phase_has_none(mini_benchmark):
    manager = make_manager(mini_benchmark, phases=[
        Phase(duration=5, rate=10)])
    manager.begin_run(0.0)
    weights = manager.current_weights()
    assert weights["Read"] == 70.0
    assert weights["Write"] == 30.0


def test_rate_change_transition_sheds_and_counts_postponed(mini_benchmark):
    """Cap policy: pending arrivals die with the old rate, counted."""
    manager = make_manager(mini_benchmark)  # phase rates 100 -> 50
    manager.begin_run(0.0)
    manager.tick(0.0)  # 100 arrivals queued, none served
    manager.tick(10.0)  # transition into the 50 tps phase
    counters = manager.queue.counters()
    assert manager.results.postponed >= 100  # the stale batch
    assert counters["offered"] == counters["taken"] \
        + counters["postponed"] + counters["depth"]


def test_same_rate_transition_keeps_queue(mini_benchmark):
    manager = make_manager(mini_benchmark, phases=[
        Phase(duration=10, rate=100), Phase(duration=10, rate=100)])
    manager.begin_run(0.0)
    manager.tick(0.0)
    before = manager.results.postponed
    manager.tick(10.0)  # same rate: nothing shed by the transition
    # (offer_batch itself may shed stale arrivals under cap policy,
    # but _enter_phase must not clear() on an equal-rate hop.)
    assert manager.phase_index == 1
    assert manager.results.postponed >= before


def test_metrics_payload_shape(mini_benchmark):
    manager = make_manager(mini_benchmark)
    manager.begin_run(0.0)
    manager.tick(0.0)
    payload = manager.metrics(now=5.0, window=5.0)
    assert payload["benchmark"] == "mini"
    assert payload["tenant"] == manager.tenant
    assert payload["state"] == "running"
    assert set(payload["queue"]) == {"offered", "taken", "postponed",
                                     "depth"}
    assert payload["queue"]["offered"] == 100
    assert payload["recording"] == manager.results.recorder_stats()
    assert "throughput" in payload["window"]
    assert "total" in payload["latency"]
    assert payload["bins"]["bins_per_decade"] == 32
    assert payload["elapsed"] == pytest.approx(5.0)
