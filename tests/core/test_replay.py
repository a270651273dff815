"""Trace-driven workload replay."""

import pytest

from repro.clock import SimClock
from repro.core import (SimulatedExecutor, WorkloadConfiguration,
                        WorkloadManager)
from repro.core.replay import (phases_from_csv, phases_from_results,
                               phases_from_series)
from repro.core.results import LatencySample, Results
from repro.errors import ConfigurationError
from repro.metrics import StreamingMetrics

from ..conftest import MiniBenchmark


def test_phases_from_series_basic():
    phases = phases_from_series([(10, 50), (5, 200), (10, 50)])
    assert [p.duration for p in phases] == [10, 5, 10]
    assert [p.rate for p in phases] == [50, 200, 50]
    assert phases[0].name == "replay-0"


def test_adjacent_equal_rates_merged():
    phases = phases_from_series([(10, 50), (10, 50), (5, 100)])
    assert len(phases) == 2
    assert phases[0].duration == 20


def test_zero_rate_clamped_to_minimum():
    phases = phases_from_series([(10, 0)])
    assert phases[0].rate == pytest.approx(0.1)


def test_invalid_series_rejected():
    with pytest.raises(ConfigurationError):
        phases_from_series([])
    with pytest.raises(ConfigurationError):
        phases_from_series([(0, 10)])


def test_phases_from_csv(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text(
        "# production trace, 2026-07-01\n"
        "duration,rate\n"
        "30,120\n"
        "60,480\n"
        "30,120\n")
    phases = phases_from_csv(path, weights={"Read": 100})
    assert [p.rate for p in phases] == [120, 480, 120]
    assert phases[1].weights == {"Read": 100}


def test_phases_from_csv_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("30\n")
    with pytest.raises(ConfigurationError):
        phases_from_csv(path)


def test_phases_from_results_buckets_and_scale():
    results = Results()
    for second in range(20):
        rate = 10 if second < 10 else 30
        for i in range(rate):
            results.record(LatencySample("T", second + i / rate, 0.0,
                                         0.001))
    phases = phases_from_results(results, bucket_seconds=10, scale=2.0)
    assert [p.rate for p in phases] == [20.0, 60.0]
    with pytest.raises(ConfigurationError):
        phases_from_results(Results())
    with pytest.raises(ConfigurationError):
        phases_from_results(results, bucket_seconds=0)


def test_phases_from_results_refuses_a_truncated_series():
    """Seconds evicted from the metrics ring would replay as silence."""
    results = Results(StreamingMetrics(history_seconds=5))
    for second in range(8):
        results.record(LatencySample("T", second + 0.5, 0.0, 0.001))
    with pytest.raises(ConfigurationError, match="truncated"):
        phases_from_results(results)


def test_replayed_profile_reproduces_original_shape(db):
    """Record a run, extract its profile, replay it: same series."""
    bench = MiniBenchmark(db, seed=42)
    bench.load()
    clock = SimClock()
    original_phases = phases_from_series([(6, 40), (6, 160), (6, 80)])
    cfg = WorkloadConfiguration(benchmark="mini", workers=8, seed=1,
                                phases=original_phases)
    manager = WorkloadManager(bench, cfg, clock=clock)
    executor = SimulatedExecutor(db, "oracle", clock)
    executor.add_workload(manager)
    executor.run()

    replay_phases = phases_from_results(manager.results, bucket_seconds=6)
    assert [round(p.rate) for p in replay_phases] == [40, 160, 80]

    db2 = type(db)()
    bench2 = MiniBenchmark(db2, seed=42)
    bench2.load()
    clock2 = SimClock()
    cfg2 = WorkloadConfiguration(benchmark="mini", workers=8, seed=1,
                                 phases=replay_phases)
    manager2 = WorkloadManager(bench2, cfg2, clock=clock2)
    executor2 = SimulatedExecutor(db2, "oracle", clock2)
    executor2.add_workload(manager2)
    executor2.run()
    original = dict(manager.results.per_second_throughput())
    replayed = dict(manager2.results.per_second_throughput())
    for second in range(1, 17):
        assert replayed.get(second, 0) == pytest.approx(
            original.get(second, 0), abs=2)
