"""Arrival schedules: exact counts, interleaving, fractional rates."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.rates import (ArrivalSchedule, exponential_offsets,
                              uniform_offsets)
from repro.errors import ConfigurationError


def test_uniform_offsets_evenly_spaced():
    offsets = uniform_offsets(4)
    assert offsets == [0.0, 0.25, 0.5, 0.75]
    assert uniform_offsets(0) == []


def test_exponential_offsets_sorted_in_unit_interval():
    rng = random.Random(3)
    offsets = exponential_offsets(100, rng)
    assert offsets == sorted(offsets)
    assert all(0.0 <= o < 1.0 for o in offsets)
    assert len(offsets) == 100


def test_exact_count_per_second():
    schedule = ArrivalSchedule(250, "uniform")
    batch = schedule.batch(10.0)
    assert len(batch) == 250
    assert all(10.0 <= t < 11.0 for t in batch)


def test_fractional_rate_long_run_exact():
    """2.5 tps must deliver exactly 25 arrivals over 10 seconds."""
    schedule = ArrivalSchedule(2.5, "uniform")
    total = sum(len(schedule.batch(float(s))) for s in range(10))
    assert total == 25


def test_sub_one_rate():
    schedule = ArrivalSchedule(0.25, "uniform")
    counts = [len(schedule.batch(float(s))) for s in range(8)]
    assert sum(counts) == 2
    assert max(counts) == 1


def test_rate_change_applies_next_batch():
    schedule = ArrivalSchedule(10, "uniform")
    assert len(schedule.batch(0.0)) == 10
    schedule.set_rate(40)
    assert len(schedule.batch(1.0)) == 40


def test_invalid_rates_rejected():
    with pytest.raises(ConfigurationError):
        ArrivalSchedule(0)
    schedule = ArrivalSchedule(1)
    with pytest.raises(ConfigurationError):
        schedule.set_rate(-1)


def test_invalid_arrival_kind_rejected():
    with pytest.raises(ConfigurationError):
        ArrivalSchedule(10, "weird")


def test_exponential_schedule_reproducible_with_seed():
    a = ArrivalSchedule(50, "exponential", random.Random(9))
    b = ArrivalSchedule(50, "exponential", random.Random(9))
    assert a.batch(0.0) == b.batch(0.0)


@given(rate=st.floats(min_value=0.1, max_value=500),
       seconds=st.integers(min_value=1, max_value=60))
@settings(max_examples=80, deadline=None)
def test_long_run_count_matches_rate(rate, seconds):
    """Property: arrivals never exceed the target and lag by < 1 txn."""
    schedule = ArrivalSchedule(rate, "uniform")
    total = sum(len(schedule.batch(float(s))) for s in range(seconds))
    deficit = rate * seconds - total
    assert -1e-6 <= deficit < 1.0 + 1e-6


@given(rate=st.integers(min_value=1, max_value=300))
@settings(max_examples=40, deadline=None)
def test_batch_timestamps_monotonic_and_bounded(rate):
    schedule = ArrivalSchedule(rate, "exponential", random.Random(4))
    batch = schedule.batch(7.0)
    assert batch == sorted(batch)
    assert all(7.0 <= t < 8.0 for t in batch)
