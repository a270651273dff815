"""Phase validation and derived views."""

import pytest

from repro.core.phase import (ARRIVAL_EXPONENTIAL, Phase, RATE_DISABLED,
                              RATE_UNLIMITED, UNLIMITED_RATE_CONSTANT,
                              normalize_weights)
from repro.errors import ConfigurationError


def test_basic_phase():
    phase = Phase(duration=60, rate=100, weights={"A": 50, "B": 50})
    assert phase.effective_rate == 100.0


def test_unlimited_rate_uses_large_constant():
    phase = Phase(duration=10)
    assert phase.rate == RATE_UNLIMITED
    assert phase.effective_rate == UNLIMITED_RATE_CONSTANT


def test_disabled_rate_is_closed_loop():
    phase = Phase(duration=10, rate=RATE_DISABLED)
    with pytest.raises(ConfigurationError):
        phase.effective_rate


@pytest.mark.parametrize("bad", [0, -5, "fast", True])
def test_invalid_rates_rejected(bad):
    with pytest.raises(ConfigurationError):
        Phase(duration=10, rate=bad)


def test_invalid_duration_rejected():
    with pytest.raises(ConfigurationError):
        Phase(duration=0)
    with pytest.raises(ConfigurationError):
        Phase(duration=-1)


def test_negative_weight_rejected():
    with pytest.raises(ConfigurationError):
        Phase(duration=10, weights={"A": -1})


def test_all_zero_weights_rejected():
    with pytest.raises(ConfigurationError):
        Phase(duration=10, weights={"A": 0, "B": 0})


def test_unknown_arrival_rejected():
    with pytest.raises(ConfigurationError):
        Phase(duration=10, arrival="gaussian")


def test_negative_think_time_rejected():
    with pytest.raises(ConfigurationError):
        Phase(duration=10, think_time=-0.1)


def test_with_weights_copies():
    phase = Phase(duration=10, rate=50, weights={"A": 1})
    reweighted = phase.with_weights({"A": 2})
    assert reweighted.weights == {"A": 2} and phase.weights == {"A": 1}


def test_exponential_arrival_accepted():
    assert Phase(duration=5, arrival=ARRIVAL_EXPONENTIAL).arrival == \
        ARRIVAL_EXPONENTIAL


def test_normalize_weights_sums_to_100():
    weights = normalize_weights({"A": 1, "B": 3})
    assert weights == {"A": 25.0, "B": 75.0}
    with pytest.raises(ConfigurationError):
        normalize_weights({"A": 0})
