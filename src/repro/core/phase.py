"""Workload phases: the unit of OLTP-Bench execution control.

A phase fixes (1) a target transaction rate, (2) a transaction mixture, and
(3) a duration in seconds (paper §2.1).  Phases also carry the arrival
interleaving (uniform or exponential within each second) and an optional
per-request think time, matching the knobs the Workload Manager honours.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from ..errors import ConfigurationError

#: Rate sentinel: open loop at a large configurable constant (paper §2.2.1).
RATE_UNLIMITED = "unlimited"
#: Rate sentinel: rate control off entirely — pure closed loop.
RATE_DISABLED = "disabled"

#: The "large configurable constant" used for unlimited arrivals.
UNLIMITED_RATE_CONSTANT = 50_000.0

ARRIVAL_UNIFORM = "uniform"
ARRIVAL_EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class Phase:
    """One execution phase of a workload."""

    duration: float
    rate: object = RATE_UNLIMITED  # float tps | RATE_UNLIMITED | RATE_DISABLED
    weights: Mapping[str, float] = field(default_factory=dict)
    arrival: str = ARRIVAL_UNIFORM
    think_time: float = 0.0  # seconds a worker sleeps after each txn
    #: OLTP-Bench's <active_terminals>: only the first N workers execute
    #: during this phase (None = all configured workers).
    active_workers: Optional[int] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigurationError("phase duration must be positive")
        if self.arrival not in (ARRIVAL_UNIFORM, ARRIVAL_EXPONENTIAL):
            raise ConfigurationError(
                f"unknown arrival distribution {self.arrival!r}")
        if self.think_time < 0:
            raise ConfigurationError("think_time must be non-negative")
        if self.active_workers is not None and self.active_workers <= 0:
            raise ConfigurationError("active_workers must be positive")
        self._validate_rate(self.rate)
        if self.weights:
            if any(w < 0 for w in self.weights.values()):
                raise ConfigurationError("mixture weights must be >= 0")
            if sum(self.weights.values()) <= 0:
                raise ConfigurationError("mixture weights must not all be 0")

    @staticmethod
    def _validate_rate(rate: object) -> None:
        if rate in (RATE_UNLIMITED, RATE_DISABLED):
            return
        if isinstance(rate, bool) or not isinstance(rate, (int, float)):
            raise ConfigurationError(f"invalid rate {rate!r}")
        if rate <= 0:
            raise ConfigurationError("rate must be positive")

    # -- derived views ---------------------------------------------------

    @property
    def effective_rate(self) -> float:
        """Arrivals per second fed to the request queue."""
        if self.rate == RATE_UNLIMITED:
            return UNLIMITED_RATE_CONSTANT
        if self.rate == RATE_DISABLED:
            raise ConfigurationError(
                "closed-loop phases have no arrival rate")
        return float(self.rate)

    def with_weights(self, weights: Mapping[str, float]) -> "Phase":
        return replace(self, weights=dict(weights))


def normalize_weights(weights: Mapping[str, float]) -> dict[str, float]:
    """Scale weights so they sum to 100 (OLTP-Bench convention)."""
    total = sum(weights.values())
    if total <= 0:
        raise ConfigurationError("weights must sum to a positive value")
    return {name: 100.0 * w / total for name, w in weights.items()}
