"""Arrival schedules: how requests are interleaved within each second.

Paper §2.2.1: "The exact number of requests configured is added to the
queue each second, and each arrival is interleaved with a uniform or
exponential arrival time."

* Uniform interleaving spaces the n arrivals evenly across the second.
* Exponential interleaving places them at the order statistics of n i.i.d.
  Uniform(0,1) draws — exactly the distribution of Poisson-process arrival
  times conditioned on n arrivals in the interval, i.e. exponential gaps
  with the configured count preserved.

Fractional rates are honoured with a deficit accumulator so that, e.g.,
2.5 tps alternates batches of 2 and 3 and long-run delivery is exact.
"""

from __future__ import annotations

import random

from ..errors import ConfigurationError
from ..rand import make_rng
from .phase import ARRIVAL_EXPONENTIAL, ARRIVAL_UNIFORM


def uniform_offsets(count: int) -> list[float]:
    """Evenly spaced offsets in [0, 1) for ``count`` arrivals."""
    if count <= 0:
        return []
    return [i / count for i in range(count)]


def exponential_offsets(count: int, rng: random.Random) -> list[float]:
    """Poisson-conditioned offsets: sorted i.i.d. Uniform(0,1) draws."""
    if count <= 0:
        return []
    return sorted(rng.random() for _ in range(count))


class ArrivalSchedule:
    """Produces per-second arrival timestamp batches at a target rate."""

    def __init__(self, rate: float, arrival: str = ARRIVAL_UNIFORM,
                 rng: random.Random | None = None) -> None:
        if rate <= 0:
            raise ConfigurationError("arrival rate must be positive")
        if arrival not in (ARRIVAL_UNIFORM, ARRIVAL_EXPONENTIAL):
            raise ConfigurationError(f"unknown arrival kind {arrival!r}")
        self.rate = float(rate)
        self.arrival = arrival
        # Callers normally pass the manager's seeded rng; the fallback is
        # seeded too so a bare ArrivalSchedule still replays identically.
        self._rng = rng or make_rng(0, "arrival-schedule")
        self._deficit = 0.0

    def set_rate(self, rate: float) -> None:
        if rate <= 0:
            raise ConfigurationError("arrival rate must be positive")
        self.rate = float(rate)

    def batch(self, second_start: float) -> list[float]:
        """Arrival timestamps for the second beginning at ``second_start``."""
        self._deficit += self.rate
        count = int(self._deficit)
        self._deficit -= count
        if self.arrival == ARRIVAL_UNIFORM:
            offsets = uniform_offsets(count)
        else:
            offsets = exponential_offsets(count, self._rng)
        return [second_start + offset for offset in offsets]
