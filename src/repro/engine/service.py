"""DBMS personalities: per-server performance models.

In the BenchPress demo every target DBMS is a different game "stage" with a
different feel: each engine saturates at a different throughput, responds to
load changes with different lag, and suffers differently under write
contention.  We reproduce that with :class:`DbmsPersonality`, an analytic
service-time model layered over the real SQL engine:

* the SQL engine provides *semantics* (real rows, locks, aborts);
* the personality provides *timing* — how long the simulated server takes
  to run a transaction given its read/write footprint and the load around
  it.

The model for one transaction with ``r`` rows read and ``w`` rows written
executing while ``n`` transactions are active (``n_w`` of them writers):

    base = overhead + r * read_row + w * write_row
    cpu  = max(1, n / cpu_cores)                  # processor sharing
    lock = 1 + write_contention * n_w * min(1, w) # writer interference
    service_time = base * cpu * lock * jitter

``jitter`` is lognormal with configurable sigma, so noisy personalities
(Derby in the demo) produce oscillating throughput that fails the Tunnel
challenge, while tight ones (Oracle) pass it.
"""

from __future__ import annotations

import math
import random
from collections.abc import Hashable
from dataclasses import dataclass, field


@dataclass(frozen=True)
class DbmsPersonality:
    """Analytic performance profile of one simulated DBMS product."""

    name: str
    stage: str  # the BenchPress game stage themed after this DBMS
    overhead_ms: float = 0.5
    read_row_ms: float = 0.01
    write_row_ms: float = 0.05
    cpu_cores: int = 8
    write_contention: float = 0.015
    jitter_sigma: float = 0.08
    ramp_lag: float = 0.3  # seconds of exponential lag tracking load changes
    max_connections: int = 512

    def service_time(self, rng: random.Random, rows_read: int,
                     rows_written: int, active: int,
                     active_writers: int) -> float:
        """Sampled execution time (seconds) for one transaction."""
        base_ms = (self.overhead_ms
                   + rows_read * self.read_row_ms
                   + rows_written * self.write_row_ms)
        cpu_factor = max(1.0, active / max(1, self.cpu_cores))
        lock_factor = 1.0
        if rows_written > 0 and active_writers > 1:
            lock_factor += self.write_contention * (active_writers - 1)
        jitter = math.exp(rng.gauss(0.0, self.jitter_sigma))
        return (base_ms / 1000.0) * cpu_factor * lock_factor * jitter

    def saturation_tps(self, avg_rows_read: float = 10.0,
                       avg_rows_written: float = 2.0) -> float:
        """Back-of-envelope saturation throughput for planning challenges.

        The processor-sharing model caps total service capacity at
        ``cpu_cores`` transaction-seconds per second, so saturation is
        approximately cores / mean base service time.
        """
        base_ms = (self.overhead_ms
                   + avg_rows_read * self.read_row_ms
                   + avg_rows_written * self.write_row_ms)
        return self.cpu_cores / (base_ms / 1000.0)


#: Built-in personalities named after the demo's selectable DBMSs.  The
#: numbers are not vendor measurements — they are chosen to make the stages
#: *feel* different in the ways the paper describes (cf. DESIGN.md).
PERSONALITIES: dict[str, DbmsPersonality] = {
    "mysql": DbmsPersonality(
        name="mysql", stage="forest",
        overhead_ms=0.35, read_row_ms=0.010, write_row_ms=0.060,
        cpu_cores=8, write_contention=0.030, jitter_sigma=0.10),
    "postgres": DbmsPersonality(
        name="postgres", stage="mountain",
        overhead_ms=0.40, read_row_ms=0.012, write_row_ms=0.045,
        cpu_cores=8, write_contention=0.018, jitter_sigma=0.06),
    "oracle": DbmsPersonality(
        name="oracle", stage="city",
        overhead_ms=0.30, read_row_ms=0.008, write_row_ms=0.040,
        cpu_cores=16, write_contention=0.012, jitter_sigma=0.04),
    "derby": DbmsPersonality(
        name="derby", stage="cave",
        overhead_ms=1.20, read_row_ms=0.030, write_row_ms=0.150,
        cpu_cores=4, write_contention=0.060, jitter_sigma=0.22),
    "inmem": DbmsPersonality(
        name="inmem", stage="void",
        overhead_ms=0.05, read_row_ms=0.001, write_row_ms=0.002,
        cpu_cores=64, write_contention=0.001, jitter_sigma=0.01),
}


def get_personality(name: str) -> DbmsPersonality:
    try:
        return PERSONALITIES[name]
    except KeyError:
        known = ", ".join(sorted(PERSONALITIES))
        raise KeyError(
            f"unknown DBMS personality {name!r}; available: {known}"
        ) from None


@dataclass
class LoadTracker:
    """Tracks in-flight transactions for the personality's load inputs.

    ``token`` names one in-flight transaction; any hashable that is unique
    while it is in flight will do (the simulator uses its worker record).
    """

    active: int = 0
    active_writers: int = 0
    peak_active: int = 0
    _writer_flags: dict[Hashable, bool] = field(default_factory=dict)

    def started(self, token: Hashable, is_writer: bool) -> None:
        self.active += 1
        self.peak_active = max(self.peak_active, self.active)
        if is_writer:
            self.active_writers += 1
        self._writer_flags[token] = is_writer

    def finished(self, token: Hashable) -> None:
        was_writer = self._writer_flags.pop(token, False)
        self.active = max(0, self.active - 1)
        if was_writer:
            self.active_writers = max(0, self.active_writers - 1)
