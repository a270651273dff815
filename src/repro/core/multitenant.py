"""Multi-tenancy coordination (paper §2.2.3).

OLTP-Bench "can be configured to run multiple workloads and benchmarks in
parallel... allowing users to perform multi-tenancy tests that isolate
different workloads within the same instance".  A
:class:`MultiTenantCoordinator` builds one WorkloadManager per tenant on a
shared database/executor, runs them together, and reports per-tenant and
combined results so interference is directly measurable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..clock import SimClock
from ..engine.database import Database
from ..engine.service import DbmsPersonality
from ..errors import ConfigurationError
from .benchmark import BenchmarkModule
from .config import WorkloadConfiguration
from .executors import SimulatedExecutor, ThreadedExecutor
from .manager import WorkloadManager
from .results import Results, merge


@dataclass
class Tenant:
    """One tenant: a benchmark plus its workload configuration."""

    benchmark: BenchmarkModule
    config: WorkloadConfiguration
    manager: Optional[WorkloadManager] = None


class MultiTenantCoordinator:
    """Runs several tenants against one shared database instance."""

    def __init__(self, database: Database,
                 personality: DbmsPersonality | str = "inmem",
                 simulated: bool = True) -> None:
        self.database = database
        self.simulated = simulated
        if simulated:
            self.clock = SimClock()
            self.executor = SimulatedExecutor(database, personality,
                                              self.clock)
        else:
            self.executor = ThreadedExecutor(database)
            self.clock = self.executor.clock
        self.tenants: list[Tenant] = []

    def add_tenant(self, benchmark: BenchmarkModule,
                   config: WorkloadConfiguration) -> WorkloadManager:
        if not benchmark.loaded:
            raise ConfigurationError(
                f"benchmark {benchmark.name!r} must be loaded before adding")
        config.tenant = config.tenant or f"tenant-{len(self.tenants)}"
        manager = WorkloadManager(benchmark, config, clock=self.clock)
        self.executor.add_workload(manager)
        self.tenants.append(Tenant(benchmark, config, manager))
        return manager

    def run(self, until: Optional[float] = None) -> None:
        if not self.tenants:
            raise ConfigurationError("no tenants added")
        if self.simulated:
            self.executor.run(until=until)
        else:
            self.executor.run(timeout=until)

    # -- reporting -----------------------------------------------------------

    def per_tenant_results(self) -> dict[str, Results]:
        return {t.config.tenant: t.manager.results
                for t in self.tenants if t.manager is not None}

    def combined_results(self) -> Results:
        return merge(r for r in self.per_tenant_results().values())

    def interference_report(self, window: tuple[int, int]
                            ) -> dict[str, float]:
        """Per-tenant delivered throughput over a shared whole-second
        window."""
        return {
            tenant: results.throughput(window)
            for tenant, results in self.per_tenant_results().items()
        }
