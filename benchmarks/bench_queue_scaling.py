"""Experiment — driver scaling: batched take + process-parallel tenants.

Two acceptance claims for the scaled driver (DESIGN.md §11):

* **Capacity** — at 4 tenants under a saturating offered rate, the
  process-per-tenant driver (batched take, buffered samples) delivers
  at least 2x the throughput of the seed-configuration driver
  (single-process, ``take_batch=1``, per-sample recording).
* **Fidelity** — at the paper-style reference rate the scaled driver is
  not *trading* accuracy for speed: it still delivers >= 98% of the
  requested transactions, and the queue invariant holds in every tenant
  process.

The workload is a deliberate no-op benchmark: the engine does no work,
so every observed difference is driver overhead — queue locking, the
per-transaction hot path, and sample recording — which is exactly the
subsystem under test.
"""

from repro.core import (Phase, ProcessExecutor, TenantSpec,
                        ThreadedExecutor, WorkloadConfiguration,
                        WorkloadManager)
from repro.core.benchmark import BenchmarkModule
from repro.core.procedure import Procedure
from repro.engine import Database

from conftest import once, report

TENANTS = 4
SEED_WORKERS = 8        # per tenant, the seed driver's default pool
PROC_WORKERS = 2        # per tenant process; this host has one CPU
PROC_TAKE_BATCH = 128
CAPACITY_RATE = 60_000  # per tenant per second: saturates the driver
CAPACITY_DURATION = 5.0
REFERENCE_RATE = 10_000  # per tenant per second: the fidelity check
REFERENCE_DURATION = 3.0

CAPACITY_FLOOR = 2.0   # process driver must deliver >= 2x the seed driver
FIDELITY_FLOOR = 0.98  # delivered/requested at the reference rate


class NoOp(Procedure):
    """A transaction that costs nothing: isolates driver overhead."""

    name = "NoOp"
    read_only = True
    default_weight = 100.0

    def run(self, conn, rng):
        return None


class NoOpBench(BenchmarkModule):
    name = "noop"
    domain = "Driver calibration"
    procedures = (NoOp,)

    def ddl(self):
        return ["CREATE TABLE noop_t (k INT PRIMARY KEY)"]

    def load_data(self, rng):
        self.database.bulk_insert("noop_t", [(0,)])


def _noop_factory(spec: TenantSpec) -> NoOpBench:
    """Module-level (picklable) tenant benchmark factory."""
    bench = NoOpBench(Database(), seed=spec.config.seed)
    bench.load()
    return bench


# -- capacity ratio and reference-rate fidelity -----------------------------

def _config(tenant: str, workers: int, seed: int, rate: float,
            duration: float) -> WorkloadConfiguration:
    return WorkloadConfiguration(
        benchmark="noop", workers=workers, seed=seed, tenant=tenant,
        phases=[Phase(duration=duration, rate=rate)])


def run_seed_driver(rate: float, duration: float):
    """The seed-configuration driver: one process, unbatched, unbuffered."""
    executor = ThreadedExecutor(Database(), take_batch=1,
                                buffer_samples=False)
    managers = []
    for index in range(TENANTS):
        bench = NoOpBench(Database(), seed=1)
        bench.load()
        config = _config(f"tenant-{index}", SEED_WORKERS, 42 + index,
                         rate, duration)
        manager = WorkloadManager(bench, config, clock=executor.clock)
        executor.add_workload(manager)
        managers.append(manager)
    executor.run(timeout=duration + 30)
    delivered = sum(len(m.results) for m in managers)
    counters = [m.queue.counters() for m in managers]
    return delivered, counters


def run_process_driver(rate: float, duration: float):
    """The scaled driver: process per tenant, batched take."""
    executor = ProcessExecutor(stats_interval=5.0)
    for index in range(TENANTS):
        config = _config(f"tenant-{index}", PROC_WORKERS, 42 + index,
                         rate, duration)
        executor.add_tenant(TenantSpec(
            config=config, benchmark_factory=_noop_factory,
            take_batch=PROC_TAKE_BATCH))
    run_report = executor.run(timeout=duration + 30)
    assert run_report["ok"], run_report.get("error")
    delivered = sum(len(results) for results
                    in executor.per_tenant_results().values())
    counters = [tenant_report["queue"] for tenant_report
                in run_report["per_tenant"].values()]
    return delivered, counters


def run_scaling():
    seed_delivered, seed_counters = run_seed_driver(
        CAPACITY_RATE, CAPACITY_DURATION)
    proc_delivered, proc_counters = run_process_driver(
        CAPACITY_RATE, CAPACITY_DURATION)
    ref_delivered, ref_counters = run_process_driver(
        REFERENCE_RATE, REFERENCE_DURATION)
    return (seed_delivered, seed_counters, proc_delivered, proc_counters,
            ref_delivered, ref_counters)


def _check_invariant(counters):
    for queue_counters in counters:
        assert queue_counters["offered"] == (queue_counters["taken"]
                                             + queue_counters["postponed"]
                                             + queue_counters["depth"])


def test_process_driver_capacity_and_fidelity(benchmark):
    (seed_delivered, seed_counters, proc_delivered, proc_counters,
     ref_delivered, ref_counters) = once(benchmark, run_scaling)

    requested = int(TENANTS * REFERENCE_RATE * REFERENCE_DURATION)
    ratio = proc_delivered / seed_delivered
    fidelity = ref_delivered / requested
    report(
        "Driver scale-out at 4 tenants",
        ["Driver", "Rate/tenant", "Duration", "Delivered", "Delivered/s",
         "vs seed"],
        [("seed: 1 process, take=1, unbuffered", CAPACITY_RATE,
          CAPACITY_DURATION, seed_delivered,
          round(seed_delivered / CAPACITY_DURATION), 1.0),
         (f"scaled: {TENANTS} processes, take={PROC_TAKE_BATCH}, "
          "buffered", CAPACITY_RATE,
          CAPACITY_DURATION, proc_delivered,
          round(proc_delivered / CAPACITY_DURATION), round(ratio, 2)),
         ("scaled @ reference rate", REFERENCE_RATE, REFERENCE_DURATION,
          ref_delivered, round(ref_delivered / REFERENCE_DURATION),
          "-")],
        notes=f"claims: scaled/seed >= {CAPACITY_FLOOR}x at the "
              f"saturating rate; delivered/requested >= {FIDELITY_FLOOR} "
              f"at the reference rate (got {fidelity:.4f})")

    # Both drivers actually ran all four tenants.
    assert len(seed_counters) == TENANTS
    assert len(proc_counters) == TENANTS
    assert seed_delivered > 0

    # Capacity: the scaled driver clears the 2x floor.
    assert ratio >= CAPACITY_FLOOR, (
        f"process driver delivered only {ratio:.2f}x the seed driver "
        f"({proc_delivered} vs {seed_delivered})")

    # Fidelity: at the reference rate nothing is silently dropped.
    assert fidelity >= FIDELITY_FLOOR, (
        f"delivered/requested {fidelity:.4f} below {FIDELITY_FLOOR} "
        f"({ref_delivered}/{requested})")

    # Queue accounting survives every configuration.
    _check_invariant(seed_counters)
    _check_invariant(proc_counters)
    _check_invariant(ref_counters)
