#!/usr/bin/env python3
"""TPC-C end to end: load, phased execution, consistency audit.

The classic order-processing benchmark at a reduced-but-proportional
population, driven through a read-heavy then write-heavy phase sequence.
Finishes with the spec's consistency conditions and the trace analyzer's
latency report — everything a tuning session needs.

Run:  python examples/tpcc_workload.py
"""

from repro.benchmarks import create_benchmark
from repro.clock import SimClock
from repro.core import (Phase, SimulatedExecutor, WorkloadConfiguration,
                        WorkloadManager)
from repro.engine import Database
from repro.monitor import EngineMonitor
from repro.trace import TraceAnalyzer

READ_MIX = {"NewOrder": 10, "Payment": 10, "OrderStatus": 40,
            "Delivery": 0.5, "StockLevel": 39.5}
SPEC_MIX = {"NewOrder": 45, "Payment": 43, "OrderStatus": 4,
            "Delivery": 4, "StockLevel": 4}


def main() -> None:
    db = Database("tpcc-demo")
    benchmark = create_benchmark(
        "tpcc", db, scale_factor=2, seed=99,
        districts=4, customers_per_district=100, items=500,
        initial_orders=60)
    benchmark.load()
    counts = benchmark.table_counts()
    print("population:",
          {t: counts[t] for t in ("warehouse", "district", "customer",
                                  "item", "stock", "oorder")})

    config = WorkloadConfiguration(
        benchmark="tpcc", workers=8, seed=4,
        phases=[
            Phase(duration=20, rate=120, weights=READ_MIX,
                  name="browse-heavy"),
            Phase(duration=20, rate=120, weights=SPEC_MIX,
                  name="spec-mixture"),
        ])
    clock = SimClock()
    manager = WorkloadManager(benchmark, config, clock=clock)
    executor = SimulatedExecutor(db, "postgres", clock)
    executor.add_workload(manager)
    monitor = EngineMonitor(db)
    monitor.schedule_on(executor, interval=5.0, until=40.0)
    executor.run()

    results = manager.results
    print(f"\ncommitted {results.committed()}, aborted "
          f"{results.aborted()} "
          f"(TPC-C intends ~1% NewOrder rollbacks)")
    print("\nlatency by transaction type (ms):")
    for txn_name in results.metrics.txn_counts():
        stats = results.latency_percentiles(txn_name)
        if stats:
            print(f"  {txn_name:12s} avg={stats['avg'] * 1000:8.3f} "
                  f"p95={stats['p95'] * 1000:8.3f}")

    analyzer = TraceAnalyzer(results)
    print(f"\nthroughput jitter (CoV): {analyzer.jitter():.4f}")
    print("server activity per 5s monitor sample "
          "(rows read / rows written):")
    for sample in monitor.samples:
        print(f"  t={sample.time:5.1f}s  {sample.rows_read:7d} / "
              f"{sample.rows_written:6d}")

    print(f"\nconsistency audit: {benchmark.check_consistency()}")


if __name__ == "__main__":
    main()
