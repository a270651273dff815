#!/usr/bin/env python3
"""Quickstart: load a benchmark, run a rate-controlled workload, report.

This is the 60-second tour of the testbed:

1. create an in-memory DBMS instance (`repro.engine.Database`);
2. load a built-in benchmark (YCSB here — any of the 15 works);
3. describe the workload as phases (rate, mixture, duration);
4. run it on the simulated executor (deterministic, faster than real
   time) and print the numbers OLTP-Bench reports.

Run:  python examples/quickstart.py
"""

from repro.benchmarks import create_benchmark
from repro.clock import SimClock
from repro.core import (Phase, SimulatedExecutor, WorkloadConfiguration,
                        WorkloadManager)
from repro.engine import Database
from repro.trace import TraceAnalyzer


def main() -> None:
    # 1. A fresh simulated DBMS instance.
    db = Database("quickstart")

    # 2. Load YCSB at scale factor 1 (1,000 records).
    benchmark = create_benchmark("ycsb", db, scale_factor=1.0, seed=42)
    benchmark.load()
    print(f"loaded {benchmark.name}: {benchmark.table_counts()}")

    # 3. Two phases: a 30s warm-up at 200 tps, then 30s at 800 tps with
    #    exponential (Poisson-like) arrival interleaving.
    config = WorkloadConfiguration(
        benchmark="ycsb", workers=16, seed=7,
        phases=[
            Phase(duration=30, rate=200, name="warmup"),
            Phase(duration=30, rate=800, arrival="exponential",
                  name="measure"),
        ])

    # 4. Run on the simulated executor with the "mysql" personality.
    clock = SimClock()
    manager = WorkloadManager(benchmark, config, clock=clock)
    executor = SimulatedExecutor(db, "mysql", clock)
    executor.add_workload(manager)
    executor.run()

    # Report: throughput, per-transaction latency, rate-cap compliance.
    results = manager.results
    analyzer = TraceAnalyzer(results)
    print(f"\ncommitted {results.committed()} transactions "
          f"({results.aborted()} aborted)")
    print(f"overall throughput: {results.throughput():.1f} tps")
    print(f"rate-cap violations: "
          f"{analyzer.rate_cap_violations(cap=800)} seconds")
    print("\nper-transaction latency (ms):")
    for txn_name, counts in results.metrics.txn_counts().items():
        stats = results.latency_percentiles(txn_name)
        print(f"  {txn_name:24s} avg={stats['avg'] * 1000:7.3f}  "
              f"p99={stats['p99'] * 1000:7.3f}  "
              f"n={counts['committed']}")
    print("\nper-second throughput (middle of each phase):")
    series = dict(results.per_second_throughput())
    for second in (10, 15, 20, 40, 45, 50):
        print(f"  t={second:3d}s  {series.get(second, 0):5d} tps")


if __name__ == "__main__":
    main()
