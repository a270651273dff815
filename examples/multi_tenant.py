#!/usr/bin/env python3
"""Multi-tenancy (paper §2.2.3): two benchmarks sharing one instance.

TPC-C and Twitter run side by side against the same simulated server:
each tenant is one WorkloadManager added to one SimulatedExecutor.
Twitter ramps to a saturating burst in the middle of the run; the report
shows TPC-C's latency inflating while its reserved throughput holds —
the interference signature the two-player game teaches.

Run:  python examples/multi_tenant.py
"""

from repro.benchmarks import create_benchmark
from repro.clock import SimClock
from repro.core import (Phase, SimulatedExecutor, WorkloadConfiguration,
                        WorkloadManager)
from repro.engine import Database


def main() -> None:
    db = Database("shared-instance")

    tpcc = create_benchmark("tpcc", db, scale_factor=1, seed=11,
                            districts=4, customers_per_district=60,
                            items=200, initial_orders=40)
    tpcc.load()
    twitter = create_benchmark("twitter", db, scale_factor=0.5, seed=12)
    twitter.load()
    print("loaded tenants:", sorted(db.table_names()))

    clock = SimClock()
    executor = SimulatedExecutor(db, "derby", clock)
    tenants = [
        (tpcc, WorkloadConfiguration(
            benchmark="tpcc", workers=8, seed=1, tenant="tpcc",
            phases=[Phase(duration=45, rate=60)])),
        (twitter, WorkloadConfiguration(
            benchmark="twitter", workers=24, seed=2, tenant="twitter",
            phases=[
                Phase(duration=15, rate=20),
                Phase(duration=15, rate=2500),  # the noisy-neighbour burst
                Phase(duration=15, rate=20),
            ])),
    ]
    managers = [executor.add_workload(WorkloadManager(bench, config,
                                                      clock=clock))
                for bench, config in tenants]
    executor.run()

    print(f"\n{'window':22s}{'tpcc tps':>10s}{'tpcc p50 ms':>13s}"
          f"{'twitter tps':>13s}")
    results = {manager.tenant: manager.results for manager in managers}
    for label, window in [("Twitter idle", (2, 15)),
                          ("Twitter bursting", (17, 30)),
                          ("Twitter idle again", (32, 45))]:
        tpcc_tput = results["tpcc"].throughput(window)
        samples = sorted(
            s.latency for s in results["tpcc"].samples()
            if window[0] <= s.end < window[1] and s.status == "ok")
        p50 = samples[len(samples) // 2] * 1000 if samples else 0.0
        tw_tput = results["twitter"].throughput(window)
        print(f"{label:22s}{tpcc_tput:10.1f}{p50:13.3f}{tw_tput:13.1f}")

    print("\nTPC-C keeps its reserved 60 tps (the centralized queue "
          "protects it) but pays the burst in latency — the shared "
          "server has only so much capacity.")
    consistency = tpcc.check_consistency()
    print(f"TPC-C consistency after the shared run: {consistency}")


if __name__ == "__main__":
    main()
