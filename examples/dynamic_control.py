#!/usr/bin/env python3
"""Dynamic workload control over the REST API — the paper's §2.2.4 demo.

Runs a *live* threaded workload (real worker threads, wall-clock time),
starts the HTTP control server, and drives it exactly the way BenchPress's
game client does: throttle the rate, flip the mixture to read-only, poll
instantaneous throughput/latency feedback.

Run:  python examples/dynamic_control.py        (~12 seconds wall time)
"""

import threading
import time

from repro.api import ApiClient, ApiServer, ControlApi
from repro.benchmarks import create_benchmark
from repro.core import (Phase, ThreadedExecutor, WorkloadConfiguration,
                        WorkloadManager)
from repro.engine import Database


def main() -> None:
    db = Database("live-demo")
    benchmark = create_benchmark("smallbank", db, scale_factor=0.5, seed=1)
    benchmark.load()

    config = WorkloadConfiguration(
        benchmark="smallbank", workers=8, seed=3, tenant="demo",
        phases=[Phase(duration=12, rate=300)])
    manager = WorkloadManager(benchmark, config)
    executor = ThreadedExecutor(db)
    executor.add_workload(manager)

    control = ControlApi()
    control.register(manager)

    with ApiServer(control, port=0) as server, \
            ApiClient(server.url) as client:
        print(f"control API listening on {server.url}")

        def director() -> None:
            """The 'player': a scripted sequence of control commands."""
            time.sleep(3)
            print("\n[t=3s] throttling demo tenant to 60 tps")
            client.set_rate("demo", 60)
            time.sleep(3)
            print("[t=6s] switching mixture to the read-only preset")
            client.set_preset("demo", "read-only")
            time.sleep(2)
            print("[t=8s] opening the throttle back to 300 tps")
            client.set_rate("demo", 300)

        def reporter() -> None:
            for _ in range(11):
                time.sleep(1)
                status = client.status("demo")
                txns = ", ".join(
                    f"{name}={m['throughput']:.0f}tps"
                    for name, m in sorted(status["per_txn"].items()))
                print(f"  status: {status['throughput']:6.1f} tps, "
                      f"avg latency {status['avg_latency'] * 1000:6.2f} ms"
                      f"  [{txns}]")

        threading.Thread(target=director, daemon=True).start()
        reporter_thread = threading.Thread(target=reporter, daemon=True)
        reporter_thread.start()
        executor.run(timeout=30)
        reporter_thread.join(timeout=2)

    summary = manager.results.summary()
    print(f"\nrun finished: {summary['committed']} committed, "
          f"{summary['aborted']} aborted, "
          f"{summary['throughput']:.1f} tps overall")


if __name__ == "__main__":
    main()
