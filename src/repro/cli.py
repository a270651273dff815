"""Command-line interface, the analogue of the ``oltpbenchmark`` script.

    python -m repro list
    python -m repro run --benchmark ycsb --rate 500 --duration 30
    python -m repro run --benchmark tpcc --config workload.json --threaded
    python -m repro dump --benchmark tpcc --scale 1 --output tpcc.dump.json
    python -m repro game --benchmark voter --dbms oracle

``run`` executes a workload (simulated virtual time by default, or live
with ``--threaded``), prints the OLTP-Bench summary, and can write the raw
trace with ``--trace``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .benchmarks import benchmark_names, create_benchmark, table1
from .clock import SimClock
from .core import (Phase, SimulatedExecutor, ThreadedExecutor,
                   WorkloadConfiguration, WorkloadManager)
from .engine import Database
from .engine.dump import dump_database, restore_database
from .engine.service import PERSONALITIES
from .trace import TraceAnalyzer, TraceWriter


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OLTP-Bench / BenchPress reproduction testbed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the 15 built-in benchmarks")

    run = sub.add_parser("run", help="execute one workload")
    run.add_argument("--benchmark", required=True,
                     choices=benchmark_names())
    run.add_argument("--scale", type=float, default=0.5,
                     help="scale factor (default 0.5)")
    run.add_argument("--rate", default="100",
                     help="target tps, 'unlimited', or 'disabled'")
    run.add_argument("--duration", type=float, default=30.0,
                     help="seconds per phase (default 30)")
    run.add_argument("--workers", type=int, default=8)
    run.add_argument("--dbms", default="mysql",
                     choices=sorted(PERSONALITIES))
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--config", help="JSON workload configuration file "
                                      "(overrides rate/duration)")
    run.add_argument("--take-batch", type=int, default=None, metavar="N",
                     help="workers dequeue up to N due requests per queue "
                          "visit (threaded executor only; default: "
                          "$REPRO_TAKE_BATCH or 16)")
    run.add_argument("--threaded", action="store_true",
                     help="run live worker threads instead of simulating")
    run.add_argument("--trace", help="write the raw per-txn trace CSV here")
    run.add_argument("--metrics-out",
                     help="write the final streaming-metrics snapshot "
                          "(windowed throughput, latency quantiles, queue "
                          "accounting) as JSON here")
    run.add_argument("--restore", help="load data from a dump file "
                                       "instead of the generator")
    run.add_argument("--fault-aborts", type=float, default=None,
                     metavar="P",
                     help="inject transient aborts with probability P "
                          "per attempt (also REPRO_CHAOS_ABORTS)")
    run.add_argument("--fault-latency", type=float, default=None,
                     metavar="P",
                     help="inject latency spikes with probability P "
                          "(also REPRO_CHAOS_LATENCY)")
    run.add_argument("--fault-lock-timeouts", type=float, default=None,
                     metavar="P",
                     help="inject lock timeouts with probability P "
                          "(also REPRO_CHAOS_LOCK_TIMEOUTS)")
    run.add_argument("--fault-disconnects", type=float, default=None,
                     metavar="P",
                     help="inject connection drops with probability P "
                          "(also REPRO_CHAOS_DISCONNECTS)")
    run.add_argument("--retries", type=int, default=None, metavar="N",
                     help="retry faulted transactions up to N attempts "
                          "with exponential backoff "
                          "(also REPRO_CHAOS_RETRIES)")

    dump = sub.add_parser("dump", help="load a benchmark and dump its data")
    dump.add_argument("--benchmark", required=True,
                      choices=benchmark_names())
    dump.add_argument("--scale", type=float, default=0.5)
    dump.add_argument("--seed", type=int, default=42)
    dump.add_argument("--output", required=True)

    game = sub.add_parser("game", help="play one BenchPress course "
                                       "(perfect pilot, ASCII frames)")
    game.add_argument("--benchmark", default="voter",
                      choices=benchmark_names())
    game.add_argument("--dbms", default="oracle",
                      choices=sorted(PERSONALITIES))
    game.add_argument("--seed", type=int, default=42)

    serve = sub.add_parser(
        "serve", help="run the v1 control-plane HTTP server; workloads "
                      "are created over POST /v1/workloads")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)

    lint = sub.add_parser(
        "lint", help="run the repo-aware static analysis rules (RP001...)")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--format", choices=("text", "json"), default="text")
    lint.add_argument("--select", help="comma-separated rule ids to run")
    lint.add_argument("--ignore", help="comma-separated rule ids to skip")
    lint.add_argument("--statistics", action="store_true",
                      help="append a per-rule hit count to the text output")
    lint.add_argument("--explain", action="store_true",
                      help="print the rule table and exit")
    return parser


def _parse_rate(raw: str):
    if raw in ("unlimited", "disabled"):
        return raw
    return float(raw)


def _apply_chaos(manager, args) -> None:
    """Apply the ``--fault-*`` / ``--retries`` flags to one manager.

    The manager already picked up the ``REPRO_CHAOS_*`` environment
    defaults; explicit flags override them field by field.
    """
    fields = {name: value for name, value in (
        ("abort_probability", args.fault_aborts),
        ("latency_probability", args.fault_latency),
        ("lock_timeout_probability", args.fault_lock_timeouts),
        ("disconnect_probability", args.fault_disconnects),
    ) if value is not None}
    if fields:
        manager.set_fault_profile(fields)
    if args.retries is not None:
        manager.set_resilience({"max_attempts": args.retries})


def cmd_list(_args) -> int:
    print(f"{'class':17s}{'benchmark':18s}application domain")
    for row in table1():
        print(f"{row['class']:17s}{row['benchmark']:18s}{row['domain']}")
    return 0


def cmd_run(args) -> int:
    db = Database(args.benchmark)
    if args.restore:
        restore_database(args.restore, into=db)
        bench = create_benchmark(args.benchmark, db,
                                 scale_factor=args.scale, seed=args.seed)
        # The loader already ran when the dump was made; only the derived
        # parameters (row counts, id counters) need rebuilding.
        bench.derive_params()
    else:
        bench = create_benchmark(args.benchmark, db,
                                 scale_factor=args.scale, seed=args.seed)
        bench.load()
    print(f"loaded {args.benchmark}: "
          f"{sum(bench.table_counts().values())} rows", file=sys.stderr)

    if args.config:
        config = WorkloadConfiguration.from_json(args.config)
        config.benchmark = args.benchmark
    else:
        config = WorkloadConfiguration(
            benchmark=args.benchmark, workers=args.workers, seed=args.seed,
            phases=[Phase(duration=args.duration,
                          rate=_parse_rate(args.rate))])

    if args.threaded:
        executor = ThreadedExecutor(db, take_batch=args.take_batch)
        manager = WorkloadManager(bench, config)
        executor.add_workload(manager)
        _apply_chaos(manager, args)
        run_report = executor.run(timeout=config.total_duration() + 30)
        if run_report.get("error"):
            print(f"warning: {run_report['error']}", file=sys.stderr)
    else:
        clock = SimClock()
        manager = WorkloadManager(bench, config, clock=clock)
        executor = SimulatedExecutor(db, args.dbms, clock)
        executor.add_workload(manager)
        _apply_chaos(manager, args)
        executor.run()

    summary = manager.results.summary()
    chaos = {}
    if manager.faults.profile().enabled or args.retries is not None:
        chaos = {"resilience": manager.resilience_payload()}
    print(json.dumps({
        "benchmark": args.benchmark,
        "dbms": args.dbms if not args.threaded else "threaded",
        "committed": summary["committed"],
        "aborted": summary["aborted"],
        "postponed": summary["postponed"],
        "throughput_tps": round(summary["throughput"], 2),
        "jitter": round(TraceAnalyzer(manager.results).jitter(), 4),
        "per_txn": {
            name: {"committed": stats["committed"],
                   "avg_latency_ms": round(
                       stats["latency"].get("avg", 0.0) * 1000, 3)}
            for name, stats in summary["per_txn"].items()
        },
        **chaos,
    }, indent=2))
    if args.trace:
        with TraceWriter(args.trace) as writer:
            count = writer.write_results(manager.results)
        print(f"wrote {count} samples to {args.trace}", file=sys.stderr)
    if args.metrics_out:
        Path(args.metrics_out).write_text(
            json.dumps(manager.metrics(), indent=2, default=str) + "\n")
        print(f"wrote streaming metrics to {args.metrics_out}",
              file=sys.stderr)
    return 0


def cmd_dump(args) -> int:
    db = Database(args.benchmark)
    bench = create_benchmark(args.benchmark, db, scale_factor=args.scale,
                             seed=args.seed)
    bench.load()
    manifest = dump_database(db, args.output)
    print(json.dumps({"output": args.output, "tables": manifest}, indent=2))
    return 0


def cmd_game(args) -> int:
    from .api import ControlApi
    from .benchpress import (Character, Course, GameSession, PerfectPilot,
                             peak, render_frame, sinusoidal, steps, tunnel)

    db = Database(args.benchmark)
    bench = create_benchmark(args.benchmark, db, scale_factor=0.5,
                             seed=args.seed)
    bench.load()
    course = Course.build([
        steps(base=80, step=60, count=4, width=10),
        sinusoidal(center=200, amplitude=100, period=24, duration=48),
        peak(low=120, high=400, lead=10, burst=6, tail=10),
        tunnel(level=180, duration=20),
    ], gap=6, start=8)
    clock = SimClock()
    config = WorkloadConfiguration(
        benchmark=args.benchmark, workers=16, seed=args.seed,
        tenant="player",
        phases=[Phase(duration=course.end + 20, rate=80)])
    manager = WorkloadManager(bench, config, clock=clock)
    executor = SimulatedExecutor(db, args.dbms, clock)
    executor.add_workload(manager)
    control = ControlApi()
    control.register(manager)
    session = GameSession(
        control, "player", course, pilot=PerfectPilot(lookahead=2),
        character=Character(requested_rate=80, jump_boost=40,
                            max_rate=100_000))
    session.run_on(executor)
    for when in range(10, int(course.end), 30):
        executor.at(float(when), lambda w=when: print(
            render_frame(session, float(w)) + "\n"))
    executor.run(until=course.end + 10)
    print(json.dumps(session.summary(), indent=2, default=str))
    return 0


def cmd_serve(args) -> int:
    import threading

    from .api import ApiServer, ControlApi

    control = ControlApi()
    with ApiServer(control, host=args.host, port=args.port) as server:
        print(f"v1 control plane listening on {server.url} "
              f"(POST {server.url}/v1/workloads to create a workload; "
              "Ctrl-C to stop)", file=sys.stderr)
        try:
            threading.Event().wait()
        except KeyboardInterrupt:
            print("shutting down", file=sys.stderr)
    return 0


def cmd_lint(args) -> int:
    from .analysis import Linter
    from .analysis.reporters import render_explain, render_json, render_text

    if args.explain:
        print(render_explain())
        return 0
    split = (lambda raw: [p for p in raw.split(",") if p] if raw else None)
    try:
        linter = Linter(select=split(args.select), ignore=split(args.ignore))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for path in missing:
            print(f"error: no such file or directory: {path}",
                  file=sys.stderr)
        return 2
    diagnostics = linter.lint_paths(paths)
    if args.format == "json":
        print(render_json(diagnostics))
    else:
        output = render_text(diagnostics, statistics=args.statistics)
        if output:
            print(output)
    return 1 if diagnostics else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"list": cmd_list, "run": cmd_run, "dump": cmd_dump,
                "game": cmd_game, "serve": cmd_serve, "lint": cmd_lint}
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        import os
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
