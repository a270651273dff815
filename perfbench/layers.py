"""Per-layer metrics of the traced run: which functions are wrapped, and
how their spans and counter deltas become the ``per_layer`` numbers.

Every name in :data:`PER_LAYER` is emitted by every workload's traced run.
A metric a workload cannot exercise (no request queue in the closed loop,
no simulator on the threaded executor) reads 0 with a sample count of 0.
"""

from __future__ import annotations

from typing import Iterable, Optional

from stats import mean, pct
from tracing import (SPAN_END, SPAN_ID, SPAN_NAME, SPAN_PARENT, SPAN_START,
                     SPAN_VALUE, Tracer, by_name, durations, self_times)

TPCC_PROCEDURES = ("NewOrder", "Payment", "OrderStatus", "Delivery",
                   "StockLevel")
YCSB_PROCEDURES = ("ReadRecord", "UpdateRecord", "ScanRecord",
                   "InsertRecord", "DeleteRecord", "ReadModifyWriteRecord")

PER_LAYER: list[tuple[str, str]] = [
    ("manager.tick_ms", "ms"),
    ("manager.tick_late_ms", "ms"),
    ("manager.arrivals", "count"),
    ("queue.offer_us_per_req", "us"),
    ("queue.take_us", "us"),
    ("queue.batch_size", "count"),
    ("queue.empty_take_ratio", "ratio"),
    ("queue.delay_p50_ms", "ms"),
    ("queue.delay_p99_ms", "ms"),
    ("queue.postponed", "count"),
    ("executor.driver_share", "ratio"),
    ("sim.driver_share", "ratio"),
    ("resilience.wrapper_us", "us"),
    ("resilience.attempts_per_txn", "count"),
    ("resilience.retries", "count"),
    ("engine.stmt_us_p50", "us"),
    ("engine.stmt_us_p99", "us"),
    ("engine.stmts_per_txn", "count"),
    ("engine.commit_us", "us"),
    ("engine.rows_read_per_txn", "count"),
    ("engine.plan_cache_hit_ratio", "ratio"),
    *[(f"procedure.{name}.ms", "ms") for name in TPCC_PROCEDURES],
    *[(f"procedure.{name}.{quarter}.ms", "ms")
      for name in TPCC_PROCEDURES for quarter in ("q1", "q4")],
    *[(f"procedure.{name}.ms", "ms") for name in YCSB_PROCEDURES],
    ("locks.acquisitions_per_txn", "count"),
    ("locks.acquire_us", "us"),
    ("locks.wait_ms_per_txn", "ms"),
    ("locks.deadlocks", "count"),
    ("locks.timeouts", "count"),
    ("results.record_us_per_sample", "us"),
    ("results.samples_per_flush", "count"),
    ("metrics.snapshot_ms", "ms"),
    ("api.http_ms", "ms"),
    ("tracing.overhead_ratio", "ratio"),
    ("outcome.failed_ratio", "ratio"),
]

_ENGINE_SPANS = frozenset({"engine.stmt", "engine.execute", "engine.commit",
                           "engine.rollback"})


def install(tracer: Tracer, benchmark) -> None:
    """Wrap each layer's public entry points where callers look them up."""
    from repro.api import control
    from repro.core import executors, manager, requestqueue, results
    from repro.engine import database, locks

    tracer.patch(manager.WorkloadManager, "tick", "manager.tick",
                 before=lambda args: args[0].clock.now() - args[1],
                 after=lambda _args, result: len(result) if result else 0)
    tracer.patch(manager.WorkloadManager, "metrics", "metrics.snapshot")
    tracer.patch(requestqueue.RequestQueue, "offer_batch", "queue.offer",
                 before=lambda args: len(args[1]))
    tracer.patch(requestqueue.RequestQueue, "take_batch", "queue.take",
                 after=lambda _args, result: len(result) if result else 0)
    # The executors bound the attempt loop by name at import time.
    tracer.patch(executors, "run_with_resilience", "resilience.run")
    for procedure in benchmark.procedures:
        tracer.patch(procedure, "run", f"procedure.{procedure.txn_name()}",
                     request_boundary=True)
    tracer.patch(database.Database, "execute", "engine.execute")
    tracer.patch(database.Database, "execute_prepared", "engine.stmt")
    tracer.patch(database.Database, "commit", "engine.commit")
    tracer.patch(database.Database, "rollback", "engine.rollback")
    tracer.patch(locks.LockManager, "acquire", "locks.acquire")
    tracer.patch(results.Results, "record", "results.record",
                 before=lambda _args: 1)
    tracer.patch(results.Results, "record_batch", "results.record_batch",
                 before=lambda args: len(args[1]))
    tracer.patch(control.ControlApi, "metrics", "api.control_metrics")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def compute(spans: list[tuple], thread_names: dict[int, str], *,
            txns: int, worker_time: float, simulated: bool,
            deltas: dict[str, dict], queue_delays: list[float],
            postponed: int, quarters: Optional[list[tuple[float, float]]],
            ) -> dict[str, tuple[float, int]]:
    """Per-layer metric values with their sample counts."""
    named = by_name(spans)
    out: dict[str, tuple[float, int]] = {}

    ticks = named.get("manager.tick", [])
    tick_values = [span[SPAN_VALUE] for span in ticks]
    out["manager.tick_ms"] = (pct(durations(ticks), 50) * 1e3, len(ticks))
    out["manager.tick_late_ms"] = (
        pct([late for late, _n in tick_values], 99) * 1e3, len(ticks))
    arrivals = sum(n for _late, n in tick_values)
    out["manager.arrivals"] = (arrivals, len(ticks))

    offers = named.get("queue.offer", [])
    offered = sum(span[SPAN_VALUE] for span in offers)
    out["queue.offer_us_per_req"] = (
        _ratio(sum(durations(offers)), offered) * 1e6, offered)
    takes = named.get("queue.take", [])
    full = [span for span in takes if span[SPAN_VALUE]]
    out["queue.take_us"] = (pct(durations(full), 50) * 1e6, len(full))
    out["queue.batch_size"] = (mean([span[SPAN_VALUE] for span in full]),
                               len(full))
    out["queue.empty_take_ratio"] = (
        _ratio(len(takes) - len(full), len(takes)), len(takes))
    out["queue.delay_p50_ms"] = (pct(queue_delays, 50) * 1e3,
                                 len(queue_delays))
    out["queue.delay_p99_ms"] = (pct(queue_delays, 99) * 1e3,
                                 len(queue_delays))
    out["queue.postponed"] = (postponed, 1)

    procedure_spans = [span for span in spans
                       if span[SPAN_NAME].startswith("procedure.")]
    # Transactions run on the executor's worker threads, or on the main
    # thread for the simulator; ``worker_time`` is their summed wall time.
    workers = {tid for tid, name in thread_names.items()
               if (name == "MainThread" if simulated
                   else "-worker-" in name)}
    procedure_time = sum(durations(span for span in procedure_spans
                                   if span[SPAN_ID][0] in workers))
    take_wait = sum(durations(span for span in takes
                              if span[SPAN_ID][0] in workers
                              and span[SPAN_PARENT] is None))
    busy = worker_time - take_wait
    out["executor.driver_share"] = (
        _ratio(busy - procedure_time, busy), len(procedure_spans))
    if simulated:
        names = {span[SPAN_ID]: span[SPAN_NAME] for span in spans}
        engine_time = sum(
            span[SPAN_END] - span[SPAN_START] for span in spans
            if span[SPAN_NAME] in _ENGINE_SPANS
            and names.get(span[SPAN_PARENT]) not in _ENGINE_SPANS)
        out["sim.driver_share"] = (
            _ratio(worker_time - engine_time, worker_time), txns)
    else:
        out["sim.driver_share"] = (0.0, 0)

    wrapper = self_times(spans, "resilience.run")
    out["resilience.wrapper_us"] = (pct(wrapper, 50) * 1e6, len(wrapper))
    resilience = deltas["resilience"]
    out["resilience.attempts_per_txn"] = (
        _ratio(resilience["attempts"], txns), txns)
    out["resilience.retries"] = (resilience["retried"], txns)

    statements = durations(named.get("engine.stmt", []))
    out["engine.stmt_us_p50"] = (pct(statements, 50) * 1e6, len(statements))
    out["engine.stmt_us_p99"] = (pct(statements, 99) * 1e6, len(statements))
    engine = deltas["engine"]
    out["engine.stmts_per_txn"] = (_ratio(engine["statements"], txns), txns)
    commits = durations(named.get("engine.commit", []))
    out["engine.commit_us"] = (pct(commits, 50) * 1e6, len(commits))
    out["engine.rows_read_per_txn"] = (_ratio(engine["rows_read"], txns),
                                       txns)
    plans = deltas["plan_cache"]
    lookups = plans["hits"] + plans["misses"]
    out["engine.plan_cache_hit_ratio"] = (_ratio(plans["hits"], lookups),
                                          lookups)

    for name in (*TPCC_PROCEDURES, *YCSB_PROCEDURES):
        runs = named.get(f"procedure.{name}", [])
        out[f"procedure.{name}.ms"] = (pct(durations(runs), 50) * 1e3,
                                       len(runs))
        if name not in TPCC_PROCEDURES:
            continue
        for label, window in (("q1", quarters and quarters[0]),
                              ("q4", quarters and quarters[-1])):
            inside = [span for span in runs if window
                      and window[0] <= span[SPAN_START] < window[1]]
            out[f"procedure.{name}.{label}.ms"] = (
                pct(durations(inside), 50) * 1e3, len(inside))

    locks = deltas["locks"]
    out["locks.acquisitions_per_txn"] = (
        _ratio(locks["acquisitions"], txns), txns)
    acquires = durations(named.get("locks.acquire", []))
    out["locks.acquire_us"] = (pct(acquires, 50) * 1e6, len(acquires))
    out["locks.wait_ms_per_txn"] = (
        _ratio(locks["wait_time"], txns) * 1e3, txns)
    out["locks.deadlocks"] = (locks["deadlocks"], txns)
    out["locks.timeouts"] = (locks["timeouts"], txns)

    records = named.get("results.record", []) + \
        named.get("results.record_batch", [])
    recorded = sum(span[SPAN_VALUE] for span in records)
    out["results.record_us_per_sample"] = (
        _ratio(sum(durations(records)), recorded) * 1e6, recorded)
    out["results.samples_per_flush"] = (_ratio(recorded, len(records)),
                                        len(records))
    snapshots = durations(named.get("metrics.snapshot", []))
    out["metrics.snapshot_ms"] = (pct(snapshots, 50) * 1e3, len(snapshots))
    http = _http_times(named.get("api.poll", []),
                       named.get("api.control_metrics", []))
    out["api.http_ms"] = (pct(http, 50) * 1e3, len(http))
    return out


def _http_times(polls: Iterable[tuple], handled: list[tuple]) -> list[float]:
    """Each poll's round trip minus the ``ControlApi.metrics`` call that
    served it (on the server's thread, so matched by time, not parent)."""
    handled = sorted(handled, key=lambda span: span[SPAN_START])
    times = []
    for poll in polls:
        inner = sum(span[SPAN_END] - span[SPAN_START] for span in handled
                    if poll[SPAN_START] <= span[SPAN_START] <= poll[SPAN_END])
        times.append(poll[SPAN_END] - poll[SPAN_START] - inner)
    return times
