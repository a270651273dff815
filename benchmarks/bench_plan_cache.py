"""What the plan cache saves: cold vs warm cache per transaction.

``Database.prepare_exec`` compiles every SELECT/INSERT/UPDATE/DELETE into
a :class:`~repro.engine.plan.CompiledPlan` — column references resolved
to tuple indexes, predicates and projections fused into closures, the
access path chosen once — and caches it keyed by ``(sql,
catalog_version)``.  A warm cache pays that compile cost once per
statement text; a cold one pays it on every execution.

This bench builds *twin* databases — identical schema, identical seeded
load — and drives each TPC-C and Twitter procedure through both with
identical RNG streams, so every pair of runs issues byte-identical
statements against byte-identical data.  The cold twin empties its plan
cache (``plan_cache.invalidate_all()``) before every transaction; the
warm twin keeps it.  The bench reports per-transaction time for both
and asserts that both twins returned exactly the same results, and that
the warm cache is at least :data:`SPEEDUP_FLOOR` times cheaper in the
median over the procedures.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

from repro.benchmarks import create_benchmark
from repro.core.procedure import UserAbort
from repro.engine import Database
from repro.engine.dbapi import connect
from repro.rand import make_rng

from conftest import SMALL_SIZES, once, report

SEED = 1337
WARMUP = 3
ROUNDS = 3

#: (benchmark, sizes, scale_factor, [(procedure, timed iterations)])
WORKLOADS = [
    ("tpcc", SMALL_SIZES["tpcc"], 0.3,
     [("NewOrder", 30), ("Payment", 40), ("OrderStatus", 40),
      ("Delivery", 15), ("StockLevel", 25)]),
    ("twitter", {}, 1.0,
     [("GetTweet", 120), ("GetTweetsFromFollowing", 60),
      ("GetFollowers", 60), ("GetUserTweets", 120), ("InsertTweet", 120)]),
]

#: Floor on the median over procedures of cold/warm per-transaction
#: time.  Seven runs on a 2-vCPU x86-64 Linux VM with CPython 3.11
#: measured medians of 1.38x-1.68x (per procedure 0.98x for the
#: execution-bound StockLevel up to 3.6x for GetTweet); the floor sits
#: below the lowest median to absorb host noise.
SPEEDUP_FLOOR = 1.15


def build_twin(name: str, sizes: dict, scale: float):
    """Identically-seeded (cold, warm) database/bench pairs."""
    pair = {}
    for key in ("cold", "warm"):
        db = Database()
        bench = create_benchmark(name, db, scale_factor=scale, seed=SEED,
                                 **sizes)
        bench.load()
        pair[key] = (db, bench)
    return pair


def drive(db, bench, txn_name: str, iters: int, round_no: int,
          cold: bool):
    """Run one procedure ``iters`` times; returns (elapsed, results).

    The RNG is seeded from (SEED, benchmark, procedure, round) only, so
    the cold and warm twins see the same argument stream and apply the
    same mutations — the databases stay in lockstep.
    """
    proc = bench.make_procedure(txn_name)
    conn = connect(db)
    invalidate = db.plan_cache.invalidate_all if cold else None
    warm_rng = make_rng(SEED, bench.name, txn_name, "warm", round_no)
    for _ in range(WARMUP):
        _run_once(proc, conn, warm_rng, invalidate)
    rng = make_rng(SEED, bench.name, txn_name, "timed", round_no)
    outputs = []
    started = perf_counter()
    for _ in range(iters):
        outputs.append(_run_once(proc, conn, rng, invalidate))
    elapsed = perf_counter() - started
    conn.close()
    return elapsed, outputs


def _run_once(proc, conn, rng, invalidate):
    if invalidate is not None:
        invalidate()
    try:
        return proc.run(conn, rng)
    except UserAbort:
        conn.rollback()
        return "<user-abort>"


def run_bench():
    rows = []
    mismatches = []
    cache_notes = []
    for name, sizes, scale, procedures in WORKLOADS:
        pair = build_twin(name, sizes, scale)
        for txn_name, iters in procedures:
            cold_s, warm_s = [], []
            for round_no in range(ROUNDS):
                cold_t, cold_out = drive(*pair["cold"], txn_name, iters,
                                         round_no, cold=True)
                warm_t, warm_out = drive(*pair["warm"], txn_name, iters,
                                         round_no, cold=False)
                if cold_out != warm_out:
                    mismatches.append((name, txn_name, round_no))
                cold_s.append(cold_t)
                warm_s.append(warm_t)
            ratios = [c / w for c, w in zip(cold_s, warm_s)]
            rows.append((
                f"{name}.{txn_name}",
                iters,
                round(median(cold_s) / iters * 1000, 3),
                round(median(warm_s) / iters * 1000, 3),
                round(median(ratios), 2),
            ))
        for key in ("cold", "warm"):
            stats = pair[key][0].cache_stats()["plan_cache"]
            cache_notes.append(
                f"{name} {key}: plan cache {stats['hits']} hits / "
                f"{stats['misses']} misses")
    return rows, mismatches, cache_notes


def test_warm_plan_cache_beats_cold(benchmark):
    rows, mismatches, cache_notes = once(benchmark, run_bench)
    report(
        "Per-transaction cost, cold vs warm plan cache",
        ["procedure", "iters", "cold ms/txn", "warm ms/txn",
         "cold/warm"],
        rows,
        notes="; ".join(cache_notes))
    # Equivalence: identical RNG streams against identical data must
    # produce identical procedure outputs whether or not plans are cached.
    assert not mismatches, f"result divergence in {mismatches}"
    ratio = median(row[4] for row in rows)
    assert ratio >= SPEEDUP_FLOOR, (
        f"median cold/warm {ratio:.2f}x under {SPEEDUP_FLOOR}x: {rows}")
