"""Every TPC-C secondary index serves some statement.

An index no plan probes or walks still costs every insert and update of
its table a key and a bucket entry, and every full collection a walk
over its buckets.  After each procedure has run, every secondary index
must be the access path of at least one cached plan.
"""

import random

from repro.benchmarks.tpcc import TpccBenchmark
from repro.core.procedure import UserAbort
from repro.engine import Database, connect


def _access_paths(plan) -> set[tuple[str, str]]:
    """``(table, index)`` of every probe and walk in ``plan``."""
    sources = getattr(plan, "sources", None)
    if sources is None:
        source = getattr(plan, "source", None)
        sources = () if source is None else (source,)
    return {(source.table, path.index_name)
            for source in sources
            for path in (source.index_probe, source.walk)
            if path is not None}


def test_every_secondary_index_is_some_plans_access_path():
    bench = TpccBenchmark(Database(), scale_factor=1, seed=3, districts=2,
                          customers_per_district=40, items=100,
                          initial_orders=25)
    bench.load()
    db = bench.database
    conn = connect(db)
    rng = random.Random(11)
    for procedure in bench.procedures:
        proc = bench.make_procedure(procedure.__name__)
        for _ in range(40):
            try:
                proc.run(conn, rng)
            except UserAbort:  # NewOrder's spec-mandated 1% rollback
                conn.rollback()
    conn.close()

    used: set[tuple[str, str]] = set()
    for prepared in db.plan_cache._entries.values():
        used |= _access_paths(prepared.plan)
    secondary = {(name, index)
                 for name in db.catalog.table_names()
                 for index in db.catalog.get(name).indexes}
    assert secondary, "TPC-C declares secondary indexes"
    assert secondary - used == set()
