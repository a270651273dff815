"""Plan compiler and cache units: keying, invalidation, access paths.

The answers compiled plans produce are checked against sqlite3 in
``test_plan_equivalence.py`` and ``test_sqlite_oracle.py``; this file
pins the planner's own contracts — prepare-time error reporting, cache
counter accounting, DDL invalidation, and access-path selection.
"""

import pytest

from repro.engine import Database, PlanCache, connect
from repro.engine.plan import (CompiledSelect, IndexProbe, IndexWalk,
                               compile_statement)
from repro.engine.sqlparser import parse
from repro.errors import ProgrammingError

from ..conftest import execute


@pytest.fixture
def loaded(db):
    conn = connect(db)
    execute(conn, "CREATE TABLE t (a INT PRIMARY KEY, b INT, c VARCHAR(8))")
    execute(conn, "CREATE INDEX idx_b ON t (b)")
    execute(conn, "INSERT INTO t VALUES (1, 10, 'x'), (2, 20, 'y'), "
                  "(3, 20, 'z')")
    conn.commit()
    yield db, conn
    conn.close()


def plan_of(db, sql) -> CompiledSelect:
    plan = db.prepare_exec(sql).plan
    assert plan is not None, f"expected a compiled plan for {sql!r}"
    return plan


# -- prepare-time errors ----------------------------------------------------


def test_unknown_column_raises_at_prepare_time(loaded):
    db, _ = loaded
    with pytest.raises(ProgrammingError, match="unknown column 'nope'"):
        db.prepare_exec("SELECT nope FROM t")


def test_unknown_table_binding_raises_at_prepare_time(loaded):
    db, _ = loaded
    with pytest.raises(ProgrammingError,
                       match="unknown table binding 'u'"):
        db.prepare_exec("SELECT u.a FROM t")


def test_ambiguous_column_raises_at_prepare_time(loaded):
    db, _ = loaded
    with pytest.raises(ProgrammingError, match="ambiguous column 'b'"):
        db.prepare_exec("SELECT b FROM t t1 JOIN t t2 ON t1.a = t2.a")


def test_prepare_time_errors_are_not_cached(loaded):
    db, _ = loaded
    before = db.plan_cache.snapshot()["size"]
    for _ in range(2):
        with pytest.raises(ProgrammingError):
            db.prepare_exec("SELECT nope FROM t")
    assert db.plan_cache.snapshot()["size"] == before


def test_execution_reports_prepare_time_errors(loaded):
    db, conn = loaded
    # The same statement through the cursor: error surfaces to the
    # caller before any transaction work happens.
    with pytest.raises(ProgrammingError, match="unknown column"):
        execute(conn, "SELECT nope FROM t")


# -- plan cache keying and counters -----------------------------------------


def test_plan_cache_hits_on_repeat_and_misses_on_first(loaded):
    db, _ = loaded
    db.plan_cache = PlanCache(8)  # fresh counters
    db.prepare_exec("SELECT a FROM t WHERE b = ?")
    db.prepare_exec("SELECT a FROM t WHERE b = ?")
    stats = db.plan_cache.snapshot()
    assert stats["misses"] == 1
    assert stats["hits"] == 1
    assert stats["size"] == 1


def test_ddl_bumps_catalog_version_and_invalidates_plans(loaded):
    db, conn = loaded
    version = db.catalog.version
    db.prepare_exec("SELECT a FROM t")
    assert db.plan_cache.snapshot()["size"] >= 1
    execute(conn, "CREATE TABLE other (k INT PRIMARY KEY)")
    assert db.catalog.version == version + 1
    stats = db.plan_cache.snapshot()
    assert stats["size"] == 0
    assert stats["invalidations"] >= 1


def test_plans_recompile_under_new_catalog_version(loaded):
    db, conn = loaded
    first = db.prepare_exec("SELECT a FROM t").plan
    execute(conn, "CREATE INDEX idx_c ON t (c)")
    second = db.prepare_exec("SELECT a FROM t").plan
    assert second is not first  # old version's plan cannot be served
    # And the recompiled plan still executes.
    assert sorted(execute(conn, "SELECT a FROM t").fetchall()) == \
        [(1,), (2,), (3,)]
    conn.commit()


def test_noop_ddl_does_not_invalidate(loaded):
    db, conn = loaded
    db.prepare_exec("SELECT a FROM t")
    before = db.plan_cache.snapshot()
    execute(conn, "CREATE TABLE IF NOT EXISTS t (a INT PRIMARY KEY)")
    after = db.plan_cache.snapshot()
    assert after["size"] == before["size"]
    assert after["invalidations"] == before["invalidations"]


def test_plan_cache_eviction_is_counted():
    db = Database()
    db.plan_cache = PlanCache(2)
    conn = connect(db)
    execute(conn, "CREATE TABLE t (a INT PRIMARY KEY)")
    for i in range(4):
        db.prepare_exec(f"SELECT a FROM t WHERE a = {i}")
    stats = db.plan_cache.snapshot()
    assert stats["capacity"] == 2
    assert stats["size"] == 2
    assert stats["evictions"] == 2
    conn.close()


def test_compiled_execution_is_counted(loaded):
    db, conn = loaded
    before = db.counters.plan_executions
    execute(conn, "SELECT a FROM t WHERE a = 1")
    conn.commit()
    assert db.counters.plan_executions == before + 1


def test_lru_cache_evicts_least_recently_used():
    cache = PlanCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refresh "a"
    cache.put("c", 3)           # evicts "b"
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    stats = cache.snapshot()
    assert stats["hits"] == 3
    assert stats["misses"] == 0  # the caller counts misses
    assert stats["evictions"] == 1


def test_cache_stats_exposed_via_database_stats(loaded):
    db, _ = loaded
    caches = db.stats()["caches"]
    assert set(caches) == {"plan_cache", "catalog_version"}
    for key in ("size", "capacity", "hits", "misses", "evictions",
                "invalidations"):
        assert key in caches["plan_cache"]


# -- access-path selection ---------------------------------------------------


def test_pk_equality_uses_the_pk_index(loaded):
    db, _ = loaded
    plan = plan_of(db, "SELECT a FROM t WHERE a = ?")
    source = plan.sources[0]
    assert isinstance(source.index_probe, IndexProbe)
    assert source.index_probe.index_name == "__pk__"


def test_secondary_index_equality_is_probed(loaded):
    db, _ = loaded
    plan = plan_of(db, "SELECT a FROM t WHERE b = ?")
    source = plan.sources[0]
    assert isinstance(source.index_probe, IndexProbe)
    assert source.index_probe.index_name == "idx_b"


def test_pk_range_predicate_compiles_a_range_probe(loaded):
    db, _ = loaded
    plan = plan_of(db, "SELECT a FROM t WHERE a BETWEEN ? AND ?")
    source = plan.sources[0]
    assert source.index_probe is None
    assert isinstance(source.walk, IndexWalk)
    assert source.walk.index_name == "__pk__"
    assert source.walk.prefix_fns == ()
    assert len(source.walk.lower) == len(source.walk.upper) == 1
    assert not source.walk.pushdown


@pytest.fixture
def orders(db):
    conn = connect(db)
    execute(conn, "CREATE TABLE o (w INT, d INT, id INT, c INT, "
                  "PRIMARY KEY (w, d, id))")
    execute(conn, "CREATE INDEX idx_o_district ON o (w, d)")
    execute(conn, "CREATE INDEX idx_o_customer ON o (w, d, c)")
    conn.commit()
    yield db
    conn.close()


def test_prefix_and_range_walk_beats_a_shorter_probe(orders):
    plan = plan_of(orders, "SELECT c FROM o WHERE w = ? AND d = ? "
                           "AND id >= ? AND id < ?")
    source = plan.sources[0]
    assert source.index_probe is None
    assert source.walk.index_name == "__pk__"
    assert len(source.walk.prefix_fns) == 2
    assert not source.walk.pushdown


def test_order_by_limit_is_pushed_into_the_walk(orders):
    plan = plan_of(orders, "SELECT id FROM o WHERE w = ? AND d = ? "
                           "ORDER BY id DESC LIMIT 1 FOR UPDATE")
    walk = plan.sources[0].walk
    assert walk.index_name == "__pk__"
    assert walk.pushdown and walk.descending


def test_longer_probe_beats_an_ordered_walk(orders):
    plan = plan_of(orders, "SELECT id FROM o WHERE w = ? AND d = ? "
                           "AND c = ? ORDER BY id DESC LIMIT 1")
    source = plan.sources[0]
    assert source.index_probe.index_name == "idx_o_customer"
    assert source.walk is None


def test_unique_probe_beats_any_walk(orders):
    plan = plan_of(orders, "SELECT c FROM o WHERE w = ? AND d = ? "
                           "AND id = ? ORDER BY id LIMIT 1")
    assert plan.sources[0].index_probe.index_name == "__pk__"


@pytest.mark.parametrize("sql", [
    # No LIMIT: nothing to stop early for.
    "SELECT id FROM o WHERE w = 1 AND d = 1 ORDER BY id",
    # Keys out of index order, or mixed directions.
    "SELECT id FROM o WHERE w = 1 ORDER BY id LIMIT 1",
    "SELECT id FROM o WHERE w = 1 ORDER BY d, id DESC LIMIT 1",
    # Grouped, DISTINCT, or joined output is not one row per index key.
    "SELECT count(*) FROM o WHERE w = 1 AND d = 1 ORDER BY 1 LIMIT 1",
    "SELECT DISTINCT id FROM o WHERE w = 1 AND d = 1 ORDER BY id LIMIT 1",
    "SELECT o.id FROM o JOIN o p ON p.w = o.w AND p.d = o.d "
    "AND p.id = o.id WHERE o.w = 1 AND o.d = 1 ORDER BY o.id LIMIT 1",
])
def test_order_by_limit_pushdown_needs_a_single_ordered_source(orders, sql):
    walk = plan_of(orders, sql).sources[0].walk
    assert walk is None or not walk.pushdown


def test_unindexed_predicate_falls_back_to_full_scan(loaded):
    db, _ = loaded
    plan = plan_of(db, "SELECT a FROM t WHERE c = ?")
    source = plan.sources[0]
    assert source.index_probe is None
    assert source.walk is None
    assert source.filter is not None


def test_scan_stats_reflect_chosen_access_path(loaded):
    db, conn = loaded
    execute(conn, "SELECT a FROM t WHERE a = ?", (1,))
    assert conn.transaction.stats.index_lookups >= 1
    assert conn.transaction.stats.full_scans == 0
    conn.commit()
    execute(conn, "SELECT a FROM t WHERE c = ?", ("x",))
    assert conn.transaction.stats.full_scans >= 1
    conn.commit()


def test_compile_statement_resolves_join_probe(loaded):
    db, _ = loaded
    stmt = parse(
        "SELECT t1.a FROM t t1 JOIN t t2 ON t2.b = t1.b WHERE t1.a = ?")
    plan = compile_statement(stmt, db.catalog)
    inner = plan.sources[1]
    # The join equality probes idx_b with the outer row's value.
    assert isinstance(inner.index_probe, IndexProbe)
    assert inner.index_probe.index_name == "idx_b"


@pytest.mark.parametrize("sql,direct", [
    ("SELECT c, a FROM t WHERE b = ?", True),
    ("SELECT a + 1 FROM t FOR UPDATE", True),
    ("SELECT a FROM t ORDER BY a", False),
    ("SELECT DISTINCT b FROM t", False),
    ("SELECT a FROM t LIMIT 2", False),
    ("SELECT a FROM t LIMIT 2 OFFSET 1", False),
    ("SELECT count(*) FROM t", False),
    ("SELECT b FROM t GROUP BY b", False),
    ("SELECT t1.a FROM t t1 JOIN t t2 ON t1.a = t2.b", False),
    ("SELECT 1", False),
])
def test_direct_projection_only_without_post_processing(loaded, sql,
                                                        direct):
    """A one-table SELECT with nothing to group, sort, dedupe or cut
    projects straight from its scan."""
    db, conn = loaded
    assert plan_of(db, sql).direct is direct
    execute(conn, sql, (20,) if "?" in sql else ())
    conn.rollback()


# -- executemany ---------------------------------------------------------------


def test_executemany_plans_once(loaded):
    db, conn = loaded
    db.plan_cache = PlanCache(8)
    cur = conn.cursor()
    cur.executemany("INSERT INTO t VALUES (?, ?, ?)",
                    [(10, 1, "a"), (11, 2, "b"), (12, 3, "c")])
    conn.commit()
    assert cur.rowcount == 3
    stats = db.plan_cache.snapshot()
    assert stats["misses"] == 1  # planned exactly once
    assert execute(conn, "SELECT count(*) FROM t").fetchone() == (6,)
    conn.commit()


def test_executemany_rejects_string_params(loaded):
    _, conn = loaded
    cur = conn.cursor()
    with pytest.raises(ProgrammingError, match="sequence"):
        cur.executemany("INSERT INTO t VALUES (?, ?, ?)", ["abc"])
