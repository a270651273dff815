"""Range predicates walk the ordered index instead of scanning.

``k >= lo AND k < hi`` (or ``BETWEEN``, or one open end) on an index
column after an equality prefix is answered by walking the index's
sorted keys (``IndexWalk`` in the plan, ``Executor._plan_candidates``).
These tests pin the walk's answers against full-scan semantics and
verify it actually engages (via the transaction's index/scan counters).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Database, connect

from ..conftest import execute


@pytest.fixture
def table(conn):
    execute(conn, "CREATE TABLE t (k INT PRIMARY KEY, v INT NOT NULL)")
    execute(conn, "INSERT INTO t VALUES " + ", ".join(
        f"({i}, {i * 10})" for i in range(50)))
    conn.commit()
    return conn


def scans_used(conn):
    stats = conn.last_txn_stats
    return stats.full_scans, stats.index_lookups


def test_closed_range_uses_index(table):
    cur = execute(table, "SELECT k FROM t WHERE k >= 10 AND k < 15 "
                         "ORDER BY k")
    assert [r[0] for r in cur.fetchall()] == [10, 11, 12, 13, 14]
    table.commit()
    full, index = scans_used(table)
    assert full == 0
    assert index == 1


def test_between_uses_index(table):
    cur = execute(table, "SELECT COUNT(*) FROM t WHERE k BETWEEN 5 AND 9")
    assert cur.fetchone() == (5,)
    table.commit()
    assert scans_used(table)[0] == 0


def test_flipped_operands(table):
    cur = execute(table, "SELECT COUNT(*) FROM t "
                         "WHERE 10 <= k AND 15 > k")
    assert cur.fetchone() == (5,)
    table.commit()
    assert scans_used(table)[0] == 0


def test_strict_bounds(table):
    cur = execute(table, "SELECT k FROM t WHERE k > 47 AND k <= 49 "
                         "ORDER BY k")
    assert [r[0] for r in cur.fetchall()] == [48, 49]
    table.commit()
    assert scans_used(table)[0] == 0


def test_open_ended_range_walks_the_index(table):
    cur = execute(table, "SELECT COUNT(*) FROM t WHERE k >= 45")
    assert cur.fetchone() == (5,)
    table.commit()
    assert scans_used(table)[0] == 0  # no upper bound: walk to the end


def test_empty_range(table):
    cur = execute(table, "SELECT COUNT(*) FROM t WHERE k >= 30 AND k < 30")
    assert cur.fetchone() == (0,)
    cur = execute(table, "SELECT COUNT(*) FROM t WHERE k >= 40 AND k < 35")
    assert cur.fetchone() == (0,)
    table.commit()


def test_range_with_extra_predicates(table):
    cur = execute(table, "SELECT k FROM t WHERE k >= 10 AND k < 20 "
                         "AND v > 150 ORDER BY k")
    assert [r[0] for r in cur.fetchall()] == [16, 17, 18, 19]
    table.commit()
    assert scans_used(table)[0] == 0


def test_range_with_params(table):
    cur = execute(table, "SELECT COUNT(*) FROM t WHERE k >= ? AND k < ?",
                  (20, 26))
    assert cur.fetchone() == (6,)
    table.commit()
    assert scans_used(table)[0] == 0


def test_huge_range_walks_the_index(table):
    # The walk visits stored keys only, however wide the bounds are.
    cur = execute(table, "SELECT COUNT(*) FROM t "
                         "WHERE k >= 0 AND k < 1000000")
    assert cur.fetchone() == (50,)
    table.commit()
    assert scans_used(table)[0] == 0


def test_range_update_and_delete(table):
    cur = execute(table, "UPDATE t SET v = 0 WHERE k >= 5 AND k < 8")
    assert cur.rowcount == 3
    cur = execute(table, "DELETE FROM t WHERE k BETWEEN 40 AND 44")
    assert cur.rowcount == 5
    table.commit()
    cur = execute(table, "SELECT COUNT(*) FROM t")
    assert cur.fetchone() == (45,)


def test_range_sees_own_uncommitted_inserts(table):
    execute(table, "INSERT INTO t VALUES (100, 1000)")
    cur = execute(table, "SELECT COUNT(*) FROM t "
                         "WHERE k >= 99 AND k < 102")
    assert cur.fetchone() == (1,)
    table.rollback()


def test_composite_pk_range_walks_the_index(conn):
    execute(conn, "CREATE TABLE c (a INT, b INT, PRIMARY KEY (a, b))")
    execute(conn, "INSERT INTO c VALUES (1, 1), (1, 2), (2, 1)")
    conn.commit()
    cur = execute(conn, "SELECT COUNT(*) FROM c WHERE a >= 1 AND a < 3")
    assert cur.fetchone() == (3,)
    conn.commit()
    assert conn.last_txn_stats.full_scans == 0


def test_float_bounds_on_an_int_column_walk(table):
    cur = execute(table, "SELECT k FROM t WHERE k > 2.5 AND k <= 5.5 "
                         "ORDER BY k")
    assert [r[0] for r in cur.fetchall()] == [3, 4, 5]
    table.commit()
    assert scans_used(table) == (0, 1)


def test_string_bound_on_an_int_column_scans(table):
    # '45' against INT compares numerically in SQL but not in Python
    # order, so the walk declines and the full scan answers.
    cur = execute(table, "SELECT k FROM t WHERE k >= '45' ORDER BY k")
    assert [r[0] for r in cur.fetchall()] == [45, 46, 47, 48, 49]
    table.commit()
    assert scans_used(table)[0] == 1


@pytest.fixture
def composite(conn):
    execute(conn, "CREATE TABLE c (a INT, b INT, g INT, n INT, "
                  "PRIMARY KEY (a, b))")
    execute(conn, "CREATE INDEX idx_c_gn ON c (g, n)")
    execute(conn, "INSERT INTO c VALUES " + ", ".join(
        f"({a}, {b}, {a % 2}, {b})" for a in range(4) for b in range(10)))
    conn.commit()
    return conn


def test_equality_prefix_and_range_read_only_the_range(composite):
    cur = execute(composite, "SELECT b FROM c WHERE a = 2 AND b > 3 "
                             "AND b <= 7 ORDER BY b")
    assert [r[0] for r in cur.fetchall()] == [4, 5, 6, 7]
    composite.commit()
    stats = composite.last_txn_stats
    assert stats.full_scans == 0
    assert stats.rows_examined == 4


def test_secondary_index_prefix_and_range(composite):
    cur = execute(composite, "SELECT a, b FROM c WHERE g = 1 "
                             "AND n BETWEEN 8 AND 20 ORDER BY a, b")
    assert cur.fetchall() == [(1, 8), (1, 9), (3, 8), (3, 9)]
    composite.commit()
    assert composite.last_txn_stats.full_scans == 0
    assert composite.last_txn_stats.rows_examined == 4


def test_prefix_only_walks_the_composite_pk(composite):
    cur = execute(composite, "SELECT COUNT(*) FROM c WHERE a = 3")
    assert cur.fetchone() == (10,)
    composite.commit()
    assert composite.last_txn_stats.full_scans == 0
    assert composite.last_txn_stats.rows_examined == 10


def test_order_by_limit_locks_only_the_rows_it_returns(db, composite):
    locks = db.lock_manager.stats
    before = locks.acquisitions
    cur = execute(composite, "SELECT b FROM c WHERE a = 1 "
                             "ORDER BY b DESC LIMIT 2 OFFSET 1 FOR UPDATE")
    assert [r[0] for r in cur.fetchall()] == [8, 7]
    assert locks.acquisitions - before == 3  # LIMIT + OFFSET rows
    composite.commit()
    assert composite.last_txn_stats.rows_examined == 3


def test_order_by_limit_skips_deleted_rows(composite):
    execute(composite, "DELETE FROM c WHERE a = 0 AND b < 3")
    composite.commit()
    # The deleted keys stay in the index until pruning; the walk skips
    # their tombstones.
    cur = execute(composite, "SELECT b FROM c WHERE a = 0 "
                             "ORDER BY b LIMIT 2")
    assert [r[0] for r in cur.fetchall()] == [3, 4]
    composite.commit()


def test_order_by_limit_skips_stale_index_entries(conn):
    execute(conn, "CREATE TABLE s (id INT PRIMARY KEY, n INT)")
    execute(conn, "CREATE INDEX idx_s_n ON s (n)")
    execute(conn, "INSERT INTO s VALUES (1, 1), (2, 2), (3, 3)")
    conn.commit()
    execute(conn, "UPDATE s SET n = 0 WHERE id = 3")
    conn.commit()
    # Until pruning, key (3,) still lists row 3, whose version says n=0.
    cur = execute(conn, "SELECT id FROM s ORDER BY n DESC LIMIT 1")
    assert cur.fetchall() == [(2,)]
    cur = execute(conn, "SELECT id FROM s ORDER BY n LIMIT 1")
    assert cur.fetchall() == [(3,)]
    conn.commit()


def test_order_by_limit_merges_own_inserts(composite):
    execute(composite, "INSERT INTO c VALUES (2, -1, 0, -1)")
    cur = execute(composite, "SELECT b FROM c WHERE a = 2 "
                             "ORDER BY b LIMIT 2")
    assert [r[0] for r in cur.fetchall()] == [-1, 0]
    composite.rollback()


def test_own_update_of_an_indexed_column_is_found(composite):
    execute(composite, "UPDATE c SET n = 100 WHERE a = 0 AND b = 0")
    cur = execute(composite, "SELECT a, b FROM c WHERE g = 0 AND n = 100")
    assert cur.fetchall() == [(0, 0)]
    cur = execute(composite, "SELECT a, b FROM c WHERE g = 0 AND n > 50")
    assert cur.fetchall() == [(0, 0)]
    cur = execute(composite, "SELECT b FROM c WHERE g = 0 "
                             "ORDER BY n DESC LIMIT 1")
    assert cur.fetchall() == [(0,)]
    composite.rollback()


def test_null_keys_sort_last_under_order_by_limit(conn):
    execute(conn, "CREATE TABLE s (id INT PRIMARY KEY, g INT, n INT)")
    execute(conn, "CREATE INDEX idx_s_gn ON s (g, n)")
    execute(conn, "INSERT INTO s VALUES (1, 1, NULL), (2, 1, 5), "
                  "(3, 1, 3), (4, 1, NULL), (5, 2, 1)")
    conn.commit()
    # NULL keys have no place in the index order, so the walk cannot
    # stop early; it gathers the prefix and the sort puts NULLs last.
    for direction, expected in (("", [3, 2]), (" DESC", [2, 3])):
        cur = execute(conn, "SELECT id FROM s WHERE g = 1 "
                            f"ORDER BY n{direction} LIMIT 3")
        ids = [r[0] for r in cur.fetchall()]
        assert ids[:2] == expected and ids[2] in (1, 4)
        conn.commit()
        assert conn.last_txn_stats.full_scans == 0
        assert conn.last_txn_stats.rows_examined == 4


@given(
    keys=st.sets(st.integers(0, 200), min_size=0, max_size=60),
    lo=st.integers(-10, 210),
    width=st.integers(0, 60),
)
@settings(max_examples=60, deadline=None)
def test_property_range_matches_filter(keys, lo, width):
    db = Database()
    conn = connect(db)
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY)")
    for k in keys:
        cur.execute("INSERT INTO t VALUES (?)", (k,))
    conn.commit()
    hi = lo + width
    cur.execute("SELECT k FROM t WHERE k >= ? AND k < ? ORDER BY k",
                (lo, hi))
    got = [r[0] for r in cur.fetchall()]
    assert got == sorted(k for k in keys if lo <= k < hi)
    conn.commit()
