"""Database facade: prepared-statement reuse, counters, stats reporting."""

import pytest

from repro.engine import Database, connect
from repro.errors import ProgrammingError

from ..conftest import execute


def test_statement_cache_reuses_parse(db):
    first = db.prepare_exec("SELECT 1 + 1").stmt
    second = db.prepare_exec("SELECT 1 + 1").stmt
    assert first is second
    third = db.prepare_exec("SELECT 1 + 2").stmt
    assert third is not first


def test_counters_track_activity(db, conn):
    execute(conn, "CREATE TABLE t (a INT PRIMARY KEY, b INT)")
    execute(conn, "INSERT INTO t VALUES (1, 1), (2, 2)")
    execute(conn, "UPDATE t SET b = 9 WHERE a = 1")
    execute(conn, "DELETE FROM t WHERE a = 2")
    execute(conn, "SELECT * FROM t")
    conn.commit()
    counters = db.counters.snapshot()
    assert counters["rows_inserted"] == 2
    assert counters["rows_updated"] == 1
    assert counters["rows_deleted"] == 1
    assert counters["rows_read"] >= 1
    assert counters["statements"] == 5


def test_stats_shape(db, conn):
    execute(conn, "CREATE TABLE t (a INT PRIMARY KEY)")
    execute(conn, "INSERT INTO t VALUES (1)")
    conn.commit()
    stats = db.stats()
    assert stats["tables"] == {"t": 1}
    assert stats["committed"] == 1
    assert "locks" in stats and "counters" in stats
    assert stats["name"] == "main"


def test_row_count_counts_live_rows_only(db, conn):
    execute(conn, "CREATE TABLE t (a INT PRIMARY KEY)")
    execute(conn, "INSERT INTO t VALUES (1), (2), (3)")
    conn.commit()
    execute(conn, "DELETE FROM t WHERE a = 2")
    conn.commit()
    assert db.row_count("t") == 2


def test_table_names_sorted(db, conn):
    execute(conn, "CREATE TABLE zebra (a INT)")
    execute(conn, "CREATE TABLE alpha (a INT)")
    assert db.table_names() == ["alpha", "zebra"]


def test_transaction_control_statements_rejected(db, conn):
    execute(conn, "CREATE TABLE t (a INT)")
    execute(conn, "INSERT INTO t VALUES (1)")
    with pytest.raises(ProgrammingError):
        execute(conn, "COMMIT")
    conn.rollback()


def test_bulk_insert_validates_width(db, conn):
    execute(conn, "CREATE TABLE t (a INT PRIMARY KEY, b INT)")
    with pytest.raises(ProgrammingError):
        db.bulk_insert("t", [(1,)])


def test_named_database():
    db = Database("production-shadow")
    assert db.stats()["name"] == "production-shadow"
