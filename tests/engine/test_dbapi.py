"""PEP 249 driver surface: cursors, fetch modes, autocommit, errors."""

import pytest

from repro.engine import Database, connect
from repro.engine import dbapi
from repro.errors import (InterfaceError, NotSupportedError,
                          ProgrammingError)

from ..conftest import execute


def test_module_globals():
    assert dbapi.apilevel == "2.0"
    assert dbapi.paramstyle == "qmark"
    assert dbapi.threadsafety == 2


@pytest.fixture
def loaded(conn):
    execute(conn, "CREATE TABLE t (a INT PRIMARY KEY, b VARCHAR(8))")
    execute(conn, "INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three')")
    conn.commit()
    return conn


def test_fetchone_exhaustion(loaded):
    cur = execute(loaded, "SELECT a FROM t ORDER BY a")
    assert cur.fetchone() == (1,)
    assert cur.fetchone() == (2,)
    assert cur.fetchone() == (3,)
    assert cur.fetchone() is None


def test_fetchmany_with_arraysize(loaded):
    cur = execute(loaded, "SELECT a FROM t ORDER BY a")
    cur.arraysize = 2
    assert cur.fetchmany() == [(1,), (2,)]
    assert cur.fetchmany(5) == [(3,)]
    assert cur.fetchmany() == []


def test_fetchall_after_partial_fetch(loaded):
    cur = execute(loaded, "SELECT a FROM t ORDER BY a")
    cur.fetchone()
    assert cur.fetchall() == [(2,), (3,)]


def test_cursor_iteration(loaded):
    cur = execute(loaded, "SELECT a FROM t ORDER BY a")
    assert [row for row in cur] == [(1,), (2,), (3,)]


def test_description_present_for_select(loaded):
    cur = execute(loaded, "SELECT a, b AS label FROM t")
    assert [d[0] for d in cur.description] == ["a", "label"]
    assert all(len(d) == 7 for d in cur.description)


def test_description_none_for_dml(loaded):
    cur = execute(loaded, "UPDATE t SET b = 'x' WHERE a = 1")
    assert cur.description is None
    loaded.rollback()


def test_rowcount_for_select(loaded):
    cur = execute(loaded, "SELECT a FROM t")
    assert cur.rowcount == 3


def test_executemany(loaded):
    cur = loaded.cursor()
    cur.executemany("INSERT INTO t VALUES (?, ?)",
                    [(10, "x"), (11, "y"), (12, "z")])
    assert cur.rowcount == 3
    loaded.commit()
    cur = execute(loaded, "SELECT COUNT(*) FROM t")
    assert cur.fetchone() == (6,)


def test_executemany_checks_every_row(loaded):
    cur = loaded.cursor()
    for rows, message in [
            ([(20, "a"), (21, "b", "extra")],
             "statement expects 2 parameters, got 3"),
            ([(22, "c"), {"a": 23, "b": "d"}],
             "params must be a sequence, not a dict"),
            ([(24, "e"), (25,)],
             "statement expects at least 2 parameters, got 1")]:
        with pytest.raises(ProgrammingError, match=message):
            cur.executemany("INSERT INTO t VALUES (?, ?)", rows)
        loaded.rollback()
    assert execute(loaded, "SELECT COUNT(*) FROM t").fetchone() == (3,)


def test_parameter_count_checked_below_the_cursor(db, loaded):
    """Database.execute checks the count too, so loaders and consistency
    checks that bypass the cursor cannot pass extra parameters."""
    txn = db.begin()
    try:
        with pytest.raises(ProgrammingError,
                           match="statement expects 1 parameters, got 3"):
            db.execute(txn, "SELECT b FROM t WHERE a = ?", (1, 99, "extra"))
        with pytest.raises(ProgrammingError,
                           match="expects at least 2 parameters, got 1"):
            db.execute(txn, "INSERT INTO t VALUES (?, ?)", (9,))
        assert db.execute(txn, "SELECT b FROM t WHERE a = ?",
                          (1,)).rows == [("one",)]
    finally:
        db.rollback(txn)


def test_string_params_rejected(loaded):
    cur = loaded.cursor()
    with pytest.raises(ProgrammingError):
        cur.execute("SELECT a FROM t WHERE b = ?", "one")


def test_closed_cursor_rejects_operations(loaded):
    cur = execute(loaded, "SELECT a FROM t")
    cur.close()
    with pytest.raises(InterfaceError):
        cur.fetchone()
    with pytest.raises(InterfaceError):
        cur.execute("SELECT 1")


def test_closed_connection_rejects_cursor(db):
    conn = connect(db)
    conn.close()
    with pytest.raises(InterfaceError):
        conn.cursor()
    conn.close()  # double-close is fine


def test_close_rolls_back_open_transaction(db):
    setup = connect(db)
    execute(setup, "CREATE TABLE t (a INT PRIMARY KEY)")
    setup.commit()
    conn = connect(db)
    execute(conn, "INSERT INTO t VALUES (1)")
    conn.close()  # implicit rollback
    check = connect(db)
    cur = execute(check, "SELECT COUNT(*) FROM t")
    assert cur.fetchone() == (0,)


def test_context_manager_commits_on_success(db):
    with connect(db) as conn:
        execute(conn, "CREATE TABLE t (a INT PRIMARY KEY)")
        execute(conn, "INSERT INTO t VALUES (1)")
    check = connect(db)
    cur = execute(check, "SELECT COUNT(*) FROM t")
    assert cur.fetchone() == (1,)


def test_context_manager_rolls_back_on_error(db):
    setup = connect(db)
    execute(setup, "CREATE TABLE t (a INT PRIMARY KEY)")
    setup.commit()
    with pytest.raises(RuntimeError):
        with connect(db) as conn:
            execute(conn, "INSERT INTO t VALUES (1)")
            raise RuntimeError("boom")
    check = connect(db)
    cur = execute(check, "SELECT COUNT(*) FROM t")
    assert cur.fetchone() == (0,)


def test_autocommit_mode(db):
    setup = connect(db)
    execute(setup, "CREATE TABLE t (a INT PRIMARY KEY)")
    setup.commit()
    auto = connect(db, autocommit=True)
    execute(auto, "INSERT INTO t VALUES (1)")
    # Visible to another connection without an explicit commit.
    other = connect(db)
    cur = execute(other, "SELECT COUNT(*) FROM t")
    assert cur.fetchone() == (1,)


def test_invalid_isolation_rejected(db):
    with pytest.raises(NotSupportedError):
        connect(db, isolation="read-uncommitted")


def test_commit_without_transaction_is_noop(db):
    conn = connect(db)
    conn.commit()
    conn.rollback()


def test_last_txn_stats_exposed(loaded):
    execute(loaded, "SELECT a FROM t")
    loaded.commit()
    stats = loaded.last_txn_stats
    assert stats is not None
    assert stats.rows_read == 3


def test_setinputsizes_are_noops(loaded):
    cur = loaded.cursor()
    cur.setinputsizes([1, 2])
    cur.setoutputsize(10)
