"""The engine's per-row path: live index buckets, duplicate keys, bulk loads.

Index probes return the index's live bucket rather than a copy, so the
tests here check that no read or write of a transaction mutates a
committed bucket, and that the primary-key check still sees both the
committed rows and the transaction's own.
"""

import pytest

from repro.errors import DataError, IntegrityError, ProgrammingError

from ..conftest import execute


@pytest.fixture
def grouped(db, conn):
    execute(conn, "CREATE TABLE t (id INT PRIMARY KEY, grp INT, val INT)")
    execute(conn, "CREATE INDEX idx_grp ON t (grp)")
    execute(conn, "INSERT INTO t VALUES (1, 10, 0), (2, 10, 0), (3, 20, 0)")
    conn.commit()
    return db, conn


def test_probes_never_mutate_the_committed_bucket(grouped):
    db, conn = grouped
    data = db.table_data("t")
    bucket = data.index_lookup("idx_grp", (10,))
    committed = set(bucket)
    execute(conn, "INSERT INTO t VALUES (4, 10, 1), (5, 10, 1)")
    # A probe on the index and one on the primary key, a range walk and
    # a full scan each see the transaction's own rows ...
    assert sorted(execute(conn, "SELECT id FROM t WHERE grp = 10")
                  .fetchall()) == [(1,), (2,), (4,), (5,)]
    assert execute(conn, "SELECT val FROM t WHERE id = 4").fetchall() == \
        [(1,)]
    assert sorted(execute(conn, "SELECT id FROM t WHERE grp >= 10 "
                                "AND grp < 11").fetchall()) == \
        [(1,), (2,), (4,), (5,)]
    assert execute(conn, "SELECT count(*) FROM t WHERE val = 1"
                   ).fetchone() == (2,)
    execute(conn, "UPDATE t SET val = 2 WHERE grp = 10")
    # ... but the committed bucket is untouched, in content and identity.
    assert set(bucket) == committed
    assert data.index_lookup("idx_grp", (10,)) is bucket
    conn.rollback()
    assert set(data.index_lookup("idx_grp", (10,))) == committed
    assert data.index_lookup("__pk__", (4,)) == set()
    assert sorted(execute(conn, "SELECT id, val FROM t WHERE grp = 10")
                  .fetchall()) == [(1, 0), (2, 0)]
    conn.commit()


def test_missing_keys_and_indexes_probe_as_empty(grouped):
    db, _ = grouped
    data = db.table_data("t")
    assert data.index_lookup("idx_grp", (99,)) == set()
    assert data.index_lookup("no_such_index", (10,)) == set()


def test_duplicate_key_after_many_own_inserts(grouped):
    _, conn = grouped
    for i in range(100, 115):
        execute(conn, "INSERT INTO t VALUES (?, 30, 0)", (i,))
    with pytest.raises(IntegrityError, match="duplicate primary key"):
        execute(conn, "INSERT INTO t VALUES (107, 30, 0)")
    conn.rollback()
    for i in range(100, 115):
        execute(conn, "INSERT INTO t VALUES (?, 30, 0)", (i,))
    with pytest.raises(IntegrityError, match="duplicate primary key"):
        execute(conn, "INSERT INTO t VALUES (2, 30, 0)")  # committed row
    conn.rollback()


def test_delete_then_insert_same_key_in_one_txn(grouped):
    _, conn = grouped
    execute(conn, "DELETE FROM t WHERE id = 1")
    execute(conn, "INSERT INTO t VALUES (1, 20, 7)")
    assert execute(conn, "SELECT grp, val FROM t WHERE id = 1"
                   ).fetchall() == [(20, 7)]
    conn.commit()
    assert execute(conn, "SELECT grp, val FROM t WHERE id = 1"
                   ).fetchall() == [(20, 7)]
    assert sorted(execute(conn, "SELECT id FROM t WHERE grp = 20")
                  .fetchall()) == [(1,), (3,)]
    conn.commit()


def test_insert_then_delete_then_insert_same_key(grouped):
    _, conn = grouped
    execute(conn, "INSERT INTO t VALUES (9, 10, 0)")
    execute(conn, "DELETE FROM t WHERE id = 9")
    execute(conn, "INSERT INTO t VALUES (9, 20, 1)")
    with pytest.raises(IntegrityError, match="duplicate primary key"):
        execute(conn, "INSERT INTO t VALUES (9, 20, 2)")
    conn.rollback()


# -- bulk_insert finalizes rows as INSERT does -----------------------------------


@pytest.fixture
def strict(db, conn):
    execute(conn, "CREATE TABLE s (a INT, b INT, name VARCHAR(4) NOT NULL, "
                  "PRIMARY KEY (a, b))")
    db.bulk_insert("s", [(1, 1, "one"), (1, 2, "two")])
    return db, conn


def _rows(conn):
    rows = sorted(execute(conn, "SELECT a, b, name FROM s").fetchall())
    conn.commit()
    return rows


def test_bulk_insert_coerces_like_insert(strict):
    db, conn = strict
    db.bulk_insert("s", [("2", 1.0, "truncated")])
    assert _rows(conn) == [(1, 1, "one"), (1, 2, "two"), (2, 1, "trun")]


@pytest.mark.parametrize("bad_row, error, message", [
    ((2, 1, None), IntegrityError, "column 'name' of 's' is NOT NULL"),
    ((2, None, "x"), IntegrityError, "NULL in primary key of 's'"),
    ((None, 1, "x"), IntegrityError, "NULL in primary key of 's'"),
    ((1, 2, "dup"), IntegrityError, r"duplicate primary key \(1, 2\)"),
    ((3, 3, "x"), IntegrityError, r"duplicate primary key \(3, 3\)"),
    (("x", 1, "x"), DataError, "cannot store string 'x' in int"),
    ((2, 1), ProgrammingError, "expects 3 values, got 2"),
])
def test_failed_bulk_batch_leaves_the_table_unchanged(strict, bad_row, error,
                                                      message):
    db, conn = strict
    before = _rows(conn)
    aborted = db.txn_manager.aborted
    batch = [(3, 3, "ok"), (3, 4, "ok"), bad_row, (3, 5, "ok")]
    with pytest.raises(error, match=message):
        db.bulk_insert("s", batch)
    assert _rows(conn) == before
    assert db.row_count("s") == len(before)
    assert db.txn_manager.aborted == aborted + 1
    # The table still takes a good batch afterwards.
    db.bulk_insert("s", [(3, 3, "ok")])
    assert (3, 3, "ok") in _rows(conn)


def test_insert_enforces_the_same_checks_as_bulk_insert(strict):
    _, conn = strict
    with pytest.raises(IntegrityError, match="is NOT NULL"):
        execute(conn, "INSERT INTO s VALUES (2, 1, NULL)")
    with pytest.raises(IntegrityError, match="NULL in primary key"):
        execute(conn, "INSERT INTO s VALUES (2, NULL, 'x')")
    conn.rollback()

