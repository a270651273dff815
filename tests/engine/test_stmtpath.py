"""The statement path's shortcuts and the hazards each one must survive.

* A row locked after its candidate read is re-read only when a commit
  landed in between; the tests land one exactly there, without a wait.
* An index probe checks a candidate's key instead of re-running the
  conjuncts the key covers, so stale index entries, NULL keys, missing
  parameters and int/float keys are pinned here, and the key is never
  kept where another thread's probe could see it.
* An INSERT locks its primary key only, not its new rowid.
"""

import sys
import threading

import pytest

from repro.engine import SERIALIZABLE, SNAPSHOT, connect
from repro.errors import IntegrityError, OperationalError, ProgrammingError

from ..conftest import execute
from .sqlite_oracle import Twin


@pytest.fixture
def grouped(db):
    conn = connect(db)
    execute(conn, "CREATE TABLE t (id INT PRIMARY KEY, grp INT, val INT)")
    execute(conn, "CREATE INDEX idx_grp ON t (grp)")
    execute(conn, "CREATE INDEX idx_grp_id ON t (grp, id)")
    execute(conn, "INSERT INTO t VALUES (1, 10, 0), (2, 10, 0), (3, 20, 0)")
    conn.commit()
    conn.close()
    return db


def commit_before_grant(db, row, sql, params=()):
    """Make the next lock request on ``("row", "t", row)`` first commit
    ``sql`` from another transaction, so the requester finds the lock
    free but the row changed since it was read."""
    manager = db.lock_manager
    original = manager.acquire
    other = connect(db)
    state = {"fired": False}

    def acquire(txn, resource, mode, timeout=None):
        if resource == ("row", "t", row) and not state["fired"]:
            state["fired"] = True
            execute(other, sql, params)
            other.commit()
        return original(txn, resource, mode, timeout)

    manager.acquire = acquire
    return state


def rowid_of(db, key):
    (rowid,) = db.table_data("t").index_lookup("__pk__", (key,))
    return rowid


@pytest.mark.parametrize("sql", [
    "SELECT id, val FROM t WHERE id = 2",                       # pk probe
    "SELECT id, val FROM t WHERE grp = 10 AND id = 2",          # probe
    "SELECT id, val FROM t WHERE id >= 2 AND id < 3",           # range
    "SELECT id, val FROM t WHERE grp = 10 AND id > 1 "
    "ORDER BY id LIMIT 1",                                      # walk
])
def test_a_commit_before_the_grant_is_seen(grouped, sql):
    db = grouped
    state = commit_before_grant(db, rowid_of(db, 2),
                                "UPDATE t SET val = 5 WHERE id = 2")
    conn = connect(db)
    assert execute(conn, sql).fetchall() == [(2, 5)]
    assert state["fired"]
    conn.commit()


@pytest.mark.parametrize("change", [
    "UPDATE t SET val = 5 WHERE id = 2",   # fails the residual filter
    "UPDATE t SET grp = 30 WHERE id = 2",  # leaves the probed key
    "DELETE FROM t WHERE id = 2",
])
@pytest.mark.parametrize("sql", [
    "SELECT id FROM t WHERE grp = 10 AND val = 0",
    "SELECT id FROM t WHERE grp = 10 AND val = 0 ORDER BY id LIMIT 2",
    "SELECT id FROM t WHERE grp = 10 AND val = 0 FOR UPDATE",
])
def test_a_commit_before_the_grant_can_drop_the_row(grouped, change, sql):
    db = grouped
    state = commit_before_grant(db, rowid_of(db, 2), change)
    conn = connect(db)
    assert sorted(execute(conn, sql).fetchall()) == [(1,)]
    assert state["fired"]
    conn.commit()


def test_update_sees_a_commit_before_the_grant(grouped):
    db = grouped
    commit_before_grant(db, rowid_of(db, 2),
                        "UPDATE t SET val = val + 5 WHERE id = 2")
    conn = connect(db)
    assert execute(conn, "UPDATE t SET val = val + 1 WHERE grp = 10"
                   ).rowcount == 2
    conn.commit()
    assert execute(conn, "SELECT id, val FROM t ORDER BY id").fetchall() \
        == [(1, 1), (2, 6), (3, 0)]
    conn.commit()


def test_no_commit_no_second_latch_hold(grouped):
    """Without an intervening commit, a locked probe reads the row once."""
    db = grouped
    latch = db.latch
    holds = []

    class CountingLatch:
        def __enter__(self):
            holds.append(1)
            return latch.__enter__()

        def __exit__(self, *exc):
            return latch.__exit__(*exc)

    conn = connect(db)
    db.latch = CountingLatch()
    try:
        assert execute(conn, "SELECT val FROM t WHERE id = 2"
                       ).fetchall() == [(0,)]
    finally:
        db.latch = latch
    assert len(holds) == 1
    conn.commit()


def test_stale_index_entries_are_not_returned(grouped):
    db = grouped
    reader = connect(db, isolation=SNAPSHOT)
    assert sorted(execute(reader, "SELECT id FROM t WHERE grp = 10")
                  .fetchall()) == [(1,), (2,)]   # snapshot taken
    rowid = rowid_of(db, 2)
    conn = connect(db)
    execute(conn, "UPDATE t SET grp = 20, id = 4 WHERE id = 2")
    conn.commit()
    # The old version keeps the row under both old keys until a prune.
    data = db.table_data("t")
    assert rowid in data.index_lookup("idx_grp", (10,))
    assert rowid in data.index_lookup("__pk__", (2,))
    for sql in ("SELECT id FROM t WHERE grp = 10",
                "SELECT id FROM t WHERE grp = 10 FOR UPDATE"):
        assert execute(conn, sql).fetchall() == [(1,)]
    assert execute(conn, "SELECT id FROM t WHERE id = 2").fetchall() == []
    assert sorted(execute(conn, "SELECT id FROM t WHERE grp = 20")
                  .fetchall()) == [(3,), (4,)]
    conn.commit()
    # The older snapshot still sees the row under its old keys.
    assert sorted(execute(reader, "SELECT id FROM t WHERE grp = 10")
                  .fetchall()) == [(1,), (2,)]
    assert execute(reader, "SELECT val FROM t WHERE id = 2").fetchall() \
        == [(0,)]
    reader.commit()


def test_null_probe_key_matches_no_row(grouped):
    db = grouped
    conn = connect(db)
    execute(conn, "INSERT INTO t VALUES (8, NULL, 0)")
    conn.commit()
    execute(conn, "INSERT INTO t VALUES (9, NULL, 0)")  # own, unindexed
    for sql in ("SELECT id FROM t WHERE grp = ?",
                "SELECT id FROM t WHERE grp = ? AND id = 8"):
        assert execute(conn, sql, (None,)).fetchall() == []
    assert execute(conn, "SELECT id FROM t WHERE id = ?", (None,)
                   ).fetchall() == []
    assert sorted(execute(conn, "SELECT id FROM t WHERE grp IS NULL")
                  .fetchall()) == [(8,), (9,)]
    conn.rollback()


def test_missing_parameter_raises_as_before(grouped):
    conn = connect(grouped)
    for sql in ("SELECT id FROM t WHERE id = ?",
                "SELECT id FROM t WHERE grp = ? AND val = 0"):
        with pytest.raises(ProgrammingError,
                           match="expects at least 1 parameters, got 0"):
            execute(conn, sql)
        conn.rollback()


def test_int_and_float_probe_keys_match_sqlite():
    twin = Twin(["CREATE TABLE n (id INT PRIMARY KEY, r REAL, v INT)",
                 "CREATE INDEX idx_r ON n (r)"],
                {"n": [(1, 1.0, 10), (2, 2.5, 20), (3, 3.0, 30)]})
    for sql, params in [
            ("SELECT v FROM n WHERE id = ?", (1.0,)),
            ("SELECT v FROM n WHERE id = ?", (2.5,)),
            ("SELECT v FROM n WHERE r = ?", (1,)),
            ("SELECT v FROM n WHERE r = ?", (3,)),
            ("SELECT v FROM n WHERE r = ?", (2.5,)),
            ("SELECT v FROM n WHERE r = ? AND id = ?", (3, 3.0)),
            ("SELECT v FROM n WHERE id = 1.0", ()),
            ("SELECT v FROM n WHERE r = 1", ())]:
        twin.check(sql, params)
    twin.close()


def test_concurrent_probes_get_their_own_rows(db):
    """The executor is shared by every connection: a probe key must not
    outlive its statement where another thread's probe could read it."""
    setup = connect(db)
    execute(setup, "CREATE TABLE kv (k INT PRIMARY KEY, grp INT, v INT)")
    execute(setup, "CREATE INDEX idx_kv_grp ON kv (grp)")
    setup.cursor().executemany("INSERT INTO kv VALUES (?, ?, ?)",
                               [(k, k % 4, k * 10) for k in range(40)])
    setup.commit()
    setup.close()
    errors = []

    def worker(n):
        conn = connect(db, isolation=SNAPSHOT if n % 2 else SERIALIZABLE)
        cur = conn.cursor()
        try:
            for i in range(300):
                k = n + 4 * (i % 10)
                cur.execute("SELECT k, v FROM kv WHERE k = ?", (k,))
                assert cur.fetchall() == [(k, k * 10)]
                cur.execute("SELECT k FROM kv WHERE grp = ? AND v >= ?",
                            (n, 0))
                assert sorted(cur.fetchall()) == \
                    [(j,) for j in range(n, 40, 4)]
                conn.commit()
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)
            raise
        finally:
            conn.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(n,), daemon=True)
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]


def test_serializable_insert_locks_only_its_key(grouped):
    db = grouped
    conn = connect(db)
    execute(conn, "SELECT 1")  # open the transaction
    txn = conn.transaction
    stats = db.lock_manager.stats
    before = stats.acquisitions
    execute(conn, "INSERT INTO t VALUES (7, 10, 0)")
    assert stats.acquisitions - before == 1
    assert db.lock_manager.held_by(txn) == {("key", "t", (7,))}
    conn.commit()


def test_snapshot_insert_takes_no_lock(grouped):
    db = grouped
    conn = connect(db, isolation=SNAPSHOT)
    stats = db.lock_manager.stats
    before = stats.acquisitions
    execute(conn, "INSERT INTO t VALUES (7, 10, 0)")
    assert stats.acquisitions == before
    assert db.lock_manager.held_by(conn.transaction) == set()
    conn.commit()


def test_four_way_insert_race_has_one_winner(grouped):
    db = grouped
    barrier = threading.Barrier(4)
    outcomes = []

    def inserter(n):
        conn = connect(db)
        try:
            barrier.wait(timeout=5.0)
            execute(conn, "INSERT INTO t VALUES (50, ?, 0)", (n,))
            conn.commit()
            outcomes.append("ok")
        except (IntegrityError, OperationalError):
            conn.rollback()
            outcomes.append("lost")
        finally:
            conn.close()

    threads = [threading.Thread(target=inserter, args=(n,), daemon=True)
               for n in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10.0)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(outcomes) == ["lost"] * 3 + ["ok"]
    assert db.row_count("t") == 4
