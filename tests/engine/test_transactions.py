"""Transaction semantics: atomicity, visibility, 2PL conflicts, aborts."""

import threading

import pytest

from repro.engine import Database, SERIALIZABLE, SNAPSHOT, connect
from repro.errors import (DeadlockError, IntegrityError, OperationalError,
                          ProgrammingError, SerializationError,
                          TransactionAborted)

from ..conftest import execute


@pytest.fixture
def bank(db):
    conn = connect(db)
    execute(conn, "CREATE TABLE acct (id INT PRIMARY KEY, bal INT NOT NULL)")
    execute(conn, "INSERT INTO acct VALUES (1, 100), (2, 100)")
    conn.commit()
    conn.close()
    return db


def balances(db):
    conn = connect(db)
    cur = execute(conn, "SELECT id, bal FROM acct ORDER BY id")
    rows = dict(cur.fetchall())
    conn.rollback()
    conn.close()
    return rows


def test_commit_makes_writes_visible(bank):
    c1, c2 = connect(bank), connect(bank)
    execute(c1, "UPDATE acct SET bal = bal - 10 WHERE id = 1")
    c1.commit()
    cur = execute(c2, "SELECT bal FROM acct WHERE id = 1")
    assert cur.fetchone() == (90,)


def test_rollback_discards_writes(bank):
    conn = connect(bank)
    execute(conn, "UPDATE acct SET bal = 0 WHERE id = 1")
    conn.rollback()
    assert balances(bank)[1] == 100


def test_rollback_discards_inserts_and_deletes(bank):
    conn = connect(bank)
    execute(conn, "INSERT INTO acct VALUES (3, 5)")
    execute(conn, "DELETE FROM acct WHERE id = 1")
    conn.rollback()
    assert balances(bank) == {1: 100, 2: 100}


def test_own_writes_visible_before_commit(bank):
    conn = connect(bank)
    execute(conn, "UPDATE acct SET bal = 42 WHERE id = 1")
    cur = execute(conn, "SELECT bal FROM acct WHERE id = 1")
    assert cur.fetchone() == (42,)
    conn.rollback()


def test_insert_then_delete_in_txn_cancels(bank):
    conn = connect(bank)
    execute(conn, "INSERT INTO acct VALUES (9, 1)")
    execute(conn, "DELETE FROM acct WHERE id = 9")
    conn.commit()
    assert 9 not in balances(bank)


def test_insert_then_update_in_txn(bank):
    conn = connect(bank)
    execute(conn, "INSERT INTO acct VALUES (9, 1)")
    execute(conn, "UPDATE acct SET bal = 7 WHERE id = 9")
    conn.commit()
    assert balances(bank)[9] == 7


def test_write_conflict_blocks_until_commit(bank):
    """Second writer waits for the first writer's lock (strict 2PL)."""
    c1 = connect(bank)
    execute(c1, "UPDATE acct SET bal = bal - 10 WHERE id = 1")

    done = threading.Event()
    observed = {}

    def second_writer():
        c2 = connect(bank)
        execute(c2, "UPDATE acct SET bal = bal - 10 WHERE id = 1")
        c2.commit()
        observed["bal"] = balances(bank)[1]
        done.set()

    thread = threading.Thread(target=second_writer, daemon=True)
    thread.start()
    assert not done.wait(0.15)  # blocked behind c1
    c1.commit()
    assert done.wait(3.0)
    assert observed["bal"] == 80  # both decrements applied, no lost update


def test_lost_update_prevented_with_for_update(bank):
    """Classic read-modify-write race, serialised by FOR UPDATE."""
    results = []

    def transfer():
        conn = connect(bank)
        cur = execute(conn, "SELECT bal FROM acct WHERE id = 1 FOR UPDATE")
        bal = cur.fetchone()[0]
        execute(conn, "UPDATE acct SET bal = ? WHERE id = 1", (bal - 10,))
        conn.commit()
        results.append(bal)

    threads = [threading.Thread(target=transfer, daemon=True)
               for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(5.0)
    assert balances(bank)[1] == 60


def test_deadlock_victim_can_retry(bank):
    """Opposite-order updates deadlock; victim retries and succeeds."""
    barrier = threading.Barrier(2)
    errors = []

    def worker(first, second):
        conn = connect(bank)
        for attempt in range(5):
            try:
                execute(conn, "UPDATE acct SET bal = bal + 1 WHERE id = ?",
                        (first,))
                if attempt == 0:
                    # Synchronise only the first attempt to force the
                    # opposite-order lock acquisition.
                    try:
                        barrier.wait(timeout=5.0)
                    except threading.BrokenBarrierError:
                        pass
                execute(conn, "UPDATE acct SET bal = bal + 1 WHERE id = ?",
                        (second,))
                conn.commit()
                return
            except TransactionAborted:
                pass  # rolled back by the driver; retry
        errors.append("gave up")

    t1 = threading.Thread(target=worker, args=(1, 2), daemon=True)
    t2 = threading.Thread(target=worker, args=(2, 1), daemon=True)
    t1.start()
    t2.start()
    t1.join(10.0)
    t2.join(10.0)
    assert not errors
    totals = balances(bank)
    assert totals[1] + totals[2] == 204  # both +1s on both accounts


def test_concurrent_duplicate_insert_one_wins(bank):
    """Key locks serialise same-PK inserts; exactly one succeeds."""
    outcomes = []
    barrier = threading.Barrier(2)

    def inserter():
        conn = connect(bank)
        barrier.wait(timeout=5.0)
        try:
            execute(conn, "INSERT INTO acct VALUES (50, 1)")
            conn.commit()
            outcomes.append("ok")
        except (IntegrityError, OperationalError):
            conn.rollback()
            outcomes.append("dup")

    threads = [threading.Thread(target=inserter, daemon=True)
               for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(5.0)
    assert sorted(outcomes) == ["dup", "ok"]


def test_execute_after_close_rejected(bank):
    conn = connect(bank)
    conn.close()
    with pytest.raises(Exception):
        execute(conn, "SELECT 1")


def test_statement_without_txn_on_database_facade(bank):
    with pytest.raises(ProgrammingError):
        bank.execute(None, "SELECT COUNT(*) FROM acct")


def test_database_stats_counts_commits_and_aborts(bank):
    conn = connect(bank)
    execute(conn, "UPDATE acct SET bal = 0 WHERE id = 1")
    conn.commit()
    execute(conn, "UPDATE acct SET bal = 0 WHERE id = 2")
    conn.rollback()
    stats = bank.stats()
    assert stats["committed"] >= 2  # fixture commit + this one
    assert stats["aborted"] >= 1


def test_commit_rejects_a_committed_duplicate_key():
    """The commit-time key check, on the transaction manager itself."""
    db = Database()
    conn = connect(db)
    execute(conn, "CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    data = db.table_data("t")
    manager = db.txn_manager
    first = manager.begin(SERIALIZABLE)
    first.buffer_insert("t", data.new_rowid(), (1, 10))
    manager.commit(first, {"t": data})
    second = manager.begin(SERIALIZABLE)
    second.buffer_insert("t", data.new_rowid(), (1, 20))
    with pytest.raises(IntegrityError, match=r"duplicate primary key \(1,\)"):
        manager.commit(second, {"t": data})
    manager.rollback(second)
    assert data.count_live() == 1
    conn.close()


def test_failed_commit_applies_none_of_its_writes(db):
    """A key another transaction committed first fails the whole commit:
    no earlier write of the workspace is left applied."""
    setup = connect(db)
    execute(setup, "CREATE TABLE a (id INT PRIMARY KEY)")
    execute(setup, "CREATE TABLE t (id INT PRIMARY KEY)")
    setup.close()
    t1 = connect(db)  # serializable
    t2 = connect(db, isolation=SNAPSHOT)
    execute(t1, "INSERT INTO a VALUES (1)")
    execute(t1, "INSERT INTO t VALUES (7)")
    # A snapshot writer takes no key lock, so it commits the key first.
    execute(t2, "INSERT INTO t VALUES (7)")
    t2.commit()
    sequence = db.txn_manager.last_commit_ts
    with pytest.raises(IntegrityError, match="duplicate primary key"):
        t1.commit()
    assert db.txn_manager.last_commit_ts == sequence
    assert db.row_count("a") == 0
    assert db.row_count("t") == 1
    assert db.lock_manager.active_lock_count() == 0
    # The table is still writable, and the key t1 wanted is still taken.
    execute(t1, "INSERT INTO a VALUES (1)")
    t1.commit()
    assert db.row_count("a") == 1
    t1.close()
    t2.close()


def test_commit_allows_a_key_its_own_delete_frees(bank):
    conn = connect(bank)
    execute(conn, "DELETE FROM acct WHERE id = 1")
    execute(conn, "INSERT INTO acct VALUES (1, 7)")
    execute(conn, "UPDATE acct SET id = 3 WHERE id = 2")
    execute(conn, "INSERT INTO acct VALUES (2, 8)")
    conn.commit()
    assert balances(bank) == {1: 7, 2: 8, 3: 100}
    conn.close()


def test_snapshot_commit_allows_a_key_its_own_delete_frees(bank):
    """Snapshot validation skips a key holder its own workspace deletes or
    rekeys, as the serializable key check does."""
    conn = connect(bank, isolation=SNAPSHOT)
    execute(conn, "DELETE FROM acct WHERE id = 1")
    execute(conn, "INSERT INTO acct VALUES (1, 7)")
    execute(conn, "UPDATE acct SET id = 3 WHERE id = 2")
    execute(conn, "INSERT INTO acct VALUES (2, 8)")
    conn.commit()
    assert balances(bank) == {1: 7, 2: 8, 3: 100}
    conn.close()


def test_snapshot_insert_of_a_concurrently_committed_key_conflicts(bank):
    first = connect(bank, isolation=SNAPSHOT)
    second = connect(bank, isolation=SNAPSHOT)
    execute(first, "INSERT INTO acct VALUES (5, 1)")
    execute(second, "INSERT INTO acct VALUES (5, 2)")
    second.commit()
    with pytest.raises(SerializationError,
                       match=r"concurrent insert of key \(5,\)"):
        first.commit()
    first.rollback()
    assert balances(bank) == {1: 100, 2: 100, 5: 2}
    first.close()
    second.close()
