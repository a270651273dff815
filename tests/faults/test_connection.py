"""FaultingConnection: statement-boundary firing over the real engine."""

import collections
import sys

import pytest

from repro.engine import Database, LockManager, connect
from repro.errors import (InjectedAbort, InjectedDisconnect,
                          InjectedLockTimeout, InterfaceError)
from repro.faults import (FaultPlan, FaultingConnection, KIND_ABORT,
                          KIND_DISCONNECT, KIND_LATENCY, KIND_LOCK_TIMEOUT)


@pytest.fixture
def kv(db):
    raw = connect(db)
    cur = raw.cursor()
    cur.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT NOT NULL)")
    cur.execute("INSERT INTO kv VALUES (?, ?)", (1, 0))
    raw.commit()
    wrapped = FaultingConnection(connect(db))
    yield wrapped
    wrapped.close()
    raw.close()


def _plan(kind, at_statement=0):
    return FaultPlan(index=0, txn_name="Write", kind=kind,
                     at_statement=at_statement)


def test_unarmed_connection_is_transparent(kv):
    cur = kv.cursor()
    cur.execute("UPDATE kv SET v = v + 1 WHERE k = ?", (1,))
    kv.commit()
    cur.execute("SELECT v FROM kv WHERE k = ?", (1,))
    assert cur.fetchall()[0][0] == 1


def test_abort_fires_at_planned_statement(kv):
    kv.arm(_plan(KIND_ABORT, at_statement=1))
    cur = kv.cursor()
    cur.execute("UPDATE kv SET v = v + 1 WHERE k = ?", (1,))  # statement 0
    with pytest.raises(InjectedAbort):
        cur.execute("UPDATE kv SET v = v + 1 WHERE k = ?", (1,))
    # Firing rolled the transaction back: the first update is gone.
    kv.rollback()
    cur = kv.cursor()
    cur.execute("SELECT v FROM kv WHERE k = ?", (1,))
    assert cur.fetchall()[0][0] == 0


def test_short_transaction_fires_at_commit(kv):
    kv.arm(_plan(KIND_LOCK_TIMEOUT, at_statement=2))
    cur = kv.cursor()
    cur.execute("UPDATE kv SET v = v + 1 WHERE k = ?", (1,))  # statement 0
    with pytest.raises(InjectedLockTimeout):
        kv.commit()  # only 1 statement ran; the planned fault still fires
    kv.rollback()


def _read_v(db):
    raw = connect(db)
    try:
        cur = raw.cursor()
        cur.execute("SELECT v FROM kv WHERE k = ?", (1,))
        return cur.fetchall()[0][0]
    finally:
        raw.close()


def test_with_block_fires_plan_armed_past_last_statement(kv, db):
    """Leaving ``with`` commits through the wrapper, so the plan fires."""
    kv.arm(_plan(KIND_ABORT, at_statement=5))
    with pytest.raises(InjectedAbort):
        with kv:
            kv.cursor().execute("UPDATE kv SET v = v + 1 WHERE k = ?", (1,))
    assert _read_v(db) == 0
    with pytest.raises(InterfaceError):
        kv.cursor()  # the block closed the connection either way


def test_with_block_rolls_back_and_closes_on_error(kv, db):
    with pytest.raises(RuntimeError):
        with kv:
            kv.cursor().execute("UPDATE kv SET v = v + 1 WHERE k = ?", (1,))
            raise RuntimeError("worker failed")
    assert _read_v(db) == 0
    with pytest.raises(InterfaceError):
        kv.cursor()


def test_with_block_commits_on_success(kv, db):
    with kv:
        kv.cursor().execute("UPDATE kv SET v = v + 1 WHERE k = ?", (1,))
    assert _read_v(db) == 1


def test_disconnect_sticks_until_reconnect(kv):
    kv.arm(_plan(KIND_DISCONNECT))
    cur = kv.cursor()
    with pytest.raises(InjectedDisconnect):
        cur.execute("SELECT v FROM kv WHERE k = ?", (1,))
    assert kv.dropped
    with pytest.raises(InjectedDisconnect):
        kv.cursor()  # still dead
    kv.rollback()  # the failure handler's rollback is always allowed
    kv.reconnect()
    assert not kv.dropped
    cur = kv.cursor()
    cur.execute("SELECT v FROM kv WHERE k = ?", (1,))
    assert cur.fetchall()[0][0] == 0


def test_plan_is_consumed_by_firing(kv):
    kv.arm(_plan(KIND_ABORT))
    cur = kv.cursor()
    with pytest.raises(InjectedAbort):
        cur.execute("SELECT v FROM kv WHERE k = ?", (1,))
    # The retry's statements run clean: the plan fired exactly once.
    cur = kv.cursor()
    cur.execute("SELECT v FROM kv WHERE k = ?", (1,))
    kv.commit()


def test_latency_plans_are_rejected(kv):
    with pytest.raises(ValueError):
        kv.arm(FaultPlan(index=0, txn_name="Read", kind=KIND_LATENCY))


def test_attribute_passthrough(kv):
    assert kv.in_transaction is False
    cur = kv.cursor()
    cur.execute("SELECT v FROM kv WHERE k = ?", (1,))
    assert kv.in_transaction is True
    kv.commit()


# -- the cursor is the engine cursor ------------------------------------------


def test_cursor_attributes_match_a_bare_cursor(kv, db):
    kv.cursor().executemany("INSERT INTO kv VALUES (?, ?)",
                            [(k, k) for k in range(2, 9)])
    kv.commit()
    bare = connect(db)
    sql = "SELECT k, v FROM kv ORDER BY k"
    cursors = [kv.cursor(), bare.cursor()]
    for cur in cursors:
        cur.arraysize = 5
        cur.execute(sql)
    faulting, plain = cursors
    assert faulting.description == plain.description \
        == [(name, None, None, None, None, None, None) for name in "kv"]
    assert faulting.rowcount == plain.rowcount == 8
    # The arraysize written on the faulting cursor is the one fetchmany
    # reads, as on the bare cursor.
    assert len(faulting.fetchmany()) == len(plain.fetchmany()) == 5
    assert faulting.fetchall() == plain.fetchall()
    kv.commit()
    bare.commit()
    for cur in cursors:
        cur.execute("UPDATE kv SET v = v + 1 WHERE k > ?", (4,))
        assert cur.rowcount == 4
        assert cur.description is None
        cur.connection.rollback()
    for cur in cursors:
        cur.close()
        with pytest.raises(InterfaceError):
            cur.fetchone()
        with pytest.raises(InterfaceError):
            cur.execute("SELECT v FROM kv")
    bare.close()


def test_armed_plan_fires_at_its_statement_index(kv):
    cur = kv.cursor()
    cur.execute("SELECT v FROM kv WHERE k = ?", (1,))  # not counted: unarmed
    kv.arm(_plan(KIND_ABORT, at_statement=2))
    cur.execute("SELECT v FROM kv WHERE k = ?", (1,))  # statement 0
    cur.executemany("UPDATE kv SET v = ? WHERE k = ?",
                    [(5, 1), (6, 1)])  # statement 1: one boundary
    with pytest.raises(InjectedAbort):
        cur.execute("SELECT v FROM kv WHERE k = ?", (1,))  # statement 2
    kv.arm(None)
    cur.execute("SELECT v FROM kv WHERE k = ?", (1,))
    assert cur.fetchone() == (0,)
    kv.commit()


def test_dropped_connection_refuses_statements(kv):
    cur = kv.cursor()
    kv.arm(_plan(KIND_DISCONNECT))
    with pytest.raises(InjectedDisconnect):
        cur.execute("SELECT v FROM kv WHERE k = ?", (1,))
    # The plan is spent, yet the drop sticks for every statement.
    for run in (lambda: cur.execute("SELECT v FROM kv WHERE k = ?", (1,)),
                lambda: cur.executemany("SELECT v FROM kv WHERE k = ?",
                                        [(1,)]),
                kv.commit):
        with pytest.raises(InjectedDisconnect):
            run()
    kv.rollback()
    kv.reconnect()
    cur.execute("SELECT v FROM kv WHERE k = ?", (1,))
    assert cur.fetchone() == (0,)
    kv.commit()


# -- the statement path ---------------------------------------------------------

#: Python-level calls of one warm primary-key SELECT plus its fetchone
#: through the worker's connection wrapper: cursor, plan-cache hit,
#: Database.execute_prepared, executor, probe, visibility read, lock,
#: projection.  A new hop on this path fails here.
POINT_SELECT_CALLS = 21


@pytest.mark.lockwatch_exempt  # instrumented locks add Python calls
def test_point_select_call_budget(kv):
    sql = "SELECT v FROM kv WHERE k = ?"
    cur = kv.cursor()
    for _ in range(3):  # warm: plan cached, row lock held
        cur.execute(sql, (1,))
        cur.fetchone()
    calls = []

    def profile(frame, event, _arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        cur.execute(sql, (1,))
        row = cur.fetchone()
    finally:
        sys.setprofile(None)
    kv.commit()
    assert row == (0,)
    assert len(calls) <= POINT_SELECT_CALLS, calls


@pytest.mark.parametrize("wrap", [False, True], ids=["bare", "faulting"])
def test_cursor_reaches_each_traced_entry_once(db, monkeypatch, wrap):
    """Tracers wrap these methods on their classes; a statement, commit
    or lock passes through each exactly once."""
    setup = connect(db)
    setup.cursor().execute(
        "CREATE TABLE kv (k INT PRIMARY KEY, v INT NOT NULL)")
    setup.cursor().executemany("INSERT INTO kv VALUES (?, ?)",
                               [(k, 0) for k in range(4)])
    setup.commit()
    seen = collections.Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            seen[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(Database, "execute_prepared")
    count(Database, "commit")
    count(LockManager, "acquire")
    conn = connect(db)
    if wrap:
        conn = FaultingConnection(conn)
    cur = conn.cursor()
    granted = db.lock_manager.stats.acquisitions
    cur.execute("SELECT v FROM kv WHERE k = ?", (1,))  # one row lock
    cur.execute("UPDATE kv SET v = 1 WHERE k = ?", (2,))  # one row lock
    cur.execute("SELECT v FROM kv WHERE k < ?", (1,))  # one row lock
    assert cur.fetchall() == [(0,)]
    conn.commit()
    assert db.lock_manager.stats.acquisitions - granted == 3
    assert seen == {"execute_prepared": 3, "commit": 1, "acquire": 3}
    conn.close()
    setup.close()
