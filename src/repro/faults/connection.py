"""A DB-API connection proxy that fires injected faults mid-transaction.

:class:`FaultingConnection` wraps a real
:class:`repro.engine.dbapi.Connection`.  The executor's retry loop arms
it with one :class:`~repro.faults.injector.FaultPlan` per transaction
attempt; the wrapper then counts statement boundaries and fires the
fault *instead of* the planned statement (or at commit, when the
transaction is shorter than the planned index) — exactly where a real
engine abort, lock timeout, or connection drop would surface.  Firing
rolls the underlying transaction back first, so engine locks are
released the way a server-side abort releases them.

A fired disconnect leaves the connection *dropped*: every subsequent
operation raises :class:`~repro.errors.InjectedDisconnect` until the
retry loop acknowledges the drop with :meth:`reconnect`.

Its cursors are engine cursors that override only ``execute`` and
``executemany``: fetches, ``rowcount``, ``description`` and ``arraysize``
are the engine cursor's own.  While no plan is armed and the connection
is not dropped, a statement costs one flag test over the bare cursor;
the statement count restarts at every :meth:`FaultingConnection.arm`, so
it is kept only while a plan is armed.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..engine.dbapi import Cursor
from ..errors import (InjectedAbort, InjectedDisconnect, InjectedLockTimeout)
from .injector import FaultPlan, KIND_ABORT, KIND_DISCONNECT, KIND_LOCK_TIMEOUT

#: Plan kinds the connection wrapper fires; latency spikes are handled by
#: the retry loop itself (they are waits, not errors).
CONNECTION_FAULT_KINDS = (KIND_ABORT, KIND_LOCK_TIMEOUT, KIND_DISCONNECT)


class FaultingConnection:
    """Transparent proxy over a Connection with statement-boundary faults."""

    def __init__(self, conn) -> None:
        self._conn = conn
        self._plan: Optional[FaultPlan] = None
        self._statements = 0
        self._dropped = False

    # -- arming (called by the retry loop, one plan per attempt) ------------

    def arm(self, plan: Optional[FaultPlan]) -> None:
        if plan is not None and plan.kind not in CONNECTION_FAULT_KINDS:
            raise ValueError(f"connection cannot fire {plan.kind!r} faults")
        self._plan = plan
        self._statements = 0

    @property
    def dropped(self) -> bool:
        return self._dropped

    def reconnect(self) -> None:
        """Acknowledge a fired disconnect and restore the session."""
        self._dropped = False
        self._plan = None

    # -- fault firing ---------------------------------------------------------

    def _fire(self, plan: FaultPlan) -> None:
        self._plan = None
        # A server-side failure aborts the open transaction: release the
        # engine's locks before surfacing the error to the worker.
        self._conn.rollback()
        if plan.kind == KIND_DISCONNECT:
            self._dropped = True
            raise InjectedDisconnect(
                f"injected connection drop during {plan.txn_name} "
                f"(attempt #{plan.index})")
        if plan.kind == KIND_LOCK_TIMEOUT:
            raise InjectedLockTimeout(
                f"injected lock timeout during {plan.txn_name} "
                f"(attempt #{plan.index})")
        raise InjectedAbort(
            f"injected transient abort during {plan.txn_name} "
            f"(attempt #{plan.index})")

    def _check_dropped(self) -> None:
        if self._dropped:
            raise InjectedDisconnect(
                "connection is dropped; reconnect before reusing it")

    def _statement_boundary(self) -> None:
        """Count one statement; fire the armed plan at its index.

        Called only while a plan is armed or the connection is dropped.
        """
        self._check_dropped()
        plan = self._plan
        if plan is not None and self._statements >= plan.at_statement:
            self._fire(plan)
        self._statements += 1

    # -- PEP 249 surface -----------------------------------------------------

    def cursor(self) -> "FaultingCursor":
        self._check_dropped()
        self._conn._check_open()
        return FaultingCursor(self._conn, self)

    def commit(self) -> None:
        self._check_dropped()
        plan = self._plan
        if plan is not None:
            # The transaction had fewer statements than the planned fire
            # index; a planned fault must still fire, so it fires here.
            self._fire(plan)
        self._conn.commit()

    def rollback(self) -> None:
        # Allowed even when dropped: the retry loop's failure handler
        # always rolls back, and the underlying transaction is already
        # dead by then (rollback of an inactive transaction is a no-op).
        self._conn.rollback()

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "FaultingConnection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Through this wrapper's commit, so a plan armed past the last
        # statement still fires (and a dropped connection still fails).
        try:
            if exc_type is None:
                self.commit()
            else:
                self.rollback()
        finally:
            self.close()

    # Checked once per transaction attempt: a direct delegation skips
    # the double getattr of the ``__getattr__`` fallback below.
    @property
    def in_transaction(self):
        return self._conn.in_transaction

    # Everything else (last_txn_stats, database, isolation, autocommit,
    # ...) reads straight through to the wrapped connection.
    def __getattr__(self, name: str):
        return getattr(self._conn, name)


class FaultingCursor(Cursor):
    """Engine cursor that reports statement boundaries to its owner."""

    def __init__(self, connection, owner: FaultingConnection) -> None:
        super().__init__(connection)
        self._owner = owner

    def execute(self, sql: str, params: Sequence[object] = ()
                ) -> "FaultingCursor":
        owner = self._owner
        if owner._plan is not None or owner._dropped:
            owner._statement_boundary()
        return Cursor.execute(self, sql, params)

    def executemany(self, sql: str,
                    seq_of_params: Sequence[Sequence[object]]
                    ) -> "FaultingCursor":
        owner = self._owner
        if owner._plan is not None or owner._dropped:
            owner._statement_boundary()
        return Cursor.executemany(self, sql, seq_of_params)
