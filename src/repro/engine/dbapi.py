"""PEP 249 (DB-API 2.0) driver for the in-memory engine.

Benchmark transaction code talks to the engine exactly the way OLTP-Bench's
Java procedures talk to JDBC: open a connection, execute parameterised
statements with ``?`` markers, then commit or roll back.

    conn = connect(db)
    cur = conn.cursor()
    cur.execute("SELECT bal FROM accounts WHERE id = ?", (42,))
    row = cur.fetchone()
    conn.commit()

Transactions begin implicitly at the first statement.  ``autocommit`` mode
is available for loaders and ad-hoc queries.
"""

from __future__ import annotations

from collections.abc import Mapping, Set as AbstractSet
from typing import Iterator, Optional, Sequence

from ..errors import (
    DatabaseError, DataError, Error, IntegrityError, InterfaceError,
    InternalError, NotSupportedError, OperationalError, ProgrammingError,
    Warning,
)
from .database import Database
from .txn import SERIALIZABLE, SNAPSHOT, Transaction

apilevel = "2.0"
threadsafety = 2  # threads may share the module and connections' Database
paramstyle = "qmark"

__all__ = [
    "connect", "Connection", "Cursor", "apilevel", "threadsafety",
    "paramstyle", "Warning", "Error", "InterfaceError", "DatabaseError",
    "DataError", "OperationalError", "IntegrityError", "InternalError",
    "ProgrammingError", "NotSupportedError",
]


def connect(database: Database, isolation: str = SERIALIZABLE,
            autocommit: bool = False) -> "Connection":
    """Open a connection to an engine :class:`Database` instance."""
    return Connection(database, isolation, autocommit)


class Connection:
    """One client session; not safe for concurrent use by many threads."""

    def __init__(self, database: Database, isolation: str = SERIALIZABLE,
                 autocommit: bool = False) -> None:
        if isolation not in (SERIALIZABLE, SNAPSHOT):
            raise NotSupportedError(
                f"isolation must be {SERIALIZABLE!r} or {SNAPSHOT!r}")
        self._db = database
        self.isolation = isolation
        self.autocommit = autocommit
        self._txn: Optional[Transaction] = None
        self._closed = False
        #: Read/write footprint of the most recently finished transaction;
        #: the simulated executor feeds this to the DBMS personality model.
        self.last_txn_stats = None

    # -- PEP 249 interface ---------------------------------------------------

    def cursor(self) -> "Cursor":
        self._check_open()
        return Cursor(self)

    def commit(self) -> None:
        self._check_open()
        txn = self._txn
        if txn is not None and txn.active:
            try:
                self.last_txn_stats = txn.stats
                self._db.commit(txn)
            finally:
                self._txn = None
        else:
            self._txn = None

    def rollback(self) -> None:
        self._check_open()
        txn = self._txn
        if txn is not None and txn.active:
            self.last_txn_stats = txn.stats
            self._db.rollback(txn)
        self._txn = None

    def close(self) -> None:
        if not self._closed:
            if self._txn is not None and self._txn.active:
                self._db.rollback(self._txn)
            self._txn = None
            self._closed = True

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is None:
            try:
                self.commit()
            finally:
                self.close()
        else:
            self.close()

    # -- internals ------------------------------------------------------------

    @property
    def database(self) -> Database:
        return self._db

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None and self._txn.active

    @property
    def transaction(self) -> Optional[Transaction]:
        return self._txn

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("connection is closed")


def _param_tuple(params: object) -> tuple:
    """``params`` as a tuple; refused, as sqlite3 refuses it, when it is
    a string, a mapping or a set (whose order is arbitrary)."""
    if isinstance(params, (str, bytes)):
        raise ProgrammingError("params must be a sequence, not a string")
    if isinstance(params, (Mapping, AbstractSet)):
        raise ProgrammingError(
            f"params must be a sequence, not a {type(params).__name__}")
    return tuple(params)


class Cursor:
    """PEP 249 cursor over a connection."""

    arraysize = 1

    def __init__(self, connection: Connection) -> None:
        self.connection = connection
        self._rows: list[tuple] = []
        self._pos = 0
        self._columns: list[str] = []
        self.rowcount = -1
        self._closed = False

    # -- execution --------------------------------------------------------

    def execute(self, sql: str, params: Sequence[object] = ()) -> "Cursor":
        """Run one statement: a warm one is a plan-cache hit and one
        :meth:`Database.execute_prepared` call.

        The parameters must match the statement's ``?`` markers in
        number (:meth:`Database.execute_prepared` checks).  A planned
        statement opens the connection's transaction if none is open;
        DDL runs outside any transaction.
        """
        conn = self.connection
        if self._closed or conn._closed:
            self._check_open()
        db = conn._db
        prepared = db.prepare_exec(sql)
        if type(params) is not tuple:
            params = _param_tuple(params)
        if prepared.plan is None:
            # DDL, or transaction control, which execute_prepared refuses.
            if prepared.is_ddl and conn.in_transaction:
                raise ProgrammingError(
                    "DDL is not allowed inside an open transaction")
            result = db.execute_prepared(None, prepared, params)
        else:
            txn = conn._txn
            if txn is None or not txn.active:
                txn = conn._txn = db.begin(conn.isolation)
            try:
                result = db.execute_prepared(txn, prepared, params)
            except OperationalError:
                # Engine-initiated aborts (deadlock, timeout,
                # serialization) leave the transaction dead; roll back so
                # the next statement starts fresh, as JDBC drivers do.
                conn.rollback()
                raise
            if conn.autocommit:
                conn.commit()
        self._rows = result.rows
        self._pos = 0
        self.rowcount = result.rowcount
        self._columns = result.columns
        return self

    def executemany(self, sql: str,
                    seq_of_params: Sequence[Sequence[object]]) -> "Cursor":
        """Run ``sql`` once per parameter sequence, each run as
        :meth:`execute` runs it (autocommit commits each; an engine abort
        rolls back); ``rowcount`` is the total.

        The statement is planned once: later runs hit the plan cache.
        """
        if self._closed or self.connection._closed:
            self._check_open()
        # This class's execute, not an override: a subclass that wraps
        # execute sees one executemany call as one statement.
        execute = Cursor.execute
        total = 0
        for params in seq_of_params:
            execute(self, sql, params)
            if self.rowcount > 0:
                total += self.rowcount
        self.rowcount = total
        return self

    @property
    def description(self) -> Optional[list[tuple]]:
        """One 7-tuple per result column; None when there are none."""
        if not self._columns:
            return None
        return [(name, None, None, None, None, None, None)
                for name in self._columns]

    # -- fetching -----------------------------------------------------------

    def fetchone(self) -> Optional[tuple]:
        if self._closed or self.connection._closed:
            self._check_open()
        pos = self._pos
        rows = self._rows
        if pos >= len(rows):
            return None
        self._pos = pos + 1
        return rows[pos]

    def fetchmany(self, size: Optional[int] = None) -> list[tuple]:
        if self._closed or self.connection._closed:
            self._check_open()
        if size is None:
            size = self.arraysize
        chunk = self._rows[self._pos:self._pos + size]
        self._pos += len(chunk)
        return chunk

    def fetchall(self) -> list[tuple]:
        if self._closed or self.connection._closed:
            self._check_open()
        remaining = self._rows[self._pos:]
        self._pos = len(self._rows)
        return remaining

    def __iter__(self) -> Iterator[tuple]:
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    # -- misc ------------------------------------------------------------------

    def close(self) -> None:
        self._closed = True
        self._rows = []

    def setinputsizes(self, sizes) -> None:  # noqa: D102 - PEP 249 no-op
        pass

    def setoutputsize(self, size, column=None) -> None:  # noqa: D102
        pass

    def _check_open(self) -> None:
        """Raise if the cursor or its connection is closed; the hot
        paths test both flags inline and call this only to raise."""
        if self._closed:
            raise InterfaceError("cursor is closed")
        self.connection._check_open()
