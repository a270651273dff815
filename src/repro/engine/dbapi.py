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
        if self._txn is not None and self._txn.active:
            try:
                self.last_txn_stats = self._txn.stats
                self._db.commit(self._txn)
            finally:
                self._txn = None
        else:
            self._txn = None

    def rollback(self) -> None:
        self._check_open()
        if self._txn is not None and self._txn.active:
            self.last_txn_stats = self._txn.stats
            self._db.rollback(self._txn)
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

    def _ensure_txn(self) -> Transaction:
        if self._txn is None or not self._txn.active:
            self._txn = self._db.begin(self.isolation)
        return self._txn

    def _prepare(self, sql: str):
        self._check_open()
        return self._db.prepare_exec(sql)

    def _execute(self, sql: str, params: Sequence[object]):
        self._check_open()
        return self._execute_prepared(self._db.prepare_exec(sql), params)

    def _execute_prepared(self, prepared, params: Sequence[object]):
        if prepared.is_ddl:
            if self._txn is not None and self._txn.active:
                raise ProgrammingError(
                    "DDL is not allowed inside an open transaction")
            return self._db.execute_prepared(None, prepared, params)
        txn = self._ensure_txn()
        try:
            result = self._db.execute_prepared(txn, prepared, params)
        except OperationalError:
            # Engine-initiated aborts (deadlock, timeout, serialization)
            # leave the transaction dead; roll back so the next statement
            # starts fresh, mirroring JDBC driver behaviour.
            self.rollback()
            raise
        if self.autocommit:
            self.commit()
        return result


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
        self._check_open()
        if isinstance(params, (str, bytes)):
            raise ProgrammingError("params must be a sequence, not a string")
        result = self.connection._execute(sql, tuple(params))
        self._load(result)
        return self

    def executemany(self, sql: str,
                    seq_of_params: Sequence[Sequence[object]]) -> "Cursor":
        """Prepare/plan once, then loop executions over the parameters.

        Per-item transaction semantics are identical to calling
        :meth:`execute` in a loop (autocommit commits each item;
        engine aborts roll back); only the per-item parse/plan work
        is hoisted out.
        """
        self._check_open()
        prepared = self.connection._prepare(sql)
        total = 0
        for params in seq_of_params:
            if isinstance(params, (str, bytes)):
                raise ProgrammingError(
                    "params must be a sequence, not a string")
            self._check_open()
            result = self.connection._execute_prepared(prepared,
                                                       tuple(params))
            self._load(result)
            if self.rowcount > 0:
                total += self.rowcount
        self.rowcount = total
        return self

    def _load(self, result) -> None:
        self._rows = result.rows
        self._pos = 0
        self.rowcount = result.rowcount
        self._columns = result.columns

    @property
    def description(self) -> Optional[list[tuple]]:
        """One 7-tuple per result column; None when there are none."""
        if not self._columns:
            return None
        return [(name, None, None, None, None, None, None)
                for name in self._columns]

    # -- fetching -----------------------------------------------------------

    def fetchone(self) -> Optional[tuple]:
        self._check_open()
        if self._pos >= len(self._rows):
            return None
        row = self._rows[self._pos]
        self._pos += 1
        return row

    def fetchmany(self, size: Optional[int] = None) -> list[tuple]:
        self._check_open()
        if size is None:
            size = self.arraysize
        chunk = self._rows[self._pos:self._pos + size]
        self._pos += len(chunk)
        return chunk

    def fetchall(self) -> list[tuple]:
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
        if self._closed:
            raise InterfaceError("cursor is closed")
        self.connection._check_open()
