"""The database facade: catalog + storage + concurrency + SQL front end.

A :class:`Database` is the in-process stand-in for a DBMS server instance.
Connections from the DB-API layer share its catalog, row storage, lock
manager, and transaction manager — exactly the role a MySQL or PostgreSQL
server plays for OLTP-Bench's JDBC workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import IntegrityError, ProgrammingError
from .catalog import Catalog, ColumnDef, IndexDef, TableSchema
from .executor import Executor, Result
from .plan import PlanCache, compile_statement, row_finalizer
from .sqlparser import ast, parse
from .storage import TableData
from .txn import SERIALIZABLE, Transaction, TransactionManager
from .locks import LockManager
from .types import SqlType


@dataclass
class EngineCounters:
    """Server-side activity counters, the dstat analogue for monitoring."""

    rows_read: int = 0
    rows_inserted: int = 0
    rows_updated: int = 0
    rows_deleted: int = 0
    statements: int = 0
    plan_executions: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "rows_read": self.rows_read,
            "rows_inserted": self.rows_inserted,
            "rows_updated": self.rows_updated,
            "rows_deleted": self.rows_deleted,
            "statements": self.statements,
            "plan_executions": self.plan_executions,
        }


#: Statements that compile to a plan; the rest are DDL or control.
_PLANNED = (ast.Select, ast.Insert, ast.Update, ast.Delete)


class PreparedStatement:
    """A parsed statement plus its compiled plan (None for DDL/control).

    Produced by :meth:`Database.prepare_exec`, which keeps the planned
    ones in the plan cache.  ``n_params`` is the number of ``?`` markers,
    which :meth:`Database.execute_prepared` checks the parameters
    against.
    """

    __slots__ = ("sql", "stmt", "plan", "is_ddl", "is_control", "n_params")

    def __init__(self, sql: str, stmt: ast.Statement, plan: object) -> None:
        self.sql = sql
        self.stmt = stmt
        self.plan = plan
        self.is_ddl = isinstance(
            stmt, (ast.CreateTable, ast.CreateIndex, ast.DropTable))
        self.is_control = isinstance(stmt, ast.TransactionControl)
        self.n_params = ast.count_params(stmt)


def _count_error(expected: int, got: int) -> ProgrammingError:
    if got < expected:
        return ProgrammingError(
            f"statement expects at least {expected} parameters, got {got}")
    return ProgrammingError(
        f"statement expects {expected} parameters, got {got}")


class Database:
    """One logical database instance shared by many connections."""

    def __init__(self, name: str = "main", clock=None) -> None:
        self.name = name
        self.catalog = Catalog()
        # ``clock`` (a repro.clock.Clock or monotonic callable) feeds the
        # lock manager's wait deadlines; injected so simulated databases
        # never consult the wall clock.
        self.lock_manager = LockManager(clock=clock)
        self.txn_manager = TransactionManager()
        #: The storage latch (the transaction manager's).
        self.latch = self.txn_manager.latch
        self.counters = EngineCounters()
        self._tables: dict[str, TableData] = {}
        self._executor = Executor(self)
        self.plan_cache = PlanCache()

    # -- storage access ----------------------------------------------------

    def table_data(self, name: str) -> TableData:
        try:
            return self._tables[name]
        except KeyError:
            raise ProgrammingError(f"no table named {name!r}") from None

    def table_names(self) -> list[str]:
        return self.catalog.table_names()

    def row_count(self, table: str) -> int:
        with self.latch:
            return self.table_data(table).count_live()

    # -- SQL front end -------------------------------------------------------

    def prepare_exec(self, sql: str) -> PreparedStatement:
        """Parse and plan ``sql`` once; a warm call is one cache hit.

        The plan cache holds the whole :class:`PreparedStatement` keyed
        by ``(sql, catalog_version)``, so statements prepared before a
        DDL statement can never be served after it.  Only a miss parses
        and compiles.  DDL and
        transaction-control statements carry no plan and are not held
        in the plan cache.
        """
        key = (sql, self.catalog.version)
        prepared = self.plan_cache.get(key)
        if prepared is not None:
            return prepared
        stmt = parse(sql)
        if not isinstance(stmt, _PLANNED):
            return PreparedStatement(sql, stmt, None)
        self.plan_cache.count_miss()
        # Semantic ProgrammingErrors propagate uncached.
        prepared = PreparedStatement(sql, stmt,
                                     compile_statement(stmt, self.catalog))
        self.plan_cache.put(key, prepared)
        return prepared

    def execute(self, txn: Optional[Transaction], sql: str,
                params: Sequence[object] = ()) -> Result:
        """Execute ``sql``; DDL runs outside any transaction."""
        return self.execute_prepared(txn, self.prepare_exec(sql), params)

    def execute_prepared(self, txn: Optional[Transaction],
                         prepared: PreparedStatement,
                         params: Sequence[object] = ()) -> Result:
        """Run a prepared statement; every execution path lands here, so
        this is where the parameter count is checked."""
        if len(params) != prepared.n_params:
            raise _count_error(prepared.n_params, len(params))
        self.counters.statements += 1
        if prepared.is_ddl:
            return self._execute_ddl(prepared.stmt)
        if prepared.is_control:
            raise ProgrammingError(
                "use the connection's commit()/rollback() methods")
        if txn is None or not txn.active:
            raise ProgrammingError("no active transaction")
        self.counters.plan_executions += 1
        return self._executor.execute(txn, prepared.plan, params)

    # -- transactions ---------------------------------------------------------

    def begin(self, isolation: str = SERIALIZABLE) -> Transaction:
        return self.txn_manager.begin(isolation)

    def commit(self, txn: Transaction) -> None:
        try:
            self.txn_manager.commit(txn, self._tables)
        except Exception:
            self.txn_manager.rollback(txn)
            self.lock_manager.release_all(txn)
            raise
        self.lock_manager.release_all(txn)

    def rollback(self, txn: Transaction) -> None:
        self.txn_manager.rollback(txn)
        self.lock_manager.release_all(txn)

    # -- DDL ----------------------------------------------------------------

    def _execute_ddl(self, stmt: ast.Statement) -> Result:
        version_before = self.catalog.version
        with self.latch:
            if isinstance(stmt, ast.CreateTable):
                self._create_table(stmt)
            elif isinstance(stmt, ast.CreateIndex):
                self._create_index(stmt)
            elif isinstance(stmt, ast.DropTable):
                self._drop_table(stmt)
        if self.catalog.version != version_before:
            # The version key already strands old plans; drop them
            # eagerly so the cache carries no dead entries.
            self.plan_cache.invalidate_all()
        return Result(rowcount=0)

    def _create_table(self, stmt: ast.CreateTable) -> None:
        if self.catalog.has(stmt.name):
            if stmt.if_not_exists:
                return
            raise ProgrammingError(f"table {stmt.name!r} already exists")
        columns = []
        for col in stmt.columns:
            default = None
            has_default = col.default is not None
            if has_default:
                if not isinstance(col.default, ast.Literal):
                    raise ProgrammingError(
                        "only literal DEFAULT values are supported")
                default = col.default.value
            columns.append(ColumnDef(
                name=col.name,
                sql_type=SqlType(col.type_name, col.type_args),
                not_null=col.not_null,
                default=default,
                has_default=has_default,
            ))
        schema = TableSchema(stmt.name, tuple(columns), stmt.primary_key,
                             foreign_keys=stmt.foreign_keys)
        self.catalog.create_table(schema)
        self._tables[stmt.name] = TableData(schema)

    def _create_index(self, stmt: ast.CreateIndex) -> None:
        index = IndexDef(stmt.name, stmt.table, stmt.columns, stmt.unique)
        self.catalog.add_index(index)
        self.table_data(stmt.table).add_index(index)

    def _drop_table(self, stmt: ast.DropTable) -> None:
        if not self.catalog.has(stmt.name):
            if stmt.if_exists:
                return
            raise ProgrammingError(f"no table named {stmt.name!r}")
        self.catalog.drop_table(stmt.name)
        del self._tables[stmt.name]

    # -- bulk load (loader fast path) ------------------------------------------

    def bulk_insert(self, table: str, rows: list[tuple]) -> int:
        """Insert rows directly, bypassing SQL and locking.

        Loaders and dump restores use this to populate tables quickly.
        Each row is finalized as an INSERT finalizes it (coercion, NOT
        NULL, no NULL in the primary key), and its primary key must be
        new.  The batch is all or nothing: when a row fails, its
        transaction rolls back and the table is left unchanged.
        """
        schema = self.catalog.get(table)
        data = self.table_data(table)
        finalize = row_finalizer(schema)
        width = len(schema.columns)
        pk_key = schema.pk_key if schema.primary_key else None
        with self.latch:
            txn = self.txn_manager.begin(SERIALIZABLE)
            try:
                keys: set[tuple] = set()
                for raw in rows:
                    if len(raw) != width:
                        raise ProgrammingError(
                            f"bulk insert into {table!r} expects "
                            f"{width} values, got {len(raw)}")
                    row = finalize(list(raw))
                    if pk_key is not None:
                        # Checked before commit, which would stop
                        # half-way through the batch.
                        key = pk_key(row)
                        if (key in keys
                                or data.pk_lookup_latest(key) is not None):
                            raise IntegrityError(
                                f"duplicate primary key {key!r} "
                                f"in {table!r}")
                        keys.add(key)
                    txn.buffer_insert(table, data.new_rowid(), row)
                self.txn_manager.commit(txn, self._tables)
            except BaseException:
                self.txn_manager.rollback(txn)
                raise
        self.lock_manager.release_all(txn)
        self.counters.rows_inserted += len(rows)
        return len(rows)

    # -- statistics -------------------------------------------------------------

    def cache_stats(self) -> dict[str, object]:
        """Plan cache health for the monitoring stack."""
        return {
            "plan_cache": self.plan_cache.snapshot(),
            "catalog_version": self.catalog.version,
        }

    def stats(self) -> dict[str, object]:
        with self.latch:
            table_stats = {
                name: self._tables[name].count_live()
                for name in self.catalog.table_names()
            }
        return {
            "name": self.name,
            "tables": table_stats,
            "counters": self.counters.snapshot(),
            "locks": self.lock_manager.stats.snapshot(),
            "caches": self.cache_stats(),
            "committed": self.txn_manager.committed,
            "aborted": self.txn_manager.aborted,
        }
