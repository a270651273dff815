"""Transactions: private workspaces, snapshots, and commit validation.

A transaction buffers all of its writes in a private workspace and applies
them atomically at commit under the database's structural latch.  Two
isolation levels are offered, matching what the OLTP-Bench benchmarks need:

* ``serializable`` — strict two-phase locking.  Readers take shared row
  locks, writers exclusive ones, all held to commit/rollback.  Reads see
  the latest committed version (safe under 2PL).
* ``snapshot`` — snapshot isolation.  Reads see the database as of the
  transaction's begin timestamp without locking; writes are validated with
  first-committer-wins at commit (:class:`SerializationError` on conflict).
  This is what SIBench exercises: SI permits write skew, 2PL does not.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Optional

from ..errors import IntegrityError, ProgrammingError, SerializationError
from .storage import READ_LATEST, TableData

SERIALIZABLE = "serializable"
SNAPSHOT = "snapshot"

INSERT = "insert"
UPDATE = "update"
DELETE = "delete"


@dataclass
class WriteOp:
    """A buffered write against one row."""

    kind: str  # insert | update | delete
    values: Optional[tuple]  # None for delete


@dataclass
class TxnStats:
    rows_read: int = 0
    rows_written: int = 0
    rows_inserted: int = 0
    rows_deleted: int = 0
    index_lookups: int = 0
    full_scans: int = 0
    #: Candidate rows whose visible version a scan read: what an access
    #: path costs, where ``rows_read`` counts only the rows it returned.
    rows_examined: int = 0

    @property
    def write_footprint(self) -> int:
        return self.rows_written + self.rows_inserted + self.rows_deleted


class Transaction:
    """Execution context for one in-flight transaction."""

    _ids = itertools.count(1)

    def __init__(self, isolation: str, snapshot_ts: float) -> None:
        if isolation not in (SERIALIZABLE, SNAPSHOT):
            raise ProgrammingError(f"unknown isolation level {isolation!r}")
        self.txn_id = next(self._ids)
        self.isolation = isolation
        self.snapshot_ts = snapshot_ts
        self.active = True
        # (table name, rowid) -> WriteOp; insertion order preserved so that
        # commit application replays writes deterministically.
        self.workspace: dict[tuple[str, int], WriteOp] = {}
        # table -> rowids the committed indexes cannot find under their
        # workspace values: this txn's inserts and its updates of indexed
        # columns.  Every scan adds them to its candidates.
        self.unindexed: dict[str, set[int]] = {}
        self.stats = TxnStats()

    # -- workspace helpers -------------------------------------------------

    def pending_write(self, table: str, rowid: int) -> Optional[WriteOp]:
        return self.workspace.get((table, rowid))

    def buffer_insert(self, table: str, rowid: int, values: tuple) -> None:
        self.workspace[(table, rowid)] = WriteOp(INSERT, values)
        self.unindexed.setdefault(table, set()).add(rowid)
        self.stats.rows_inserted += 1

    def buffer_update(self, table: str, rowid: int, values: tuple,
                      rekeyed: bool = False) -> None:
        """Buffer new values; ``rekeyed`` when an indexed column changed."""
        existing = self.workspace.get((table, rowid))
        if existing is not None and existing.kind == INSERT:
            existing.values = values
        else:
            self.workspace[(table, rowid)] = WriteOp(UPDATE, values)
            if rekeyed:
                self.unindexed.setdefault(table, set()).add(rowid)
        self.stats.rows_written += 1

    def buffer_delete(self, table: str, rowid: int) -> None:
        existing = self.workspace.get((table, rowid))
        if existing is not None and existing.kind == INSERT:
            # Inserting then deleting inside one txn cancels out.
            del self.workspace[(table, rowid)]
            self.unindexed.get(table, set()).discard(rowid)
        else:
            self.workspace[(table, rowid)] = WriteOp(DELETE, None)
        self.stats.rows_deleted += 1

    def effective_values(self, table: str, data: TableData,
                         rowid: int) -> Optional[tuple]:
        """Row values as this transaction sees them (workspace overlay);
        None when the row is deleted or not visible to it."""
        pending = self.workspace.get((table, rowid))
        if pending is not None:
            return pending.values
        return data.visible_values(rowid, self.snapshot_ts)

    @property
    def read_only(self) -> bool:
        return not self.workspace

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Transaction {self.txn_id} {self.isolation}>"


class TransactionManager:
    """Issues begin/commit timestamps and applies commit workspaces."""

    PRUNE_INTERVAL = 256

    def __init__(self) -> None:
        #: The structural latch guarding storage and this manager.
        self.latch = threading.RLock()
        self._commit_counter = itertools.count(1)
        #: Timestamp of the newest commit, set under the latch before that
        #: commit applies any write.  It doubles as the commit sequence:
        #: a reader that sees it unchanged since a read under the latch
        #: knows no committed version has changed in between.
        self.last_commit_ts = 0.0
        self._active_snapshots: dict[int, float] = {}
        self._commits_since_prune = 0
        self.committed = 0
        self.aborted = 0

    def begin(self, isolation: str) -> Transaction:
        with self.latch:
            snapshot_ts = (self.last_commit_ts if isolation == SNAPSHOT
                           else READ_LATEST)
            txn = Transaction(isolation, snapshot_ts)
            if isolation == SNAPSHOT:
                self._active_snapshots[txn.txn_id] = snapshot_ts
            return txn

    def commit(self, txn: Transaction,
               tables: dict[str, TableData]) -> float:
        """Validate and apply ``txn``'s workspace; returns the commit ts.

        Raises :class:`SerializationError` for snapshot-isolation conflicts
        and :class:`IntegrityError` for a primary key another transaction
        committed first.  Both are found before the first write is applied
        and before the commit sequence moves, so a failed commit changes
        nothing and the caller can roll back cleanly.
        """
        with self.latch:
            if not txn.active:
                raise ProgrammingError("transaction is not active")
            if txn.isolation == SNAPSHOT:
                self._validate_snapshot(txn, tables)
            else:
                self._check_insert_keys(txn, tables)
            commit_ts = float(next(self._commit_counter))
            self.last_commit_ts = commit_ts
            for (table_name, rowid), op in txn.workspace.items():
                data = tables[table_name]
                if op.kind == INSERT:
                    data.apply_insert(rowid, op.values, commit_ts)
                elif op.kind == UPDATE:
                    data.apply_update(rowid, op.values, commit_ts)
                else:
                    data.apply_delete(rowid, commit_ts)
            self._finish(txn)
            self.committed += 1
            self._commits_since_prune += 1
            if self._commits_since_prune >= self.PRUNE_INTERVAL:
                self._commits_since_prune = 0
                self._prune(tables)
            return commit_ts

    def rollback(self, txn: Transaction) -> None:
        with self.latch:
            if txn.active:
                txn.workspace.clear()
                txn.unindexed.clear()
                self._finish(txn)
                self.aborted += 1

    def _finish(self, txn: Transaction) -> None:
        txn.active = False
        self._active_snapshots.pop(txn.txn_id, None)

    def _validate_snapshot(self, txn: Transaction,
                           tables: dict[str, TableData]) -> None:
        """First-committer-wins: abort if any touched row moved on."""
        for (table_name, rowid), op in txn.workspace.items():
            if op.kind == INSERT:
                # Another committer may have claimed the same primary key.
                key = _claimed_key(txn, tables, table_name, rowid, op)
                if key is not None:
                    raise SerializationError(
                        f"concurrent insert of key {key!r} "
                        f"into {table_name!r}")
                continue
            latest_ts = tables[table_name].latest_begin_ts(rowid)
            if latest_ts is not None and latest_ts > txn.snapshot_ts:
                raise SerializationError(
                    f"write-write conflict on {table_name!r} row {rowid}")

    def _check_insert_keys(self, txn: Transaction,
                           tables: dict[str, TableData]) -> None:
        """No insert may take a primary key live in the latest committed
        state, unless this transaction deletes or rekeys that row first.

        The executor checked each key against the transaction's own view,
        but a snapshot writer or a bulk load takes no key lock and may
        have committed the key since.  (Snapshot transactions get the
        same check from :meth:`_validate_snapshot`.)
        """
        for (table_name, rowid), op in txn.workspace.items():
            if op.kind != INSERT:
                continue
            key = _claimed_key(txn, tables, table_name, rowid, op)
            if key is not None:
                raise IntegrityError(
                    f"duplicate primary key {key!r} in {table_name!r}")

    def min_active_snapshot(self) -> float:
        with self.latch:
            if not self._active_snapshots:
                return READ_LATEST
            return min(self._active_snapshots.values())

    def _prune(self, tables: dict[str, TableData]) -> None:
        horizon = self.min_active_snapshot()
        for data in tables.values():
            data.prune(horizon)


def _claimed_key(txn: Transaction, tables: dict[str, TableData],
                 table_name: str, rowid: int,
                 op: WriteOp) -> Optional[tuple]:
    """The primary key ``txn``'s insert of ``rowid`` takes when another row
    holds it in the latest committed state, else ``None``.

    A holder that ``txn`` itself deletes or rekeys frees the key, so it
    does not count: deleting a row and inserting its key again is legal.
    """
    schema = tables[table_name].schema
    if not schema.primary_key or op.values is None:
        return None
    key = schema.pk_key(op.values)
    holder = tables[table_name].pk_lookup_latest(key)
    if holder is None or holder == rowid:
        return None
    own = txn.workspace.get((table_name, holder))
    if own is not None and (own.values is None
                            or schema.pk_key(own.values) != key):
        return None
    return key
