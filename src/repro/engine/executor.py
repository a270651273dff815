"""Statement execution: runs the compiled plans of :mod:`repro.engine.plan`.

Every SELECT/INSERT/UPDATE/DELETE reaches the executor as a compiled
plan; there is one execution path per statement kind:

* each FROM-clause source gathers candidate rowids through the access
  path the planner chose (equality-index probe, ordered index walk, or
  full scan) and filters them with the compiled predicate closure; a
  probe checks a candidate's key against the probe key instead of
  re-running the conjuncts the key covers, and any other candidate
  (a stale index entry, the transaction's own row) takes the full filter;
* a walk that delivers a single-source SELECT's ORDER BY … LIMIT k
  OFFSET m reads rows in key order and stops after k + m qualifying
  rows, so it locks only those (and rows that failed to qualify);
* a one-table SELECT is one scan; joins are nested loops over source
  slots, so an inner source's index probe can key on the outer rows
  already bound;
* strict-2PL transactions acquire shared locks on qualifying rows
  (exclusive for ``FOR UPDATE`` and DML) and re-read a locked row only
  if a commit landed since the candidates were read; snapshot
  transactions read without locks;
* an INSERT locks its primary key, never its new rowid, which no other
  transaction can reach before commit;
* aggregation/grouping, DISTINCT, ORDER BY, and LIMIT/OFFSET are applied
  to the materialised row set; a one-table SELECT with none of them
  projects each row as its scan returns it.

Like most lightweight engines, predicate locks are not implemented, so
phantom protection is limited to primary-key locking on inserts; DESIGN.md
§9 ("Phantoms") says which locks each access path takes.
"""

from __future__ import annotations

from typing import Collection, Optional, Sequence, TYPE_CHECKING

from ..errors import IntegrityError, ProgrammingError
from .expr import is_true
from .locks import EXCLUSIVE, SHARED
from .plan import (CompiledAggregation, CompiledDelete, CompiledInsert,
                   CompiledSelect, CompiledSource, CompiledUpdate, IndexWalk,
                   LazyAggs)
from .storage import TOP
from .txn import SERIALIZABLE, Transaction

if TYPE_CHECKING:  # pragma: no cover
    from .database import Database


class Result:
    """Outcome of one statement execution."""

    __slots__ = ("rows", "columns", "rowcount")

    def __init__(self, rows: Optional[list[tuple]] = None,
                 columns: Optional[list[str]] = None,
                 rowcount: int = -1) -> None:
        self.rows = [] if rows is None else rows
        self.columns = [] if columns is None else columns
        self.rowcount = rowcount


class Executor:
    """Runs compiled plans against a database on behalf of a txn."""

    def __init__(self, db: "Database") -> None:
        self.db = db
        self._runners = {
            CompiledSelect: self._select_plan,
            CompiledInsert: self._insert_plan,
            CompiledUpdate: self._update_plan,
            CompiledDelete: self._delete_plan,
        }

    def execute(self, txn: Transaction, plan,
                params: Sequence[object]) -> Result:
        """Run a :mod:`repro.engine.plan` compiled plan."""
        runner = self._runners.get(type(plan))
        if runner is None:
            raise ProgrammingError(
                f"executor cannot handle plan {type(plan).__name__}")
        return runner(txn, plan, params)

    def _select_plan(self, txn: Transaction, plan: CompiledSelect,
                     params: Sequence[object]) -> Result:
        if plan.scalar:
            out = []
            if plan.where_fn is None or plan.where_fn((), params):
                out = _apply_plan_limit([plan.project_fn((), params)], plan,
                                        params)
            return Result(out, plan.columns, rowcount=len(out))
        lock_mode = EXCLUSIVE if plan.for_update else SHARED
        take_locks = (txn.isolation == SERIALIZABLE
                      or lock_mode == EXCLUSIVE)
        sources = plan.sources
        n_sources = len(sources)
        rows: list[Optional[tuple]] = [None] * n_sources

        plan_scan = self._plan_scan
        stop_after = None
        first_walk = sources[0].walk
        if first_walk is not None and first_walk.pushdown:
            stop_after = _limit_stop(plan, params)

        if n_sources == 1:
            # One table needs no join driver: the first source is
            # always an inner one, so it has no post filter either.
            scanned = plan_scan(txn, sources[0], rows, params, lock_mode,
                                take_locks, count_db_reads=True,
                                stop_after=stop_after)
            if plan.direct:
                # Nothing to group, sort, dedupe or cut: each scanned
                # row is projected as is.
                project = plan.project_fn
                out = []
                for _rowid, values in scanned:
                    rows[0] = values
                    out.append(project(rows, params))
                return Result(out, plan.columns, len(out))
            contexts = [(values,) for _rowid, values in scanned]
        else:
            contexts = []

            def recurse(level: int) -> None:
                if level == n_sources:
                    contexts.append(tuple(rows))
                    return
                source = sources[level]
                slot = source.slot
                post = source.post_filter
                matched = plan_scan(txn, source, rows, params, lock_mode,
                                    take_locks, count_db_reads=True,
                                    stop_after=stop_after)
                for _rowid, values in matched:
                    rows[slot] = values
                    if post is None or post(rows, params):
                        recurse(level + 1)
                if source.join_kind == "left" and not matched:
                    rows[slot] = None
                    if post is None or post(rows, params):
                        recurse(level + 1)
                rows[slot] = None

            recurse(0)

        if plan.aggregation is not None:
            contexts = _group_contexts(plan.aggregation, contexts, params,
                                       n_sources)
        project = plan.project_fn
        out = [project(ctx, params) for ctx in contexts]
        if plan.order_keys:
            keyed = [
                ([_SortKey(key.value(ctx, row, params), key.descending)
                  for key in plan.order_keys], row)
                for ctx, row in zip(contexts, out)]
            keyed.sort(key=lambda pair: pair[0])
            out = [row for _, row in keyed]
        if plan.distinct:
            out = _distinct(out)
        out = _apply_plan_limit(out, plan, params)
        return Result(out, plan.columns, rowcount=len(out))

    def _plan_scan(self, txn: Transaction, source: CompiledSource,
                   rows: list, params: Sequence[object], lock_mode: str,
                   take_locks: bool, count_db_reads: bool,
                   stop_after: Optional[int] = None
                   ) -> list[tuple[int, tuple]]:
        """Scan one source: batched visibility read, closure filtering.

        Candidate gathering and all visibility checks happen under a
        single latch acquisition, which also notes the commit sequence.
        A row locked after that is re-read only if a commit has landed
        since: a conflicting writer keeps its lock until its commit is
        applied, so otherwise the version read is still current.  Locks
        are never acquired while holding the latch.  With
        ``stop_after``, a pushed-down walk may return just the first
        that many qualifying rows in key order.
        """
        table = source.table
        db = self.db
        data = db.table_data(table)
        counters = db.counters
        if stop_after is not None and source.walk is not None:
            walked = self._ordered_scan(txn, source, source.walk, rows,
                                        params, lock_mode, take_locks,
                                        stop_after, data)
            if walked is not None:
                if count_db_reads:
                    counters.rows_read += len(walked)
                return walked
        slot = source.slot
        latch = db.latch
        txns = db.txn_manager
        effective = txn.effective_values
        with latch:
            candidates, key = self._plan_candidates(txn, source, rows,
                                                    params, data)
            read_at = txns.last_commit_ts
            unindexed = txn.unindexed.get(table)
            if unindexed:
                # A new set: the candidates may be a live index bucket.
                candidates = unindexed.union(candidates)
            txn.stats.rows_examined += len(candidates)
            visible = []
            append = visible.append
            for rowid in candidates:
                values = effective(table, data, rowid)
                if values is not None:
                    append((rowid, values))
        full = source.filter
        if key is None:
            key_of = residual = None
        else:
            key_of = source.index_probe.key_of
            residual = source.residual
        acquire = db.lock_manager.acquire
        stats = txn.stats
        out: list[tuple[int, tuple]] = []
        emit = out.append
        for rowid, values in visible:
            # A version with the probe key meets the conjuncts the key
            # covers; any other candidate takes the full filter.
            row_filter = (residual if key_of is not None
                          and key_of(values) == key else full)
            if row_filter is not None:
                rows[slot] = values
                if not row_filter(rows, params):
                    continue
            if take_locks:
                acquire(txn, ("row", table, rowid), lock_mode)
                if txns.last_commit_ts != read_at:
                    # A commit landed since the read: the row may have
                    # changed, so read it again.
                    with latch:
                        current = effective(table, data, rowid)
                    if current is None:
                        continue
                    # Same tuple object means the predicate's inputs are
                    # unchanged, so its verdict is too.
                    if current is not values:
                        values = current
                        row_filter = (residual if key_of is not None
                                      and key_of(values) == key else full)
                        if row_filter is not None:
                            rows[slot] = values
                            if not row_filter(rows, params):
                                continue
            stats.rows_read += 1
            emit((rowid, values))
        if count_db_reads:
            counters.rows_read += len(out)
        return out

    def _plan_candidates(self, txn: Transaction, source: CompiledSource,
                         rows: list, params: Sequence[object], data
                         ) -> tuple[Collection[int], Optional[tuple]]:
        """Access-path cascade: index probe, ordered walk, full scan.

        Returns the candidate rowids and, when they came from an index
        probe, its key; the caller then checks candidates against that
        key instead of the conjuncts it covers.  A key holding a NULL is
        not returned: Python finds ``None == None`` where SQL ``=`` is
        never true, so those candidates take the full filter, which
        drops them all.

        The caller holds the storage latch; key closures are pure, so
        evaluating them under it is safe (and no locks are taken here).
        A probe returns the index's live bucket, valid only under the
        latch and never to be mutated.
        """
        probe = source.index_probe
        if probe is not None:
            try:
                key = probe.key_fn(rows, params)
            except ProgrammingError:
                # An unevaluable probe key falls through to the next
                # access path, and the full filter reports the error.
                key = None
            if key is not None:
                txn.stats.index_lookups += 1
                bucket = data.index_lookup(probe.index_name, key)
                return bucket, (None if None in key else key)
        walk = source.walk
        if walk is not None:
            bounds = walk.bounds(rows, params)
            if bounds is not None:
                txn.stats.index_lookups += 1
                return data.walk_candidates(walk.index_name, *bounds), None
        txn.stats.full_scans += 1
        return data.all_rowids(), None

    def _ordered_scan(self, txn: Transaction, source: CompiledSource,
                      walk: IndexWalk, rows: list, params: Sequence[object],
                      lock_mode: str, take_locks: bool, stop_after: int,
                      data) -> Optional[list[tuple[int, tuple]]]:
        """The first ``stop_after`` qualifying rows, walked in key order.

        Returns None when the walk cannot promise ORDER BY order: a bound
        is unusable, the transaction has rows the index does not cover
        yet, or a key with a NULL shares the equality prefix (such rows
        sort last, between no two index keys).  The caller then gathers
        every candidate and lets the sort decide.

        Keys are read in batches, each under one latch hold; a row counts
        under a key only if its visible version has that key, so stale
        index entries are skipped and no row is seen twice.  Under 2PL a
        row is locked only after it passed the filter, and re-read after
        the grant if a commit landed since its batch was read: a row
        deleted meanwhile is skipped, and a row whose key moved sends the
        walk back to the key it was found under.
        """
        bounds = walk.bounds(rows, params)
        table = source.table
        if bounds is None or txn.unindexed.get(table):
            return None
        prefix, low, high = bounds
        name = walk.index_name
        latch = self.db.latch
        txns = self.db.txn_manager
        with latch:
            ordered = data.ordered_index(name)
            width = len(prefix)
            if any(key[:width] == prefix for key in ordered.unordered):
                return None
        txn.stats.index_lookups += 1
        slot = source.slot
        row_filter = source.filter
        key_of = walk.key_of
        descending = walk.descending
        effective = txn.effective_values
        acquire = self.db.lock_manager.acquire
        stats = txn.stats
        out: list[tuple[int, tuple]] = []
        emitted: set[int] = set()
        batch_keys = stop_after
        while len(out) < stop_after:
            with latch:
                keys = ordered.keys.between(low, high, descending,
                                            batch_keys)
                read_at = txns.last_commit_ts
                batch = []
                for key in keys:
                    bucket = data.index_lookup(name, key)
                    stats.rows_examined += len(bucket)
                    for rowid in bucket:
                        values = effective(table, data, rowid)
                        if values is not None and key_of(values) == key:
                            batch.append((key, rowid, values))
            resume = None
            for key, rowid, values in batch:
                if rowid in emitted:
                    continue
                if row_filter is not None:
                    rows[slot] = values
                    if not row_filter(rows, params):
                        continue
                if take_locks:
                    acquire(txn, ("row", table, rowid), lock_mode)
                    if txns.last_commit_ts != read_at:
                        with latch:
                            current = effective(table, data, rowid)
                        if current is None:
                            continue
                        if current is not values:
                            values = current
                            if key_of(values) != key:
                                resume = key
                                break
                            if row_filter is not None:
                                rows[slot] = values
                                if not row_filter(rows, params):
                                    continue
                stats.rows_read += 1
                out.append((rowid, values))
                emitted.add(rowid)
                if len(out) == stop_after:
                    break
            if resume is not None:
                # Walk again from the moved row's old key, inclusive.
                if descending:
                    high = resume + (TOP,)
                else:
                    low = resume
            elif len(keys) < batch_keys:
                break
            elif descending:
                high = keys[-1]
            else:
                low = keys[-1] + (TOP,)
            batch_keys *= 2
        return out

    def _insert_plan(self, txn: Transaction, plan: CompiledInsert,
                     params: Sequence[object]) -> Result:
        """Buffer new rows, locking only their primary keys.

        A new rowid is in no index and no other transaction's reach
        until commit, so it takes no lock of its own; the key lock is
        what keeps a concurrent insert of the same key out.  The
        duplicate-key check and the rowid share one latch hold.
        """
        schema = plan.schema
        table = plan.table
        data = self.db.table_data(table)
        n_columns = len(schema.columns)
        inserted = 0
        for row_fns in plan.row_fns:
            values: list[object] = [None] * n_columns
            for position, fn in zip(plan.positions, row_fns):
                values[position] = fn((), params)
            for position, default in plan.defaults:
                values[position] = default
            row = plan.finalize(values)
            key = None
            if schema.primary_key:
                key = schema.pk_key(row)
                if txn.isolation == SERIALIZABLE:
                    self.db.lock_manager.acquire(
                        txn, ("key", table, key), EXCLUSIVE)
            with self.db.latch:
                if key is not None and self._visible_pk_exists(
                        txn, table, data, key):
                    raise IntegrityError(
                        f"duplicate primary key {key!r} in {table!r}")
                rowid = data.new_rowid()
            txn.buffer_insert(table, rowid, row)
            self.db.counters.rows_inserted += 1
            inserted += 1
        return Result(rowcount=inserted)

    def _update_plan(self, txn: Transaction, plan: CompiledUpdate,
                     params: Sequence[object]) -> Result:
        schema = plan.schema
        data = self.db.table_data(plan.table)
        rows: list[Optional[tuple]] = [None]
        # Materialise matches first: buffered writes must not feed back
        # into the ongoing scan (Halloween problem).
        matches = self._plan_scan(
            txn, plan.source, rows, params, EXCLUSIVE,
            take_locks=(txn.isolation == SERIALIZABLE),
            count_db_reads=False)
        updated = 0
        for rowid, old_values in matches:
            rows[0] = old_values
            new_values = list(old_values)
            for assignment in plan.assignments:
                final = assignment.finalizer
                value = final.coerce(assignment.value_fn(rows, params))
                if value is None and final.not_null:
                    raise IntegrityError(
                        f"column {final.name!r} of {plan.table!r} "
                        "is NOT NULL")
                new_values[final.position] = value
            new_row = tuple(new_values)
            if plan.rekeys and schema.primary_key:
                old_key = schema.pk_key(old_values)
                new_key = schema.pk_key(new_row)
                if new_key != old_key:
                    if txn.isolation == SERIALIZABLE:
                        self.db.lock_manager.acquire(
                            txn, ("key", plan.table, new_key), EXCLUSIVE)
                    with self.db.latch:
                        taken = self._visible_pk_exists(txn, plan.table,
                                                        data, new_key)
                    if taken:
                        raise IntegrityError(
                            f"duplicate primary key {new_key!r} "
                            f"in {plan.table!r}")
            txn.buffer_update(plan.table, rowid, new_row, plan.rekeys)
            self.db.counters.rows_updated += 1
            updated += 1
        return Result(rowcount=updated)

    def _delete_plan(self, txn: Transaction, plan: CompiledDelete,
                     params: Sequence[object]) -> Result:
        rows: list[Optional[tuple]] = [None]
        deleted = 0
        for rowid, _values in self._plan_scan(
                txn, plan.source, rows, params, EXCLUSIVE,
                take_locks=(txn.isolation == SERIALIZABLE),
                count_db_reads=False):
            txn.buffer_delete(plan.table, rowid)
            self.db.counters.rows_deleted += 1
            deleted += 1
        return Result(rowcount=deleted)

    def _visible_pk_exists(self, txn: Transaction, table: str,
                           data, key: tuple) -> bool:
        """Whether ``txn`` sees a live row with primary key ``key``.

        The caller holds the storage latch.
        """
        pk_key = data.schema.pk_key
        effective = txn.effective_values
        for rowids in (data.index_lookup("__pk__", key),
                       txn.unindexed.get(table, ())):
            for rowid in rowids:
                values = effective(table, data, rowid)
                if values is not None and pk_key(values) == key:
                    return True
        return False

class _SortKey:
    """Orderable wrapper handling NULLs (sorted last) and DESC."""

    __slots__ = ("value", "descending")

    def __init__(self, value: object, descending: bool) -> None:
        self.value = value
        self.descending = descending

    def __lt__(self, other: "_SortKey") -> bool:
        a, b = self.value, other.value
        if a is None and b is None:
            return False
        if a is None:
            return False  # NULLs last in ascending order
        if b is None:
            return True
        if isinstance(a, bool):
            a = int(a)
        if isinstance(b, bool):
            b = int(b)
        if isinstance(a, str) != isinstance(b, str):
            a, b = str(a), str(b)
        if self.descending:
            return b < a  # type: ignore[operator]
        return a < b  # type: ignore[operator]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortKey) and self.value == other.value


def _group_contexts(agg: CompiledAggregation, contexts: list,
                    params: Sequence[object], n_sources: int) -> list[tuple]:
    """One ``(*first_row, aggs)`` context per group that passes HAVING."""
    groups: dict[tuple, list] = {}
    if agg.group_fn is not None:
        group_fn = agg.group_fn
        for ctx in contexts:
            groups.setdefault(group_fn(ctx, params), []).append(ctx)
    else:
        groups[()] = contexts  # single global group (may be empty)
    # Bare columns of an empty group read as NULL, as in SQL.
    null_rows = (None,) * n_sources
    having = agg.having_fn
    out: list[tuple] = []
    for group in groups.values():
        ctx = (*(group[0] if group else null_rows),
               LazyAggs(agg.aggs, group, params))
        if having is None or is_true(having(ctx, params)):
            out.append(ctx)
    return out


def _distinct(rows: list[tuple]) -> list[tuple]:
    seen: set = set()
    unique: list[tuple] = []
    for row in rows:
        if row not in seen:
            seen.add(row)
            unique.append(row)
    return unique


def _limit_stop(plan: CompiledSelect,
                params: Sequence[object]) -> Optional[int]:
    """LIMIT + OFFSET, or None when either is invalid (reported later)."""
    if plan.limit_fn is None:
        return None
    try:
        limit = int(plan.limit_fn((), params))
        offset = (int(plan.offset_fn((), params))
                  if plan.offset_fn is not None else 0)
    except (TypeError, ValueError, ProgrammingError):
        return None
    if limit < 0 or offset < 0:
        return None
    return limit + offset


def _apply_plan_limit(rows: list[tuple], plan: CompiledSelect,
                      params: Sequence[object]) -> list[tuple]:
    offset = 0
    if plan.offset_fn is not None:
        offset = int(plan.offset_fn((), params))
        if offset < 0:
            raise ProgrammingError("OFFSET must be non-negative")
    if plan.limit_fn is not None:
        limit = int(plan.limit_fn((), params))
        if limit < 0:
            raise ProgrammingError("LIMIT must be non-negative")
        return rows[offset:offset + limit]
    if offset:
        return rows[offset:]
    return rows

