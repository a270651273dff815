"""Versioned row storage and index maintenance.

Each table stores rows as *version chains*: ``rowid -> ((begin_ts, values),
...)`` with versions ordered by their creating commit timestamp and
``values is None`` marking a tombstone.  A transaction reading at snapshot
timestamp ``S`` sees the newest version with ``begin_ts <= S``; strict-2PL
readers use ``S = +inf`` (latest committed), which is safe because they
hold shared locks.  The chain format is private to this module: readers
ask :class:`TableData` for the values visible at a timestamp, the latest
values, the live primary-key holder or the latest commit timestamp.

Indexes (the primary key and secondary indexes) are maintained as
*conservative supersets*: an index entry maps a key to every rowid that had
that key in any still-retained version.  Scans therefore always re-verify
key predicates against the version actually visible to the reader, and
pruning removes stale entries once no active snapshot can see them.  This
keeps index maintenance simple and correct under both 2PL and snapshot
isolation.

Every index is a hash map ``key -> bucket of rowids``.  The first time a
plan walks an index in key order, the index also gets a
:class:`SortedKeys` list of its distinct keys; from then on a key enters
the list when it first enters the hash map and leaves it when pruning
empties its bucket.  Keys holding a NULL (or a float NaN) have no place in
that order and are kept in a side set instead.

Chains and small buckets are exact tuples of atomic values, replaced
rather than mutated.  CPython's cyclic collector stops tracking such a
tuple once a collection finds its items untracked, one nesting level per
collection.  A chain nests three levels (values, pair, chain) and the
two young generations settle only two of them, so a chain a run commits
reaches the oldest generation still tracked, and the full collection
that first walks it is the one that untracks it.  The rows a run
inserts or updates thus keep full collections coming, each walking all
the chains committed since the last (EXPERIMENTS §3-gc).  A bucket
that outgrows :data:`BUCKET_TUPLE_MAX` rowids becomes a set, which keeps
an insert under a low-cardinality key O(1).
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from typing import Callable, Collection, Iterable, Iterator, Optional, Union

from .catalog import IndexDef, TableSchema, key_getter

#: Snapshot timestamp meaning "read the latest committed version".
READ_LATEST = float("inf")

#: Most rowids a bucket keeps in a tuple; a bucket holding more is a set.
BUCKET_TUPLE_MAX = 16

#: An index bucket: a tuple of at most BUCKET_TUPLE_MAX rowids, else a set.
Bucket = Union[tuple, set]

_EMPTY: frozenset[int] = frozenset()


def _bucket_add(entries: dict[tuple, Bucket], key: tuple,
                rowid: int) -> bool:
    """Add ``rowid`` under ``key``; whether ``key`` is new to ``entries``."""
    bucket = entries.get(key)
    if bucket is None:
        entries[key] = (rowid,)
        return True
    if type(bucket) is tuple:
        if rowid not in bucket:
            entries[key] = (bucket + (rowid,)
                            if len(bucket) < BUCKET_TUPLE_MAX
                            else {*bucket, rowid})
    else:
        bucket.add(rowid)
    return False


def _bucket_discard(entries: dict[tuple, Bucket], key: tuple,
                    rowid: int) -> bool:
    """Remove ``rowid`` from under ``key``; whether that emptied the key."""
    bucket = entries.get(key)
    if bucket is None or rowid not in bucket:
        return False
    if type(bucket) is tuple:
        if len(bucket) == 1:
            del entries[key]
            return True
        entries[key] = tuple([r for r in bucket if r != rowid])
    else:
        bucket.discard(rowid)
        if len(bucket) <= BUCKET_TUPLE_MAX:
            entries[key] = tuple(bucket)
    return False


class _Top:
    """Sorts after every key value; ``prefix + (TOP,)`` bounds a prefix."""

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return other is self

    def __gt__(self, other: object) -> bool:
        return other is not self

    def __ge__(self, other: object) -> bool:
        return True

    def __repr__(self) -> str:
        return "TOP"


#: Key-bound sentinel: ``bisect_left(keys, prefix + (TOP,))`` is the
#: position just past every key that starts with ``prefix``.
TOP = _Top()


class SortedKeys:
    """Distinct key tuples in sorted blocks of about :attr:`LOAD` keys.

    One flat sorted list would make every insert an O(n) memmove; blocks
    keep an insert at O(log n + LOAD) however large the index grows.
    ``_maxes[i]`` is the last key of ``_blocks[i]``; no block is empty.
    """

    LOAD = 256

    def __init__(self, keys: Iterable[tuple] = ()) -> None:
        ordered = sorted(keys)
        load = self.LOAD
        self._blocks = [ordered[i:i + load]
                        for i in range(0, len(ordered), load)]
        self._maxes = [block[-1] for block in self._blocks]

    def __iter__(self) -> Iterator[tuple]:
        for block in self._blocks:
            yield from block

    def add(self, key: tuple) -> None:
        """Insert ``key``, which must not be present yet."""
        maxes = self._maxes
        if not maxes:
            self._blocks.append([key])
            maxes.append(key)
            return
        i = bisect_left(maxes, key)
        if i == len(maxes):
            i -= 1
        block = self._blocks[i]
        insort(block, key)
        maxes[i] = block[-1]
        if len(block) > 2 * self.LOAD:
            half = len(block) // 2
            self._blocks[i:i + 1] = [block[:half], block[half:]]
            maxes[i:i + 1] = [block[half - 1], block[-1]]

    def remove(self, key: tuple) -> None:
        """Delete ``key``, which must be present."""
        i = bisect_left(self._maxes, key)
        block = self._blocks[i]
        del block[bisect_left(block, key)]
        if block:
            self._maxes[i] = block[-1]
        else:
            del self._blocks[i]
            del self._maxes[i]

    def _position(self, bound: tuple) -> tuple[int, int]:
        """``(block, offset)`` of the first key not less than ``bound``."""
        i = bisect_left(self._maxes, bound)
        if i == len(self._maxes):
            return i, 0
        return i, bisect_left(self._blocks[i], bound)

    def between(self, low: tuple, high: tuple, descending: bool = False,
              limit: Optional[int] = None) -> list[tuple]:
        """Keys ``k`` with ``low <= k < high``, in order, at most ``limit``.

        Bounds may be shorter than the keys (a prefix) and may end in
        :data:`TOP`, so one half-open form expresses every mix of
        inclusive and exclusive bounds.
        """
        blocks = self._blocks
        out: list[tuple] = []
        if not descending:
            i, j = self._position(low)
            while i < len(blocks):
                block = blocks[i]
                while j < len(block):
                    key = block[j]
                    if not key < high or len(out) == limit:
                        return out
                    out.append(key)
                    j += 1
                i, j = i + 1, 0
            return out
        i, j = self._position(high)
        while True:
            j -= 1
            if j < 0:
                i -= 1
                if i < 0:
                    return out
                j = len(blocks[i]) - 1
            key = blocks[i][j]
            if key < low or len(out) == limit:
                return out
            out.append(key)


def orderable(key: tuple) -> bool:
    """Whether ``key`` has a place in index order: no NULL and no NaN."""
    for value in key:
        if value is None or value != value:
            return False
    return True


class OrderedIndex:
    """The key order of one index: sorted keys plus the unorderable rest."""

    __slots__ = ("keys", "unordered")

    def __init__(self, keys: Iterable[tuple]) -> None:
        keys = list(keys)
        self.keys = SortedKeys(k for k in keys if orderable(k))
        self.unordered: set[tuple] = {k for k in keys if not orderable(k)}

    def add(self, key: tuple) -> None:
        if orderable(key):
            self.keys.add(key)
        else:
            self.unordered.add(key)

    def remove(self, key: tuple) -> None:
        if orderable(key):
            self.keys.remove(key)
        else:
            self.unordered.discard(key)


class TableData:
    """Row storage plus indexes for a single table."""

    def __init__(self, schema: TableSchema) -> None:
        self.schema = schema
        # rowid -> version chain: a tuple of (begin_ts, values) pairs.
        self._chains: dict[int, tuple] = {}
        self._rowid_counter = itertools.count(1)
        # index name -> {key tuple -> bucket of rowids}; the primary key
        # uses the reserved name "__pk__" when the table declares one.
        self._indexes: dict[str, dict[tuple, Bucket]] = {}
        self._index_defs: dict[str, IndexDef] = {}
        # index name -> row values -> key tuple.
        self._key_of: dict[str, Callable[[tuple], tuple]] = {}
        # index name -> key order, built on first use by an ordered walk.
        self._ordered: dict[str, OrderedIndex] = {}
        self._multiversion_rows: set[int] = set()
        for index in schema.index_defs():
            self.add_index(index)

    # -- index management --------------------------------------------------

    def add_index(self, index: IndexDef) -> None:
        """Register a new index and backfill it from retained versions."""
        self._index_defs[index.name] = index
        entries: dict[tuple, Bucket] = {}
        key_of = key_getter(self.schema.positions(index.columns))
        for rowid, chain in self._chains.items():
            for _begin_ts, values in chain:
                if values is not None:
                    _bucket_add(entries, key_of(values), rowid)
        self._indexes[index.name] = entries
        self._key_of[index.name] = key_of
        self._ordered.pop(index.name, None)

    def index_defs(self) -> list[IndexDef]:
        return list(self._index_defs.values())

    # -- reads ---------------------------------------------------------------

    def visible_values(self, rowid: int,
                       snapshot_ts: float) -> Optional[tuple]:
        """Values of ``rowid`` visible at ``snapshot_ts``; None when no
        version is visible yet or the visible one is a tombstone."""
        chain = self._chains.get(rowid)
        if chain is None:
            return None
        i = len(chain)
        while i:
            i -= 1
            version = chain[i]
            if version[0] <= snapshot_ts:
                return version[1]
        return None

    def latest_values(self, rowid: int) -> Optional[tuple]:
        """Latest committed values of ``rowid``; None if deleted or absent."""
        chain = self._chains.get(rowid)
        return chain[-1][1] if chain is not None else None

    def latest_begin_ts(self, rowid: int) -> Optional[float]:
        """Commit timestamp of ``rowid``'s latest version, if it has one."""
        chain = self._chains.get(rowid)
        return chain[-1][0] if chain is not None else None

    def latest_rows(self) -> Iterator[tuple]:
        """Values of every row live in the latest committed state, in the
        order the rows were first committed."""
        for chain in self._chains.values():
            values = chain[-1][1]
            if values is not None:
                yield values

    def all_rowids(self) -> set[int]:
        """Every retained rowid, in a new set the caller owns."""
        return set(self._chains)

    def index_lookup(self, index_name: str, key: tuple) -> Collection[int]:
        """Candidate rowids for an equality key (conservative superset).

        This is the index's live bucket, not a copy: callers read it only
        while they hold the database latch and never mutate it.  It is a
        tuple or a set (see :data:`BUCKET_TUPLE_MAX`).
        """
        entries = self._indexes.get(index_name)
        if entries is None:
            return _EMPTY
        return entries.get(key, _EMPTY)

    def ordered_index(self, index_name: str) -> OrderedIndex:
        """The key order of ``index_name``, built on first request.

        Callers hold the database latch, as for every index read.
        """
        ordered = self._ordered.get(index_name)
        if ordered is None:
            ordered = OrderedIndex(self._indexes[index_name])
            self._ordered[index_name] = ordered
        return ordered

    def walk_candidates(self, index_name: str, prefix: tuple, low: tuple,
                        high: tuple) -> set[int]:
        """Rowids under keys ``low <= key < high``, plus NULL keys that
        share the equality ``prefix`` (a conservative superset).

        Keys with a NULL are not in the index order; the caller's filter
        drops those the range excludes.
        """
        ordered = self.ordered_index(index_name)
        entries = self._indexes[index_name]
        candidates: set[int] = set()
        for key in ordered.keys.between(low, high):
            candidates.update(entries[key])
        width = len(prefix)
        for key in ordered.unordered:
            if key[:width] == prefix:
                candidates.update(entries[key])
        return candidates

    def find_index(self, columns: Iterable[str]) -> Optional[IndexDef]:
        """An index whose column list is a prefix-match of ``columns``.

        Used by the planner: returns the index covering the largest number
        of the given equality columns (all index columns must be present).
        """
        wanted = set(columns)
        best: Optional[IndexDef] = None
        for index in self._index_defs.values():
            if all(c in wanted for c in index.columns):
                if best is None or len(index.columns) > len(best.columns):
                    best = index
        return best

    def pk_lookup_latest(self, key: tuple) -> Optional[int]:
        """Rowid whose *latest committed* version is live with this PK."""
        pk_key = self.schema.pk_key
        for rowid in self.index_lookup("__pk__", key):
            values = self.latest_values(rowid)
            if values is not None and pk_key(values) == key:
                return rowid
        return None

    def count_live(self) -> int:
        """Number of rows live in the latest committed state."""
        return sum(1 for _ in self.latest_rows())

    # -- writes (called while holding the database latch) -------------------

    def new_rowid(self) -> int:
        return next(self._rowid_counter)

    def apply_insert(self, rowid: int, values: tuple, commit_ts: float) -> None:
        """Add a new row; the committer has checked its primary key."""
        self._append_version(rowid, commit_ts, values)

    def apply_update(self, rowid: int, values: tuple, commit_ts: float) -> None:
        self._append_version(rowid, commit_ts, values)

    def apply_delete(self, rowid: int, commit_ts: float) -> None:
        self._append_version(rowid, commit_ts, None)

    def _append_version(self, rowid: int, commit_ts: float,
                        values: Optional[tuple]) -> None:
        chains = self._chains
        chain = chains.get(rowid)
        if chain is None:
            chains[rowid] = ((commit_ts, values),)
        else:
            chains[rowid] = chain + ((commit_ts, values),)
            self._multiversion_rows.add(rowid)
        if values is not None:
            indexes = self._indexes
            for name, key_of in self._key_of.items():
                key = key_of(values)
                if _bucket_add(indexes[name], key, rowid):
                    ordered = self._ordered.get(name)
                    if ordered is not None:
                        ordered.add(key)

    # -- garbage collection --------------------------------------------------

    def prune(self, min_active_snapshot: float) -> int:
        """Drop versions no active snapshot can see; clean index entries.

        Returns the number of versions discarded.  A version may be dropped
        when a newer version also satisfies ``begin_ts <= min_active_snapshot``
        (the newer one shadows it for every current and future reader).
        """
        dropped = 0
        chains = self._chains
        finished: list[int] = []
        for rowid in self._multiversion_rows:
            chain = chains.get(rowid)
            if chain is None or len(chain) == 1:
                finished.append(rowid)
                continue
            # Find the newest version visible at the oldest snapshot.
            keep_from = 0
            for i, (begin_ts, _values) in enumerate(chain):
                if begin_ts <= min_active_snapshot:
                    keep_from = i
            removed, kept = chain[:keep_from], chain[keep_from:]
            if removed:
                chains[rowid] = kept
                dropped += len(removed)
                self._clean_index_entries(rowid, removed, kept)
            if len(kept) == 1:
                if kept[0][1] is None:
                    # Row fully dead: remove storage and any index entries.
                    self._clean_index_entries(rowid, kept, ())
                    del chains[rowid]
                finished.append(rowid)
        self._multiversion_rows.difference_update(finished)
        return dropped

    def _clean_index_entries(self, rowid: int, removed: tuple,
                             kept: tuple) -> None:
        for name, key_of in self._key_of.items():
            kept_keys = {key_of(values) for _ts, values in kept
                         if values is not None}
            entries = self._indexes[name]
            for _ts, values in removed:
                if values is None:
                    continue
                key = key_of(values)
                if key in kept_keys:
                    continue
                if _bucket_discard(entries, key, rowid):
                    ordered = self._ordered.get(name)
                    if ordered is not None:
                        ordered.remove(key)

    # -- stats ----------------------------------------------------------------

    def version_count(self) -> int:
        return sum(len(chain) for chain in self._chains.values())
