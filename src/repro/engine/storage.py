"""Versioned row storage and index maintenance.

Each table stores rows as *version chains*: ``rowid -> [Version, ...]`` with
versions ordered by their creating commit timestamp.  A transaction reading
at snapshot timestamp ``S`` sees the newest version with ``begin_ts <= S``;
strict-2PL readers use ``S = +inf`` (latest committed), which is safe because
they hold shared locks.

Indexes (the primary key and secondary indexes) are maintained as
*conservative supersets*: an index entry maps a key to every rowid that had
that key in any still-retained version.  Scans therefore always re-verify
key predicates against the version actually visible to the reader, and
pruning removes stale entries once no active snapshot can see them.  This
keeps index maintenance simple and correct under both 2PL and snapshot
isolation.

Every index is a hash map ``key -> rowids``.  The first time a plan walks
an index in key order, the index also gets a :class:`SortedKeys` list of
its distinct keys; from then on a key enters the list when it first
enters the hash map and leaves it when pruning empties its bucket.  Keys
holding a NULL (or a float NaN) have no place in that order and are kept
in a side set instead.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from typing import (AbstractSet, Callable, Iterable, Iterator, NamedTuple,
                    Optional)

from .catalog import IndexDef, TableSchema, key_getter

#: Snapshot timestamp meaning "read the latest committed version".
READ_LATEST = float("inf")

_EMPTY: frozenset[int] = frozenset()


class Version(NamedTuple):
    """One committed version of a row; ``values is None`` is a tombstone."""

    begin_ts: float
    values: Optional[tuple]

    @property
    def is_tombstone(self) -> bool:
        return self.values is None


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
        self._versions: dict[int, list[Version]] = {}
        self._rowid_counter = itertools.count(1)
        # index name -> {key tuple -> set of rowids}; the primary key uses
        # the reserved name "__pk__" when the table declares one.
        self._indexes: dict[str, dict[tuple, set[int]]] = {}
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
        entries: dict[tuple, set[int]] = {}
        key_of = key_getter(self.schema.positions(index.columns))
        for rowid, chain in self._versions.items():
            for version in chain:
                if version.values is not None:
                    entries.setdefault(key_of(version.values),
                                       set()).add(rowid)
        self._indexes[index.name] = entries
        self._key_of[index.name] = key_of
        self._ordered.pop(index.name, None)

    def index_defs(self) -> list[IndexDef]:
        return list(self._index_defs.values())

    # -- reads ---------------------------------------------------------------

    def visible_version(self, rowid: int, snapshot_ts: float) -> Optional[Version]:
        """Newest version of ``rowid`` visible at ``snapshot_ts``."""
        chain = self._versions.get(rowid)
        if not chain:
            return None
        for version in reversed(chain):
            if version.begin_ts <= snapshot_ts:
                return version
        return None

    def latest_version(self, rowid: int) -> Optional[Version]:
        chain = self._versions.get(rowid)
        return chain[-1] if chain else None

    def all_rowids(self) -> Iterator[int]:
        return iter(list(self._versions.keys()))

    def index_lookup(self, index_name: str, key: tuple) -> AbstractSet[int]:
        """Candidate rowids for an equality key (conservative superset).

        This is the index's live bucket, not a copy: callers read it only
        while they hold the database latch and never mutate it.
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
            candidates |= entries[key]
        width = len(prefix)
        for key in ordered.unordered:
            if key[:width] == prefix:
                candidates |= entries[key]
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
            version = self.latest_version(rowid)
            if (version is not None and version.values is not None
                    and pk_key(version.values) == key):
                return rowid
        return None

    def count_live(self) -> int:
        """Number of rows live in the latest committed state."""
        count = 0
        for rowid in self._versions:
            version = self.latest_version(rowid)
            if version is not None and not version.is_tombstone:
                count += 1
        return count

    # -- writes (called while holding the database latch) -------------------

    def new_rowid(self) -> int:
        return next(self._rowid_counter)

    def apply_insert(self, rowid: int, values: tuple, commit_ts: float) -> None:
        """Add a new row; the committer has checked its primary key."""
        self._append_version(rowid, Version(commit_ts, values))

    def apply_update(self, rowid: int, values: tuple, commit_ts: float) -> None:
        self._append_version(rowid, Version(commit_ts, values))

    def apply_delete(self, rowid: int, commit_ts: float) -> None:
        self._append_version(rowid, Version(commit_ts, None))

    def _append_version(self, rowid: int, version: Version) -> None:
        chain = self._versions.setdefault(rowid, [])
        chain.append(version)
        if len(chain) > 1:
            self._multiversion_rows.add(rowid)
        values = version.values
        if values is not None:
            indexes = self._indexes
            for name, key_of in self._key_of.items():
                key = key_of(values)
                entries = indexes[name]
                bucket = entries.get(key)
                if bucket is None:
                    entries[key] = bucket = set()
                    ordered = self._ordered.get(name)
                    if ordered is not None:
                        ordered.add(key)
                bucket.add(rowid)

    # -- garbage collection --------------------------------------------------

    def prune(self, min_active_snapshot: float) -> int:
        """Drop versions no active snapshot can see; clean index entries.

        Returns the number of versions discarded.  A version may be dropped
        when a newer version also satisfies ``begin_ts <= min_active_snapshot``
        (the newer one shadows it for every current and future reader).
        """
        dropped = 0
        finished: list[int] = []
        for rowid in list(self._multiversion_rows):
            chain = self._versions.get(rowid)
            if not chain or len(chain) == 1:
                finished.append(rowid)
                continue
            # Find the newest version visible at the oldest snapshot.
            keep_from = 0
            for i, version in enumerate(chain):
                if version.begin_ts <= min_active_snapshot:
                    keep_from = i
            removed, kept = chain[:keep_from], chain[keep_from:]
            if removed:
                self._versions[rowid] = kept
                dropped += len(removed)
                self._clean_index_entries(rowid, removed, kept)
            if len(kept) == 1:
                if kept[0].is_tombstone:
                    # Row fully dead: remove storage and any index entries.
                    self._clean_index_entries(rowid, kept, [])
                    del self._versions[rowid]
                finished.append(rowid)
        for rowid in finished:
            self._multiversion_rows.discard(rowid)
        return dropped

    def _clean_index_entries(self, rowid: int, removed: list[Version],
                             kept: list[Version]) -> None:
        for name, key_of in self._key_of.items():
            kept_keys = {key_of(v.values) for v in kept if v.values is not None}
            entries = self._indexes[name]
            for version in removed:
                if version.values is None:
                    continue
                key = key_of(version.values)
                if key in kept_keys:
                    continue
                bucket = entries.get(key)
                if bucket is not None:
                    bucket.discard(rowid)
                    if not bucket:
                        del entries[key]
                        ordered = self._ordered.get(name)
                        if ordered is not None:
                            ordered.remove(key)

    # -- stats ----------------------------------------------------------------

    def version_count(self) -> int:
        return sum(len(chain) for chain in self._versions.values())
