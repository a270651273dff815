"""Version-chain storage and conservative index maintenance."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.catalog import ColumnDef, IndexDef, TableSchema
from repro.engine.storage import (READ_LATEST, TOP, SortedKeys, TableData,
                                  Version, orderable)
from repro.engine.types import SqlType


def make_table(with_secondary=True):
    schema = TableSchema(
        "t",
        (ColumnDef("id", SqlType("int")), ColumnDef("grp", SqlType("int")),
         ColumnDef("val", SqlType("text"))),
        primary_key=("id",))
    data = TableData(schema)
    if with_secondary:
        data.add_index(IndexDef("idx_grp", "t", ("grp",)))
    return data


def test_insert_and_visible_version():
    data = make_table()
    rowid = data.new_rowid()
    data.apply_insert(rowid, (1, 10, "a"), commit_ts=1.0)
    version = data.visible_version(rowid, READ_LATEST)
    assert version.values == (1, 10, "a")


def test_snapshot_visibility_by_timestamp():
    data = make_table()
    rowid = data.new_rowid()
    data.apply_insert(rowid, (1, 10, "a"), commit_ts=1.0)
    data.apply_update(rowid, (1, 10, "b"), commit_ts=5.0)
    assert data.visible_version(rowid, 1.0).values[2] == "a"
    assert data.visible_version(rowid, 4.9).values[2] == "a"
    assert data.visible_version(rowid, 5.0).values[2] == "b"
    assert data.visible_version(rowid, 0.5) is None


def test_tombstone_hides_row():
    data = make_table()
    rowid = data.new_rowid()
    data.apply_insert(rowid, (1, 10, "a"), commit_ts=1.0)
    data.apply_delete(rowid, commit_ts=2.0)
    assert data.visible_version(rowid, READ_LATEST).is_tombstone
    assert data.visible_version(rowid, 1.5).values == (1, 10, "a")


def test_pk_reusable_after_delete():
    data = make_table()
    rowid = data.new_rowid()
    data.apply_insert(rowid, (1, 10, "a"), commit_ts=1.0)
    data.apply_delete(rowid, commit_ts=2.0)
    data.apply_insert(data.new_rowid(), (1, 30, "c"), commit_ts=3.0)
    assert data.pk_lookup_latest((1,)) is not None


def test_index_superset_includes_old_keys_until_prune():
    data = make_table()
    rowid = data.new_rowid()
    data.apply_insert(rowid, (1, 10, "a"), commit_ts=1.0)
    data.apply_update(rowid, (1, 20, "a"), commit_ts=2.0)
    # Conservative superset: both the old and new group keys point here.
    assert rowid in data.index_lookup("idx_grp", (10,))
    assert rowid in data.index_lookup("idx_grp", (20,))
    data.prune(min_active_snapshot=READ_LATEST)
    assert rowid not in data.index_lookup("idx_grp", (10,))
    assert rowid in data.index_lookup("idx_grp", (20,))


def test_prune_respects_active_snapshots():
    data = make_table()
    rowid = data.new_rowid()
    data.apply_insert(rowid, (1, 10, "a"), commit_ts=1.0)
    data.apply_update(rowid, (1, 10, "b"), commit_ts=5.0)
    dropped = data.prune(min_active_snapshot=2.0)  # snapshot still needs v1
    assert dropped == 0
    assert data.visible_version(rowid, 2.0).values[2] == "a"
    dropped = data.prune(min_active_snapshot=READ_LATEST)
    assert dropped == 1


def test_prune_removes_fully_dead_rows():
    data = make_table()
    rowid = data.new_rowid()
    data.apply_insert(rowid, (1, 10, "a"), commit_ts=1.0)
    data.apply_delete(rowid, commit_ts=2.0)
    data.prune(min_active_snapshot=READ_LATEST)
    assert data.visible_version(rowid, READ_LATEST) is None
    assert data.index_lookup("idx_grp", (10,)) == set()
    assert data.pk_lookup_latest((1,)) is None
    assert data.count_live() == 0


def test_find_index_prefers_most_columns():
    data = make_table()
    data.add_index(IndexDef("idx_grp_val", "t", ("grp", "val")))
    chosen = data.find_index({"grp", "val", "id"})
    # The PK has one column; idx_grp_val covers two.
    assert chosen.name == "idx_grp_val"
    assert data.find_index({"val"}) is None or \
        data.find_index({"val"}).columns == ("val",)


def test_count_live():
    data = make_table()
    for i in range(5):
        data.apply_insert(data.new_rowid(), (i, 0, "x"), commit_ts=1.0)
    assert data.count_live() == 5


def test_backfilled_index_covers_existing_rows():
    data = make_table(with_secondary=False)
    for i in range(3):
        data.apply_insert(data.new_rowid(), (i, i % 2, "x"), commit_ts=1.0)
    data.add_index(IndexDef("idx_late", "t", ("grp",)))
    assert len(data.index_lookup("idx_late", (0,))) == 2
    assert len(data.index_lookup("idx_late", (1,))) == 1


# -- ordered key lists -------------------------------------------------------


class _SmallBlocks(SortedKeys):
    LOAD = 4  # split and drop blocks after a handful of keys


def _brute_between(keys, low, high, descending, limit):
    picked = sorted(k for k in keys if low <= k < high)
    if descending:
        picked.reverse()
    return picked if limit is None else picked[:limit]


_key = st.tuples(st.integers(0, 6), st.integers(0, 6))
_bound = st.one_of(
    st.tuples(),
    st.tuples(st.integers(-1, 7)),
    st.tuples(st.integers(-1, 7), st.just(TOP)),
    st.tuples(st.integers(-1, 7), st.integers(-1, 7)),
    st.tuples(st.integers(-1, 7), st.integers(-1, 7), st.just(TOP)),
    st.just((TOP,)))


@given(ops=st.lists(st.tuples(st.booleans(), _key), max_size=80),
       low=_bound, high=_bound, descending=st.booleans(),
       limit=st.one_of(st.none(), st.integers(0, 5)))
@settings(deadline=None)
def test_sorted_keys_between_matches_brute_force(ops, low, high,
                                                 descending, limit):
    keys = _SmallBlocks()
    model: set = set()
    for add, key in ops:
        if add and key not in model:
            keys.add(key)
            model.add(key)
        elif not add and key in model:
            keys.remove(key)
            model.discard(key)
    assert list(keys) == sorted(model)
    assert keys.between(low, high, descending, limit) == \
        _brute_between(model, low, high, descending, limit)


def test_top_bounds_a_prefix():
    keys = SortedKeys([(1, 1), (1, 5), (2, 0), (2, 9), (3, 3)])
    assert keys.between((2,), (2, TOP)) == [(2, 0), (2, 9)]
    assert keys.between((1, 1, TOP), (3,)) == [(1, 5), (2, 0), (2, 9)]
    assert keys.between((1,), (TOP,), descending=True, limit=2) == \
        [(3, 3), (2, 9)]


def _table_with_composite_index():
    data = make_table()
    data.add_index(IndexDef("idx_grp_val", "t", ("grp", "val")))
    return data


def _assert_orders_match_hash_keys(data, names):
    for name in names:
        ordered = data.ordered_index(name)
        hash_keys = list(data._indexes[name])
        assert list(ordered.keys) == sorted(k for k in hash_keys
                                            if orderable(k))
        assert ordered.unordered == {k for k in hash_keys
                                     if not orderable(k)}


_row_op = st.tuples(
    st.sampled_from(["insert", "update", "delete", "prune", "build"]),
    st.integers(0, 12),                               # id
    st.one_of(st.none(), st.integers(0, 4)),          # grp (nullable)
    st.sampled_from([None, "a", "b", "c"]),           # val (nullable)
    st.booleans())                                    # prune everything?


@given(ops=st.lists(_row_op, max_size=60))
@settings(deadline=None)
def test_ordered_keys_match_hash_keys(ops):
    """After any insert/update/delete/prune sequence, each ordered list
    is exactly the sorted non-NULL keys of its hash map."""
    data = _table_with_composite_index()
    names = ["__pk__", "idx_grp", "idx_grp_val"]
    live: dict[int, int] = {}  # id -> rowid
    built = False
    ts = 0.0
    for kind, ident, grp, val, prune_all in ops:
        ts += 1.0
        if kind == "insert" and ident not in live:
            live[ident] = data.new_rowid()
            data.apply_insert(live[ident], (ident, grp, val), ts)
        elif kind == "update" and ident in live:
            data.apply_update(live[ident], (ident, grp, val), ts)
        elif kind == "delete" and ident in live:
            data.apply_delete(live.pop(ident), ts)
        elif kind == "prune":
            data.prune(READ_LATEST if prune_all else ts / 2)
        elif kind == "build":
            built = True
        if built:
            _assert_orders_match_hash_keys(data, names)
    _assert_orders_match_hash_keys(data, names)
