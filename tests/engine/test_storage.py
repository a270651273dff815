"""Version-chain storage and conservative index maintenance."""

import gc
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Database, connect
from repro.engine.catalog import ColumnDef, IndexDef, TableSchema
from repro.engine.storage import (BUCKET_TUPLE_MAX, READ_LATEST, TOP,
                                  SortedKeys, TableData, orderable)
from repro.engine.types import SqlType

from ..conftest import execute


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
    assert data.visible_values(rowid, READ_LATEST) == (1, 10, "a")
    assert data.latest_values(rowid) == (1, 10, "a")


def test_snapshot_visibility_by_timestamp():
    data = make_table()
    rowid = data.new_rowid()
    data.apply_insert(rowid, (1, 10, "a"), commit_ts=1.0)
    data.apply_update(rowid, (1, 10, "b"), commit_ts=5.0)
    assert data.visible_values(rowid, 1.0)[2] == "a"
    assert data.visible_values(rowid, 4.9)[2] == "a"
    assert data.visible_values(rowid, 5.0)[2] == "b"
    assert data.visible_values(rowid, 0.5) is None


def test_tombstone_hides_row():
    data = make_table()
    rowid = data.new_rowid()
    data.apply_insert(rowid, (1, 10, "a"), commit_ts=1.0)
    data.apply_delete(rowid, commit_ts=2.0)
    # The latest version is a tombstone: the row has one, but no values.
    assert data.latest_begin_ts(rowid) == 2.0
    assert data.visible_values(rowid, READ_LATEST) is None
    assert data.latest_values(rowid) is None
    assert data.visible_values(rowid, 1.5) == (1, 10, "a")


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
    assert data.visible_values(rowid, 2.0)[2] == "a"
    dropped = data.prune(min_active_snapshot=READ_LATEST)
    assert dropped == 1


def test_prune_removes_fully_dead_rows():
    data = make_table()
    rowid = data.new_rowid()
    data.apply_insert(rowid, (1, 10, "a"), commit_ts=1.0)
    data.apply_delete(rowid, commit_ts=2.0)
    data.prune(min_active_snapshot=READ_LATEST)
    assert data.latest_begin_ts(rowid) is None
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


# -- collector footprint and bucket representation ---------------------------


def _load_footprint_table(n):
    """``n`` rows, half bulk-loaded and half inserted through SQL, in a
    table with a primary key, a near-unique index (two rows a key) and a
    low-cardinality one (four keys); then an update that rekeys a
    quarter of the rows, a delete of another quarter, and a prune."""
    db = Database()
    conn = connect(db)
    execute(conn, "CREATE TABLE f (id INT PRIMARY KEY, near INT, grp INT, "
                  "val VARCHAR(8))")
    execute(conn, "CREATE INDEX idx_near ON f (near)")
    execute(conn, "CREATE INDEX idx_grp ON f (grp)")
    conn.commit()
    half = n // 2
    db.bulk_insert("f", [(i, i // 2, i % 4, "bulk") for i in range(half)])
    for start in range(half, n, 100):
        conn.cursor().executemany(
            "INSERT INTO f VALUES (?, ?, ?, ?)",
            [(i, i // 2, i % 4, "sql")
             for i in range(start, min(start + 100, n))])
        conn.commit()
    execute(conn, "UPDATE f SET near = near + 1, val = 'moved' "
                  "WHERE grp = 0")
    execute(conn, "DELETE FROM f WHERE grp = 1")
    conn.commit()
    data = db.table_data("f")
    data.prune(READ_LATEST)
    conn.close()
    return db, data


def _tracked_objects():
    # A collection untracks a tuple only if its items are untracked
    # already, and it reaches a chain before the pair inside it and the
    # pair before its values: one collection per nesting level (values,
    # pair, chain).  Three full collections settle them; the two young
    # generations alone do not (the xfail test below).
    for _ in range(3):
        gc.collect()
    return len(gc.get_objects())


def _tracked_growth(n):
    """Tracked objects a loaded table of ``n`` rows adds, and the table."""
    before = _tracked_objects()
    db, data = _load_footprint_table(n)
    return _tracked_objects() - before, data


def test_stored_rows_cost_the_collector_a_constant():
    small, _ = _tracked_growth(2_000)
    large, data = _tracked_growth(20_000)
    assert data.count_live() == 15_000
    # Every row chain and every bucket under the limit is an exact tuple
    # of atomic values, which a collection stops tracking.
    assert not any(gc.is_tracked(chain) for chain in data._chains.values())
    for entries in data._indexes.values():
        for bucket in entries.values():
            if len(bucket) <= BUCKET_TUPLE_MAX:
                assert type(bucket) is tuple
                assert not gc.is_tracked(bucket)
    # Ten times the rows: the same handful of tracked objects (the four
    # low-cardinality buckets are sets, whatever the row count).
    assert large - small < 64


@pytest.mark.xfail(
    strict=True,
    reason="a chain nests three tuple levels and the two young "
           "generations untrack two, so committed chains reach the "
           "oldest generation tracked. Flat chains (timestamps at even "
           "positions, values at odd ones) pass this probe, but over "
           "four tpcc-closed perfbench pairs they moved the host-speed "
           "factor 0.612 -> 0.849 and scaled throughput 1791 -> 1510 "
           "tps while unscaled throughput rose 1101 -> 1282 tps "
           "(EXPERIMENTS §3-gc); the layout waits for the host-speed "
           "sampler fix (ROADMAP item 1)")
def test_young_collections_untrack_fresh_chains():
    db = Database()
    conn = connect(db)
    execute(conn, "CREATE TABLE p (id INT PRIMARY KEY, v INT, "
                  "s VARCHAR(8))")
    conn.commit()
    gc.collect()
    for i in range(500):
        execute(conn, "INSERT INTO p VALUES (?, ?, 'new')", (i, i))
        conn.commit()
        execute(conn, "UPDATE p SET v = v + 1 WHERE id = ?", (i,))
        conn.commit()
    gc.collect(0)
    gc.collect(1)
    chains = db.table_data("p")._chains.values()
    assert sum(gc.is_tracked(chain) for chain in chains) == 0
    conn.close()


_bucket_op = st.tuples(
    st.sampled_from(["insert", "insert", "update", "delete", "prune"]),
    st.integers(0, 49),      # id
    st.integers(0, 1),       # grp: two keys, so buckets cross the limit
    st.integers(0, 4))       # how far back a prune's horizon reaches


# Long sequences: a key needs more than BUCKET_TUPLE_MAX rows to cross.
@given(ops=st.lists(_bucket_op, min_size=60, max_size=300))
@settings(deadline=None)
def test_buckets_across_the_tuple_set_boundary(ops):
    """A low-cardinality index under inserts, rekeying updates, deletes
    and prunes holds, under each key, exactly the rowids with a retained
    version carrying that key; a bucket is a tuple up to the limit."""
    data = make_table()
    live: dict[int, int] = {}  # id -> rowid
    # rowid -> retained (begin_ts, grp or None for a tombstone) versions.
    retained: dict[int, list] = {}
    ts = 0.0
    for kind, ident, grp, back in ops:
        ts += 1.0
        if kind == "insert" and ident not in live:
            rowid = live[ident] = data.new_rowid()
            data.apply_insert(rowid, (ident, grp, "v"), ts)
            retained[rowid] = [(ts, grp)]
        elif kind == "update" and ident in live:
            data.apply_update(live[ident], (ident, grp, "v"), ts)
            retained[live[ident]].append((ts, grp))
        elif kind == "delete" and ident in live:
            rowid = live.pop(ident)
            data.apply_delete(rowid, ts)
            retained[rowid].append((ts, None))
        elif kind == "prune":
            horizon = ts - back if back else READ_LATEST
            data.prune(horizon)
            for rowid, versions in list(retained.items()):
                keep_from = max([i for i, (begin, _) in enumerate(versions)
                                 if begin <= horizon], default=0)
                del versions[:keep_from]
                if len(versions) == 1 and versions[0][1] is None:
                    del retained[rowid]
        for key in range(2):
            bucket = data.index_lookup("idx_grp", (key,))
            expected = {rowid for rowid, versions in retained.items()
                        if any(g == key for _, g in versions)}
            assert set(bucket) == expected
            assert len(bucket) == len(expected)
            assert (type(bucket) is tuple) == (
                0 < len(expected) <= BUCKET_TUPLE_MAX)


def _load_one_index_key(n, key_of_row):
    data = make_table()
    start = time.process_time()
    for i in range(n):
        data.apply_insert(data.new_rowid(), (i, key_of_row(i), "v"), 1.0)
    return data, time.process_time() - start


def test_one_key_load_stays_linear():
    # A key's bucket becomes a set past the limit, so 50k rows under one
    # key load about as fast as 50k rows under distinct keys; appending
    # to a tuple each time would copy ~10 GB.
    _, distinct = _load_one_index_key(50_000, lambda i: i)
    data, one_key = _load_one_index_key(50_000, lambda i: 0)
    bucket = data.index_lookup("idx_grp", (0,))
    assert type(bucket) is set and len(bucket) == 50_000
    assert one_key < 4 * distinct + 0.2
