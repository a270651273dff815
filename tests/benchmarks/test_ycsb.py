"""YCSB: loader, request distributions, and CRUD procedures."""

import random
import sys
import threading

import pytest

from repro.benchmarks.ycsb import YcsbBenchmark
from repro.engine import Database, connect
from repro.errors import IntegrityError

from .conftest import committed, run_mixture


@pytest.fixture(scope="module")
def ycsb():
    db = Database()
    bench = YcsbBenchmark(db, scale_factor=0.5, seed=3)
    bench.load()
    return bench


def test_load_row_count(ycsb):
    assert ycsb.database.row_count("usertable") == 500
    assert ycsb.params["record_count"] == 500


def test_read_record(ycsb):
    conn = connect(ycsb.database)
    ycsb.make_procedure("ReadRecord").run(conn, random.Random(1))
    conn.close()


def test_insert_extends_keyspace(ycsb):
    conn = connect(ycsb.database)
    before = ycsb.database.row_count("usertable")
    ycsb.make_procedure("InsertRecord").run(conn, random.Random(2))
    assert ycsb.database.row_count("usertable") == before + 1
    conn.close()


def test_concurrent_inserts_never_collide():
    db = Database()
    bench = YcsbBenchmark(db, scale_factor=0.1, seed=3)
    bench.load()
    before = db.row_count("usertable")
    threads, per_thread = 4, 50
    errors: list[Exception] = []
    start = threading.Barrier(threads)

    def insert(seed):
        conn = connect(db)
        proc = bench.make_procedure("InsertRecord")
        rng = random.Random(seed)
        start.wait(timeout=10)
        for _ in range(per_thread):
            try:
                proc.run(conn, rng)
            except IntegrityError as exc:
                conn.rollback()
                errors.append(exc)
        conn.close()

    workers = [threading.Thread(target=insert, args=(i,))
               for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    # Every claimed key is fresh: the new keys are exactly the next ones.
    conn = connect(db)
    cur = conn.cursor()
    cur.execute("SELECT ycsb_key FROM usertable WHERE ycsb_key >= ?",
                (before,))
    keys = sorted(row[0] for row in cur.fetchall())
    conn.commit()
    conn.close()
    assert keys == list(range(before, before + threads * per_thread))


def test_insert_counter_resumes_past_the_largest_key(ycsb):
    conn = connect(ycsb.database)
    ycsb.make_procedure("InsertRecord").run(conn, random.Random(6))
    conn.close()
    ycsb.derive_params()
    largest = ycsb.scalar("SELECT MAX(ycsb_key) FROM usertable")
    assert next(ycsb.params["insert_key_counter"]) == largest + 1


def test_update_changes_field(ycsb):
    conn = connect(ycsb.database)
    rng = random.Random(4)
    cur = conn.cursor()
    cur.execute("SELECT field1 FROM usertable WHERE ycsb_key = 0")
    before = cur.fetchone()[0]
    conn.commit()
    # Run enough updates that key 0 (zipf-hot) is touched.
    proc = ycsb.make_procedure("UpdateRecord")
    for _ in range(60):
        proc.run(conn, rng)
    cur.execute("SELECT field1 FROM usertable WHERE ycsb_key = 0")
    # No assertion on inequality (field choice random); row must exist.
    assert cur.fetchone() is not None
    conn.commit()
    conn.close()


def test_scan_is_ordered(ycsb):
    conn = connect(ycsb.database)
    cur = conn.cursor()
    cur.execute("SELECT ycsb_key FROM usertable WHERE ycsb_key >= 10 "
                "AND ycsb_key < 20 ORDER BY ycsb_key")
    keys = [r[0] for r in cur.fetchall()]
    assert keys == sorted(keys)
    conn.commit()
    conn.close()


def test_read_modify_write(ycsb):
    conn = connect(ycsb.database)
    ycsb.make_procedure("ReadModifyWriteRecord").run(conn, random.Random(5))
    conn.close()


def test_mixture_run(ycsb):
    outcomes = run_mixture(ycsb, iterations=120)
    assert committed(outcomes) >= 115  # deletes of missing keys are no-ops


def test_zipfian_skews_access():
    db = Database()
    bench = YcsbBenchmark(db, scale_factor=0.2, seed=1)
    bench.load()
    proc = bench.make_procedure("ReadRecord")
    rng = random.Random(9)
    picks = [proc._pick_key(rng) for _ in range(3000)]
    from collections import Counter
    top_share = sum(c for _k, c in Counter(picks).most_common(20)) / 3000
    assert top_share > 0.4  # 10% of keys draw >40% of traffic


def test_uniform_distribution_option():
    db = Database()
    bench = YcsbBenchmark(db, scale_factor=0.2, seed=1,
                          request_distribution="uniform")
    bench.load()
    proc = bench.make_procedure("ReadRecord")
    rng = random.Random(9)
    picks = [proc._pick_key(rng) for _ in range(5000)]
    from collections import Counter
    top_share = sum(c for _k, c in Counter(picks).most_common(20)) / 5000
    assert top_share < 0.25


def test_hotspot_distribution_option():
    db = Database()
    bench = YcsbBenchmark(db, scale_factor=0.2, seed=1,
                          request_distribution="hotspot")
    bench.load()
    proc = bench.make_procedure("ReadRecord")
    rng = random.Random(9)
    picks = [proc._pick_key(rng) for _ in range(2000)]
    hot = sum(1 for p in picks if p < 40)  # hot set: first 20% of 200
    assert hot / 2000 > 0.7


def test_latest_distribution_option():
    db = Database()
    bench = YcsbBenchmark(db, scale_factor=0.2, seed=1,
                          request_distribution="latest")
    bench.load()
    proc = bench.make_procedure("ReadRecord")
    rng = random.Random(9)
    picks = [proc._pick_key(rng) for _ in range(2000)]
    recent = sum(1 for p in picks if p >= 150)
    assert recent / 2000 > 0.5
