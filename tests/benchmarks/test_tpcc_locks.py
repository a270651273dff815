"""TPC-C lock and read footprints: what the ordered index walks buy.

A real DBMS answers Delivery's ``ORDER BY no_o_id LIMIT 1 FOR UPDATE``
by locking one ``new_order`` row per district, OrderStatus's newest
order of a customer by reading one ``oorder`` row, and StockLevel's
``ol_o_id`` range by reading only the last 20 orders' lines.  These
tests pin those footprints, independent of how large the tables grow,
and check that concurrent Deliveries on one warehouse's districts still
deliver every order once.
"""

import random
import sys
import threading

import pytest

from repro.benchmarks.tpcc import TpccBenchmark
from repro.core.procedure import UserAbort
from repro.engine import Database, connect
from repro.engine.txn import SNAPSHOT
from repro.errors import DeadlockError, LockTimeoutError

DELIVERY_SELECT = (
    "SELECT no_o_id FROM new_order WHERE no_w_id = ? AND no_d_id = ? "
    "ORDER BY no_o_id ASC LIMIT 1 FOR UPDATE")
ORDER_STATUS_SELECT = (
    "SELECT o_id, o_carrier_id, o_entry_d FROM oorder "
    "WHERE o_w_id = ? AND o_d_id = ? AND o_c_id = ? "
    "ORDER BY o_id DESC LIMIT 1")
STOCK_LEVEL_JOIN = (
    "SELECT COUNT(DISTINCT ol.ol_i_id) "
    "FROM order_line ol JOIN stock s "
    "  ON s.s_w_id = ol.ol_w_id AND s.s_i_id = ol.ol_i_id "
    "WHERE ol.ol_w_id = ? AND ol.ol_d_id = ? "
    "  AND ol.ol_o_id < ? AND ol.ol_o_id >= ? "
    "  AND s.s_quantity < ?")


def make_tpcc(initial_orders=30):
    bench = TpccBenchmark(Database(), scale_factor=1, seed=7, districts=3,
                          customers_per_district=initial_orders, items=150,
                          initial_orders=initial_orders)
    bench.load()
    return bench


def scalar(db, sql, params=()):
    # Snapshot reads take no locks, so they never wait on the caller's
    # own open transaction.
    txn = db.begin(SNAPSHOT)
    try:
        return db.execute(txn, sql, params).rows[0][0]
    finally:
        db.rollback(txn)


def run(bench, name, times, seed):
    conn = connect(bench.database)
    rng = random.Random(seed)
    proc = bench.make_procedure(name)
    for _ in range(times):
        try:
            proc.run(conn, rng)
        except UserAbort:  # NewOrder's spec-mandated 1% rollback
            conn.rollback()
    conn.close()


def test_delivery_select_locks_one_new_order_row_per_district():
    bench = make_tpcc()
    db = bench.database
    # Deliver a few orders first: their deleted keys stay in the index
    # until pruning, and the walk must step over them without locking.
    run(bench, "Delivery", 3, seed=1)
    conn = connect(db)
    cur = conn.cursor()
    locks = db.lock_manager.stats
    for d_id in range(1, 4):
        pending = scalar(db, "SELECT COUNT(*) FROM new_order "
                             "WHERE no_w_id = 1 AND no_d_id = ?", (d_id,))
        assert pending > 1
        before = locks.acquisitions
        cur.execute(DELIVERY_SELECT, (1, d_id))
        oldest = cur.fetchone()[0]
        assert locks.acquisitions - before == 1
        assert oldest == scalar(db, "SELECT MIN(no_o_id) FROM new_order "
                                    "WHERE no_w_id = 1 AND no_d_id = ?",
                                (d_id,))
    conn.commit()
    conn.close()


@pytest.mark.parametrize("extra_orders", [0, 60])
def test_order_status_reads_one_order_of_the_customer(extra_orders):
    bench = make_tpcc()
    db = bench.database
    run(bench, "NewOrder", 60, seed=5)
    conn = connect(db)
    cur = conn.cursor()
    # Give customer 7 of district 2 many more orders than the loader did.
    for o_id in range(1000, 1000 + extra_orders):
        cur.execute("INSERT INTO oorder VALUES (?, 2, 1, 7, 0, NULL, 5, 1)",
                    (o_id,))
    conn.commit()
    orders = scalar(db, "SELECT COUNT(*) FROM oorder WHERE o_w_id = 1 "
                        "AND o_d_id = 2 AND o_c_id = 7")
    assert orders >= 1 + extra_orders
    cur.execute(ORDER_STATUS_SELECT, (1, 2, 7))
    newest = cur.fetchone()[0]
    conn.commit()
    assert newest == scalar(db, "SELECT MAX(o_id) FROM oorder WHERE "
                                "o_w_id = 1 AND o_d_id = 2 AND o_c_id = 7")
    stats = conn.last_txn_stats
    assert stats.full_scans == 0
    assert stats.rows_examined == 1
    conn.close()


@pytest.mark.parametrize("new_orders", [0, 120])
def test_stock_level_reads_only_its_twenty_orders(new_orders):
    bench = make_tpcc()
    db = bench.database
    run(bench, "NewOrder", new_orders, seed=3)
    next_o_id = scalar(db, "SELECT d_next_o_id FROM district "
                           "WHERE d_w_id = 1 AND d_id = 1")
    lines = scalar(db, "SELECT COUNT(*) FROM order_line WHERE ol_w_id = 1 "
                       "AND ol_d_id = 1 AND ol_o_id >= ? AND ol_o_id < ?",
                   (next_o_id - 20, next_o_id))
    assert scalar(db, "SELECT COUNT(*) FROM order_line") > 4 * lines
    conn = connect(db)
    conn.cursor().execute(STOCK_LEVEL_JOIN,
                          (1, 1, next_o_id, next_o_id - 20, 20))
    conn.commit()
    stats = conn.last_txn_stats
    assert stats.full_scans == 0
    # Each of the 20 orders' lines, plus one stock probe per line.
    assert stats.rows_examined == 2 * lines
    conn.close()


WORKERS, RUNS = 4, 3  # more workers than cores; enough runs for all


def test_concurrent_deliveries_deliver_each_order_once():
    bench = make_tpcc()
    db = bench.database
    pending = scalar(db, "SELECT COUNT(*) FROM new_order")
    delivery_cnt = scalar(db, "SELECT SUM(c_delivery_cnt) FROM customer")
    delivered = []
    errors = []

    def worker(seed):
        conn = connect(db)
        rng = random.Random(seed)
        proc = bench.make_procedure("Delivery")
        try:
            for _ in range(RUNS):
                while True:
                    try:
                        delivered.append(proc.run(conn, rng))
                        break
                    except (DeadlockError, LockTimeoutError):
                        conn.rollback()
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, args=(seed,))
               for seed in range(WORKERS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the workers finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    total = sum(delivered)
    assert total == min(pending, WORKERS * RUNS * 3)
    assert scalar(db, "SELECT COUNT(*) FROM new_order") == pending - total
    assert scalar(db, "SELECT SUM(c_delivery_cnt) FROM customer") == \
        delivery_cnt + total
    assert scalar(db, "SELECT COUNT(*) FROM oorder "
                      "WHERE o_carrier_id IS NULL") == pending - total
    assert bench.check_consistency() == {
        "d_next_o_id": True, "new_order_contiguous": True}
