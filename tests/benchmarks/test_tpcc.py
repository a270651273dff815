"""TPC-C: loader population rules, transaction logic, consistency."""

import random
import re

import pytest

from repro.benchmarks.tpcc import TpccBenchmark
from repro.benchmarks.tpcc.schema import nurand_a
from repro.engine import Database, connect
from repro.rand import tpcc_last_name

from .conftest import committed, run_mixture


@pytest.fixture(scope="module")
def tpcc():
    db = Database()
    bench = TpccBenchmark(db, scale_factor=1, seed=7, districts=3,
                          customers_per_district=40, items=150,
                          initial_orders=30)
    bench.load()
    return bench


def q(bench, sql, params=()):
    txn = bench.database.begin()
    try:
        return bench.database.execute(txn, sql, params).rows
    finally:
        bench.database.rollback(txn)


def test_population_ratios(tpcc):
    counts = tpcc.table_counts()
    assert counts["warehouse"] == 1
    assert counts["district"] == 3
    assert counts["customer"] == 3 * 40
    assert counts["history"] == 3 * 40  # one history row per customer
    assert counts["item"] == 150
    assert counts["stock"] == 150  # items x warehouses
    assert counts["oorder"] == 3 * 30
    # ~30% of initial orders are undelivered new orders.
    assert counts["new_order"] == pytest.approx(0.3 * 90, abs=6)


def test_initial_orders_cover_distinct_customers(tpcc):
    rows = q(tpcc, "SELECT COUNT(DISTINCT o_c_id) FROM oorder "
                   "WHERE o_w_id = 1 AND o_d_id = 1")
    assert rows[0][0] == 30  # random permutation: all distinct


def test_district_next_o_id_consistent_after_load(tpcc):
    assert tpcc.check_consistency() == {
        "d_next_o_id": True, "new_order_contiguous": True}


def test_new_order_creates_rows(tpcc):
    conn = connect(tpcc.database)
    rng = random.Random(11)
    before = q(tpcc, "SELECT COUNT(*) FROM oorder")[0][0]
    proc = tpcc.make_procedure("NewOrder")
    total = None
    for _ in range(10):
        try:
            total = proc.run(conn, rng)
            break
        except Exception:
            conn.rollback()
    assert total is not None and total > 0
    after = q(tpcc, "SELECT COUNT(*) FROM oorder")[0][0]
    assert after == before + 1
    conn.close()


def test_payment_updates_ytd_chain(tpcc):
    conn = connect(tpcc.database)
    rng = random.Random(13)
    w_ytd_before = q(tpcc, "SELECT SUM(w_ytd) FROM warehouse")[0][0]
    tpcc.make_procedure("Payment").run(conn, rng)
    conn.close()
    w_ytd_after = q(tpcc, "SELECT SUM(w_ytd) FROM warehouse")[0][0]
    assert w_ytd_after > w_ytd_before


def test_delivery_clears_new_orders(tpcc):
    conn = connect(tpcc.database)
    rng = random.Random(17)
    before = q(tpcc, "SELECT COUNT(*) FROM new_order")[0][0]
    delivered = tpcc.make_procedure("Delivery").run(conn, rng)
    conn.close()
    after = q(tpcc, "SELECT COUNT(*) FROM new_order")[0][0]
    assert delivered >= 1
    assert after == before - delivered


def test_order_status_reads_latest_order(tpcc):
    conn = connect(tpcc.database)
    rng = random.Random(19)
    result = tpcc.make_procedure("OrderStatus").run(conn, rng)
    if result is not None:
        o_id, lines = result
        assert o_id >= 1
        assert lines
    conn.close()


def test_stock_level_returns_count(tpcc):
    conn = connect(tpcc.database)
    rng = random.Random(23)
    count = tpcc.make_procedure("StockLevel").run(conn, rng)
    assert isinstance(count, int)
    assert count >= 0
    conn.close()


def test_mixture_run_stays_consistent(tpcc):
    outcomes = run_mixture(tpcc, iterations=150)
    assert committed(outcomes) > 120
    assert tpcc.check_consistency() == {
        "d_next_o_id": True, "new_order_contiguous": True}


def test_default_mixture_is_spec():
    bench = TpccBenchmark(Database())
    weights = bench.default_weights()
    assert weights["NewOrder"] == pytest.approx(45.0)
    assert weights["Payment"] == pytest.approx(43.0)
    assert weights["OrderStatus"] == pytest.approx(4.0)


def test_nurand_a_scaling():
    assert nurand_a(3000, 3000, 1023) == 1023  # spec population
    assert nurand_a(100_000, 100_000, 8191) == 8191
    reduced = nurand_a(60, 3000, 1023)
    assert 1 <= reduced < 60
    assert (reduced + 1) & reduced == 0  # 2^k - 1 shape
    assert nurand_a(2, 3000, 1023) == 1


def test_tpcc_last_name_syllables():
    assert tpcc_last_name(0) == "BARBARBAR"
    assert tpcc_last_name(371) == "PRICALLYOUGHT"
    assert tpcc_last_name(999) == "EINGEINGEING"


#: Spec §4.3.3.1 lengths of the loader's random strings.
SPEC_LENGTHS = {
    "warehouse": {"w_name": (6, 10), "w_street_1": (10, 20),
                  "w_street_2": (10, 20), "w_city": (10, 20),
                  "w_state": (2, 2)},
    "district": {"d_name": (6, 10), "d_street_1": (10, 20),
                 "d_street_2": (10, 20), "d_city": (10, 20),
                 "d_state": (2, 2)},
    "customer": {"c_first": (8, 16), "c_street_1": (10, 20),
                 "c_street_2": (10, 20), "c_city": (10, 20),
                 "c_state": (2, 2), "c_data": (300, 500)},
    "history": {"h_data": (12, 24)},
    "item": {"i_name": (14, 24), "i_data": (26, 50)},
    "stock": {**{f"s_dist_{n:02d}": (24, 24) for n in range(1, 11)},
              "s_data": (26, 50)},
    "order_line": {"ol_dist_info": (24, 24)},
}


@pytest.fixture(scope="module")
def tpcc_formats():
    bench = TpccBenchmark(Database(), scale_factor=1, seed=11, districts=2,
                          customers_per_district=30, items=2000,
                          initial_orders=10)
    bench.load()
    return bench


def column(bench, table, name):
    return [row[0] for row in q(bench, f"SELECT {name} FROM {table}")]


def test_loader_string_lengths_follow_the_spec(tpcc_formats):
    for table, columns in SPEC_LENGTHS.items():
        for name, (low, high) in columns.items():
            lengths = {len(v) for v in column(tpcc_formats, table, name)}
            assert low <= min(lengths) and max(lengths) <= high, name


def test_loader_zip_codes_and_phones(tpcc_formats):
    for table, name in (("warehouse", "w_zip"), ("district", "d_zip"),
                        ("customer", "c_zip")):
        for value in column(tpcc_formats, table, name):
            assert re.fullmatch(r"[0-9]{4}11111", value), (name, value)
    phones = column(tpcc_formats, "customer", "c_phone")
    assert all(re.fullmatch(r"[0-9]{16}", p) for p in phones)


def test_loader_marks_a_tenth_of_data_original(tpcc_formats):
    for table, name in (("item", "i_data"), ("stock", "s_data")):
        values = column(tpcc_formats, table, name)
        share = sum("ORIGINAL" in v for v in values) / len(values)
        assert 0.08 <= share <= 0.12, (name, share)
