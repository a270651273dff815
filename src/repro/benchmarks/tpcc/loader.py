"""TPC-C data generator following the spec's population rules (§4.3)."""

from __future__ import annotations

import itertools
import random

from ...engine.database import Database
from ...rand import (nu_rand, random_numeric_string, random_string,
                     tpcc_last_name)
from .schema import nurand_a


class TpccLoader:
    """Loads warehouses with the spec ratios at configurable sizes."""

    def __init__(self, database: Database, warehouses: int, districts: int,
                 customers_per_district: int, items: int,
                 initial_orders: int, rng: random.Random) -> None:
        self.db = database
        self.warehouses = warehouses
        self.districts = districts
        self.customers = customers_per_district
        self.items = items
        self.initial_orders = min(initial_orders, customers_per_district)
        self.rng = rng
        self._history_ids = itertools.count(1)
        self._lastname_a = nurand_a(
            min(1000, customers_per_district), 1000, 255)

    # -- helpers -----------------------------------------------------------

    def _zip(self) -> str:
        return random_numeric_string(self.rng, 4) + "11111"

    def _address(self) -> tuple[str, str, str, str, str]:
        rng = self.rng
        return (random_string(rng, 10, 20), random_string(rng, 10, 20),
                random_string(rng, 10, 20),
                random_string(rng, 2, 2).upper(), self._zip())

    def _data_string(self, min_len: int, max_len: int) -> str:
        """Payload data; 10% contain "ORIGINAL" per spec §4.3.3.1."""
        data = random_string(self.rng, min_len, max_len)
        if self.rng.random() < 0.10:
            pos = self.rng.randint(0, max(0, len(data) - 8))
            data = data[:pos] + "ORIGINAL" + data[pos + 8:]
        return data

    def _customer_last_name(self, c_id: int) -> str:
        if c_id <= 1000:
            return tpcc_last_name(c_id - 1)
        return tpcc_last_name(
            nu_rand(self.rng, self._lastname_a, 0,
                    min(999, self.customers - 1)))

    # -- load phases ---------------------------------------------------------

    def load(self) -> None:
        self._load_items()
        for w_id in range(1, self.warehouses + 1):
            self._load_warehouse(w_id)

    def _load_items(self) -> None:
        rng = self.rng
        batch = []
        for i_id in range(1, self.items + 1):
            batch.append((
                i_id, rng.randint(1, 10_000), random_string(rng, 14, 24),
                rng.uniform(1.0, 100.0), self._data_string(26, 50)))
            if len(batch) >= 2000:
                self.db.bulk_insert("item", batch)
                batch = []
        if batch:
            self.db.bulk_insert("item", batch)

    def _load_warehouse(self, w_id: int) -> None:
        rng = self.rng
        street_1, street_2, city, state, zip_code = self._address()
        self.db.bulk_insert("warehouse", [(
            w_id, random_string(rng, 6, 10), street_1, street_2, city,
            state, zip_code, rng.uniform(0.0, 0.2), 300_000.0)])
        self._load_stock(w_id)
        for d_id in range(1, self.districts + 1):
            self._load_district(w_id, d_id)

    def _load_stock(self, w_id: int) -> None:
        rng = self.rng
        batch = []
        for i_id in range(1, self.items + 1):
            dists = tuple(random_string(rng, 24) for _ in range(10))
            batch.append((
                i_id, w_id, rng.randint(10, 100), *dists,
                0.0, 0, 0, self._data_string(26, 50)))
            if len(batch) >= 2000:
                self.db.bulk_insert("stock", batch)
                batch = []
        if batch:
            self.db.bulk_insert("stock", batch)

    def _load_district(self, w_id: int, d_id: int) -> None:
        rng = self.rng
        street_1, street_2, city, state, zip_code = self._address()
        next_o_id = self.initial_orders + 1
        self.db.bulk_insert("district", [(
            d_id, w_id, random_string(rng, 6, 10), street_1, street_2,
            city, state, zip_code, rng.uniform(0.0, 0.2), 30_000.0,
            next_o_id)])
        self._load_customers(w_id, d_id)
        self._load_orders(w_id, d_id)

    def _load_customers(self, w_id: int, d_id: int) -> None:
        rng = self.rng
        customers, history = [], []
        for c_id in range(1, self.customers + 1):
            street_1, street_2, city, state, zip_code = self._address()
            credit = "BC" if rng.random() < 0.10 else "GC"
            customers.append((
                c_id, d_id, w_id, random_string(rng, 8, 16), "OE",
                self._customer_last_name(c_id), street_1, street_2, city,
                state, zip_code,
                random_numeric_string(rng, 16),
                0.0, credit, 50_000.0, rng.uniform(0.0, 0.5),
                -10.0, 10.0, 1, 0, random_string(rng, 300, 500)))
            history.append((
                c_id, d_id, w_id, d_id, w_id, 0.0, 10.0,
                random_string(rng, 12, 24), next(self._history_ids)))
            if len(customers) >= 1000:
                self.db.bulk_insert("customer", customers)
                self.db.bulk_insert("history", history)
                customers, history = [], []
        if customers:
            self.db.bulk_insert("customer", customers)
            self.db.bulk_insert("history", history)

    def _load_orders(self, w_id: int, d_id: int) -> None:
        rng = self.rng
        # Every initial order belongs to a distinct customer (random perm).
        c_ids = list(range(1, self.customers + 1))
        rng.shuffle(c_ids)
        new_order_start = int(self.initial_orders * 0.70) + 1
        orders, lines, new_orders = [], [], []
        for o_id in range(1, self.initial_orders + 1):
            is_new = o_id >= new_order_start
            ol_cnt = rng.randint(5, 15)
            carrier = None if is_new else rng.randint(1, 10)
            orders.append((
                o_id, d_id, w_id, c_ids[o_id - 1], 0.0, carrier, ol_cnt, 1))
            if is_new:
                new_orders.append((o_id, d_id, w_id))
            for number in range(1, ol_cnt + 1):
                amount = 0.0 if not is_new else rng.uniform(0.01, 9999.99)
                delivery = None if is_new else 0.0
                lines.append((
                    o_id, d_id, w_id, number, rng.randint(1, self.items),
                    w_id, delivery, 5, amount, random_string(rng, 24)))
            if len(lines) >= 2000:
                self.db.bulk_insert("oorder", orders)
                self.db.bulk_insert("order_line", lines)
                if new_orders:
                    self.db.bulk_insert("new_order", new_orders)
                orders, lines, new_orders = [], [], []
        if orders:
            self.db.bulk_insert("oorder", orders)
            self.db.bulk_insert("order_line", lines)
            if new_orders:
                self.db.bulk_insert("new_order", new_orders)
