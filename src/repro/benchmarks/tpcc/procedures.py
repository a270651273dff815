"""TPC-C's five transactions (spec §2), 45/43/4/4/4 default mixture."""

from __future__ import annotations

import random

from ...core.procedure import Procedure, UserAbort
from ...rand import nu_rand, tpcc_last_name
from .schema import nurand_a


class _TpccProcedure(Procedure):

    def _w_id(self, rng: random.Random) -> int:
        return rng.randint(1, int(self.params["warehouses"]))

    def _d_id(self, rng: random.Random) -> int:
        return rng.randint(1, int(self.params["districts"]))

    def _c_id(self, rng: random.Random) -> int:
        customers = int(self.params["customers_per_district"])
        a = nurand_a(customers, 3000, 1023)
        return nu_rand(rng, a, 1, customers)

    def _i_id(self, rng: random.Random) -> int:
        items = int(self.params["items"])
        a = nurand_a(items, 100_000, 8191)
        return nu_rand(rng, a, 1, items)

    def _last_name(self, rng: random.Random) -> str:
        customers = int(self.params["customers_per_district"])
        a = nurand_a(min(1000, customers), 1000, 255)
        return tpcc_last_name(nu_rand(rng, a, 0, min(999, customers - 1)))

    def _customer_by_last_name(self, cur, w_id: int, d_id: int,
                               last: str) -> tuple:
        """Spec §2.5.2.2: pick the middle row ordered by first name."""
        cur.execute(
            "SELECT c_id, c_first, c_balance FROM customer "
            "WHERE c_w_id = ? AND c_d_id = ? AND c_last = ? "
            "ORDER BY c_first", (w_id, d_id, last))
        rows = cur.fetchall()
        if not rows:
            raise UserAbort(f"no customer with last name {last!r}")
        return rows[len(rows) // 2]


class NewOrder(_TpccProcedure):
    """Enter a new order of 5-15 lines; 1% roll back on an invalid item."""

    name = "NewOrder"
    default_weight = 45

    def run(self, conn, rng):
        w_id = self._w_id(rng)
        d_id = self._d_id(rng)
        c_id = self._c_id(rng)
        ol_cnt = rng.randint(5, 15)
        warehouses = int(self.params["warehouses"])
        rollback_line = ol_cnt if rng.random() < 0.01 else 0

        cur = conn.cursor()
        cur.execute("SELECT w_tax FROM warehouse WHERE w_id = ?", (w_id,))
        w_tax = self.fetch_one(cur, "missing warehouse")[0]
        cur.execute(
            "SELECT c_discount, c_last, c_credit FROM customer "
            "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
            (w_id, d_id, c_id))
        c_discount = self.fetch_one(cur, "missing customer")[0]
        cur.execute(
            "SELECT d_next_o_id, d_tax FROM district "
            "WHERE d_w_id = ? AND d_id = ? FOR UPDATE", (w_id, d_id))
        o_id, d_tax = self.fetch_one(cur, "missing district")
        cur.execute(
            "UPDATE district SET d_next_o_id = ? "
            "WHERE d_w_id = ? AND d_id = ?", (o_id + 1, w_id, d_id))

        all_local = 1
        lines = []
        for number in range(1, ol_cnt + 1):
            if number == rollback_line:
                i_id = -1  # unused item id: forces the spec's 1% rollback
            else:
                i_id = self._i_id(rng)
            supply_w_id = w_id
            if warehouses > 1 and rng.random() < 0.01:
                supply_w_id = rng.choice(
                    [w for w in range(1, warehouses + 1) if w != w_id])
                all_local = 0
            lines.append((number, i_id, supply_w_id, rng.randint(1, 10)))

        cur.execute(
            "INSERT INTO oorder (o_id, o_d_id, o_w_id, o_c_id, o_entry_d, "
            "o_carrier_id, o_ol_cnt, o_all_local) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (o_id, d_id, w_id, c_id, 0.0, None, ol_cnt, all_local))
        cur.execute(
            "INSERT INTO new_order (no_o_id, no_d_id, no_w_id) "
            "VALUES (?, ?, ?)", (o_id, d_id, w_id))

        total = 0.0
        for number, i_id, supply_w_id, quantity in lines:
            cur.execute("SELECT i_price, i_name, i_data FROM item "
                        "WHERE i_id = ?", (i_id,))
            item = cur.fetchone()
            if item is None:
                raise UserAbort("invalid item id (spec 1% rollback)")
            price = item[0]
            cur.execute(
                "SELECT s_quantity, s_ytd, s_order_cnt, s_remote_cnt, "
                f"s_dist_{d_id:02d}, s_data FROM stock "
                "WHERE s_w_id = ? AND s_i_id = ? FOR UPDATE",
                (supply_w_id, i_id))
            stock = self.fetch_one(cur, "missing stock row")
            s_quantity = stock[0]
            if s_quantity - quantity >= 10:
                s_quantity -= quantity
            else:
                s_quantity = s_quantity - quantity + 91
            remote = 1 if supply_w_id != w_id else 0
            cur.execute(
                "UPDATE stock SET s_quantity = ?, s_ytd = s_ytd + ?, "
                "s_order_cnt = s_order_cnt + 1, "
                "s_remote_cnt = s_remote_cnt + ? "
                "WHERE s_w_id = ? AND s_i_id = ?",
                (s_quantity, quantity, remote, supply_w_id, i_id))
            amount = quantity * price
            total += amount
            cur.execute(
                "INSERT INTO order_line (ol_o_id, ol_d_id, ol_w_id, "
                "ol_number, ol_i_id, ol_supply_w_id, ol_delivery_d, "
                "ol_quantity, ol_amount, ol_dist_info) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (o_id, d_id, w_id, number, i_id, supply_w_id, None,
                 quantity, amount, stock[4]))
        conn.commit()
        return total * (1 - c_discount) * (1 + w_tax + d_tax)


class Payment(_TpccProcedure):
    """Record a customer payment; 60% address the customer by last name."""

    name = "Payment"
    default_weight = 43

    def run(self, conn, rng):
        w_id = self._w_id(rng)
        d_id = self._d_id(rng)
        amount = rng.uniform(1.0, 5000.0)
        warehouses = int(self.params["warehouses"])
        # 85% local customer; 15% pay through a remote warehouse.
        if warehouses > 1 and rng.random() < 0.15:
            c_w_id = rng.choice(
                [w for w in range(1, warehouses + 1) if w != w_id])
            c_d_id = self._d_id(rng)
        else:
            c_w_id, c_d_id = w_id, d_id

        cur = conn.cursor()
        cur.execute(
            "UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?",
            (amount, w_id))
        cur.execute("SELECT w_name FROM warehouse WHERE w_id = ?", (w_id,))
        w_name = self.fetch_one(cur, "missing warehouse")[0]
        cur.execute(
            "UPDATE district SET d_ytd = d_ytd + ? "
            "WHERE d_w_id = ? AND d_id = ?", (amount, w_id, d_id))
        cur.execute(
            "SELECT d_name FROM district WHERE d_w_id = ? AND d_id = ?",
            (w_id, d_id))
        d_name = self.fetch_one(cur, "missing district")[0]

        if rng.random() < 0.60:
            c_id = self._customer_by_last_name(
                cur, c_w_id, c_d_id, self._last_name(rng))[0]
        else:
            c_id = self._c_id(rng)
        cur.execute(
            "SELECT c_balance, c_ytd_payment, c_payment_cnt, c_credit, "
            "c_data FROM customer "
            "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ? FOR UPDATE",
            (c_w_id, c_d_id, c_id))
        row = self.fetch_one(cur, "missing customer")
        balance, ytd_payment, payment_cnt, credit, data = row
        balance -= amount
        ytd_payment += amount
        payment_cnt += 1
        if credit == "BC":
            # Bad-credit customers get the payment recorded in c_data.
            data = (f"{c_id} {c_d_id} {c_w_id} {d_id} {w_id} "
                    f"{amount:.2f}|" + data)[:500]
            cur.execute(
                "UPDATE customer SET c_balance = ?, c_ytd_payment = ?, "
                "c_payment_cnt = ?, c_data = ? "
                "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
                (balance, ytd_payment, payment_cnt, data,
                 c_w_id, c_d_id, c_id))
        else:
            cur.execute(
                "UPDATE customer SET c_balance = ?, c_ytd_payment = ?, "
                "c_payment_cnt = ? "
                "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
                (balance, ytd_payment, payment_cnt, c_w_id, c_d_id, c_id))
        h_id = next(self.params["history_id_counter"])
        cur.execute(
            "INSERT INTO history (h_c_id, h_c_d_id, h_c_w_id, h_d_id, "
            "h_w_id, h_date, h_amount, h_data, h_id) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (c_id, c_d_id, c_w_id, d_id, w_id, 0.0, amount,
             f"{w_name}    {d_name}"[:24], h_id))
        conn.commit()


class OrderStatus(_TpccProcedure):
    """Query a customer's most recent order and its lines (read only)."""

    name = "OrderStatus"
    read_only = True
    default_weight = 4

    def run(self, conn, rng):
        w_id = self._w_id(rng)
        d_id = self._d_id(rng)
        cur = conn.cursor()
        if rng.random() < 0.60:
            c_id = self._customer_by_last_name(
                cur, w_id, d_id, self._last_name(rng))[0]
        else:
            c_id = self._c_id(rng)
            cur.execute(
                "SELECT c_balance, c_first, c_middle, c_last FROM customer "
                "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
                (w_id, d_id, c_id))
            self.fetch_one(cur, "missing customer")
        cur.execute(
            "SELECT o_id, o_carrier_id, o_entry_d FROM oorder "
            "WHERE o_w_id = ? AND o_d_id = ? AND o_c_id = ? "
            "ORDER BY o_id DESC LIMIT 1", (w_id, d_id, c_id))
        order = cur.fetchone()
        if order is None:
            conn.commit()
            return None
        cur.execute(
            "SELECT ol_i_id, ol_supply_w_id, ol_quantity, ol_amount, "
            "ol_delivery_d FROM order_line "
            "WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?",
            (w_id, d_id, order[0]))
        lines = cur.fetchall()
        conn.commit()
        return order[0], lines


class Delivery(_TpccProcedure):
    """Deliver the oldest undelivered order of every district (batch)."""

    name = "Delivery"
    default_weight = 4

    def run(self, conn, rng):
        w_id = self._w_id(rng)
        carrier = rng.randint(1, 10)
        cur = conn.cursor()
        delivered = 0
        for d_id in range(1, int(self.params["districts"]) + 1):
            cur.execute(
                "SELECT no_o_id FROM new_order "
                "WHERE no_w_id = ? AND no_d_id = ? "
                "ORDER BY no_o_id ASC LIMIT 1 FOR UPDATE", (w_id, d_id))
            row = cur.fetchone()
            if row is None:
                continue  # skipped district: no pending orders
            o_id = row[0]
            cur.execute(
                "DELETE FROM new_order "
                "WHERE no_w_id = ? AND no_d_id = ? AND no_o_id = ?",
                (w_id, d_id, o_id))
            if cur.rowcount == 0:
                continue  # another terminal delivered it first
            cur.execute(
                "SELECT o_c_id FROM oorder "
                "WHERE o_w_id = ? AND o_d_id = ? AND o_id = ?",
                (w_id, d_id, o_id))
            c_id = self.fetch_one(cur, "order row vanished")[0]
            cur.execute(
                "UPDATE oorder SET o_carrier_id = ? "
                "WHERE o_w_id = ? AND o_d_id = ? AND o_id = ?",
                (carrier, w_id, d_id, o_id))
            cur.execute(
                "UPDATE order_line SET ol_delivery_d = ? "
                "WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?",
                (0.0, w_id, d_id, o_id))
            cur.execute(
                "SELECT SUM(ol_amount) FROM order_line "
                "WHERE ol_w_id = ? AND ol_d_id = ? AND ol_o_id = ?",
                (w_id, d_id, o_id))
            total = cur.fetchone()[0] or 0.0
            cur.execute(
                "UPDATE customer SET c_balance = c_balance + ?, "
                "c_delivery_cnt = c_delivery_cnt + 1 "
                "WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?",
                (total, w_id, d_id, c_id))
            delivered += 1
        conn.commit()
        return delivered


class StockLevel(_TpccProcedure):
    """Count recently sold items below a stock threshold (read only)."""

    name = "StockLevel"
    read_only = True
    default_weight = 4

    def run(self, conn, rng):
        w_id = self._w_id(rng)
        d_id = self._d_id(rng)
        threshold = rng.randint(10, 20)
        cur = conn.cursor()
        cur.execute(
            "SELECT d_next_o_id FROM district "
            "WHERE d_w_id = ? AND d_id = ?", (w_id, d_id))
        next_o_id = self.fetch_one(cur, "missing district")[0]
        cur.execute(
            "SELECT COUNT(DISTINCT ol.ol_i_id) "
            "FROM order_line ol JOIN stock s "
            "  ON s.s_w_id = ol.ol_w_id AND s.s_i_id = ol.ol_i_id "
            "WHERE ol.ol_w_id = ? AND ol.ol_d_id = ? "
            "  AND ol.ol_o_id < ? AND ol.ol_o_id >= ? "
            "  AND s.s_quantity < ?",
            (w_id, d_id, next_o_id, next_o_id - 20, threshold))
        count = cur.fetchone()[0]
        conn.commit()
        return count


PROCEDURES = (NewOrder, Payment, OrderStatus, Delivery, StockLevel)
