"""SEATS: on-line airline ticketing (Transactional, paper Table 1).

Reservations hold a per-flight seat-uniqueness invariant which the test
suite checks: ``f_seats_total - f_seats_left`` must equal the reservation
count of the flight at all times.
"""

from __future__ import annotations

import itertools
import random

from ...core.benchmark import BenchmarkModule, CLASS_TRANSACTIONAL
from .procedures import PROCEDURES
from .schema import (AIRLINES, AIRPORTS, CUSTOMERS_PER_SF, DDL,
                     FLIGHTS_PER_SF, FLIGHT_HORIZON_HOURS,
                     INITIAL_OCCUPANCY, SEATS_PER_FLIGHT)


class SeatsBenchmark(BenchmarkModule):
    """Airline booking workload."""

    name = "seats"
    domain = "On-line Airline Ticketing"
    benchmark_class = CLASS_TRANSACTIONAL
    procedures = PROCEDURES

    def ddl(self):
        return DDL

    def load_data(self, rng: random.Random) -> None:
        customers = max(2, int(CUSTOMERS_PER_SF * self.scale_factor))
        flights = max(2, int(FLIGHTS_PER_SF * self.scale_factor))
        horizon = FLIGHT_HORIZON_HOURS * 3600.0

        self.database.bulk_insert("country", [
            (0, "United States", "USA"), (1, "Canada", "CAN")])
        self.database.bulk_insert("airport", [
            (ap, f"A{ap:02d}", f"Airport {ap}", ap % 2)
            for ap in range(AIRPORTS)])
        self.database.bulk_insert("airline", [
            (al, f"Airline {al}", al % 2) for al in range(AIRLINES)])
        self.database.bulk_insert("customer", [
            (c, f"C{c:012d}", rng.randrange(AIRPORTS),
             rng.uniform(100.0, 1000.0))
            for c in range(customers)])
        ff_rows = []
        for c in range(customers):
            for al in rng.sample(range(AIRLINES), rng.randint(0, 2)):
                ff_rows.append((c, al, f"C{c:012d}"))
        if ff_rows:
            self.database.bulk_insert("frequent_flyer", ff_rows)

        flight_rows = []
        for f_id in range(flights):
            depart_ap = rng.randrange(AIRPORTS)
            arrive_ap = rng.randrange(AIRPORTS)
            while arrive_ap == depart_ap:
                arrive_ap = rng.randrange(AIRPORTS)
            depart_time = rng.uniform(0, horizon)
            flight_rows.append((
                f_id, rng.randrange(AIRLINES), depart_ap, arrive_ap,
                depart_time, depart_time + rng.uniform(3600, 6 * 3600),
                rng.uniform(100.0, 1000.0), SEATS_PER_FLIGHT,
                SEATS_PER_FLIGHT))
        self.database.bulk_insert("flight", flight_rows)

        reservation_counter = itertools.count(1)
        reservations = []
        seats_left: dict[int, int] = {f: SEATS_PER_FLIGHT
                                      for f in range(flights)}
        for f_id in range(flights):
            occupied = rng.sample(
                range(SEATS_PER_FLIGHT),
                int(SEATS_PER_FLIGHT * INITIAL_OCCUPANCY))
            for seat in occupied:
                reservations.append((
                    next(reservation_counter), rng.randrange(customers),
                    f_id, seat, rng.uniform(100.0, 1000.0)))
                seats_left[f_id] -= 1
            if len(reservations) >= 2000:
                self.database.bulk_insert("reservation", reservations)
                reservations = []
        if reservations:
            self.database.bulk_insert("reservation", reservations)
        # Reconcile the denormalised seat counters with actual bookings.
        txn = self.database.begin()
        try:
            for f_id, left in seats_left.items():
                self.database.execute(
                    txn, "UPDATE flight SET f_seats_left = ? WHERE f_id = ?",
                    (left, f_id))
            self.database.commit(txn)
        except Exception:
            self.database.rollback(txn)
            raise

        self.params.update({
            "customer_count": customers,
            "flight_count": flights,
            "airport_count": AIRPORTS,
            "horizon": horizon,
            "reservation_id_counter": reservation_counter,
        })

    def check_seat_invariant(self) -> bool:
        """Every flight: seats_total - seats_left == reservation count."""
        txn = self.database.begin()
        try:
            result = self.database.execute(
                txn,
                "SELECT f.f_id, f.f_seats_total, f.f_seats_left, "
                "COUNT(r.r_id) AS booked "
                "FROM flight f LEFT JOIN reservation r ON r.r_f_id = f.f_id "
                "GROUP BY f.f_id, f.f_seats_total, f.f_seats_left")
            return all(total - left == booked
                       for _f, total, left, booked in result.rows)
        finally:
            self.database.rollback(txn)

    def _derive_params(self) -> None:
        self.params["customer_count"] = int(
            self.scalar("SELECT COUNT(*) FROM customer") or 0) or 2
        self.params["flight_count"] = int(
            self.scalar("SELECT COUNT(*) FROM flight") or 0) or 2
        self.params["airport_count"] = int(
            self.scalar("SELECT COUNT(*) FROM airport") or 0) or 2
        self.params["horizon"] = float(self.scalar(
            "SELECT MAX(f_depart_time) FROM flight") or 3600.0)
        self.params["reservation_id_counter"] = itertools.count(
            int(self.scalar("SELECT MAX(r_id) FROM reservation") or 0) + 1)
