"""CH-benCHmark: mixed OLTP + OLAP over the TPC-C schema (Table 1).

Extends TPC-C with the TPC-H-inspired SUPPLIER/NATION/REGION tables and an
analytical query stream that runs concurrently with the five transactional
procedures.  The default mixture keeps ~90% transactional weight and ~10%
analytical, so the benchmark stresses the engine's ability to serve scans
under update traffic.
"""

from __future__ import annotations

import random

from ...core.benchmark import CLASS_TRANSACTIONAL
from ..tpcc import TpccBenchmark
from ..tpcc.procedures import PROCEDURES as TPCC_PROCEDURES
from .queries import QUERIES

SUPPLIERS = 100
NATIONS = [
    (0, "UNITED STATES", 0), (1, "CANADA", 0), (2, "BRAZIL", 0),
    (3, "GERMANY", 1), (4, "FRANCE", 1), (5, "UNITED KINGDOM", 1),
    (6, "CHINA", 2), (7, "JAPAN", 2), (8, "INDIA", 2),
]
REGIONS = [(0, "AMERICA"), (1, "EUROPE"), (2, "ASIA")]

EXTRA_DDL = [
    """
    CREATE TABLE region (
        r_id   INT PRIMARY KEY,
        r_name VARCHAR(25) NOT NULL
    )
    """,
    """
    CREATE TABLE nation (
        n_id   INT PRIMARY KEY,
        n_name VARCHAR(25) NOT NULL,
        n_r_id INT NOT NULL
    )
    """,
    """
    CREATE TABLE supplier (
        su_id      INT PRIMARY KEY,
        su_name    VARCHAR(25) NOT NULL,
        su_n_id    INT NOT NULL,
        su_acctbal FLOAT NOT NULL
    )
    """,
]


class ChBenchmark(TpccBenchmark):
    """TPC-C transactions plus an analytical query stream."""

    name = "chbenchmark"
    domain = "Mixture of OLTP and OLAP"
    benchmark_class = CLASS_TRANSACTIONAL
    procedures = tuple(TPCC_PROCEDURES) + tuple(QUERIES)

    def ddl(self):
        return list(super().ddl()) + EXTRA_DDL

    def load_data(self, rng: random.Random) -> None:
        super().load_data(rng)
        self.database.bulk_insert("region", REGIONS)
        self.database.bulk_insert("nation", NATIONS)
        self.database.bulk_insert("supplier", [
            (su, f"Supplier#{su:09d}", su % len(NATIONS),
             rng.uniform(-999.99, 9999.99))
            for su in range(SUPPLIERS)])
        self.params["supplier_count"] = SUPPLIERS

    def _derive_params(self) -> None:
        super()._derive_params()
        self.params["supplier_count"] = int(
            self.scalar("SELECT COUNT(*) FROM supplier") or 0) or 1
