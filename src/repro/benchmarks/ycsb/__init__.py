"""YCSB: the Yahoo! Cloud Serving Benchmark (key-value CRUD over SQL).

Paper Table 1 class: Feature Testing — "Scalable Key-value Store".
"""

from __future__ import annotations

import itertools
import random

from ...core.benchmark import BenchmarkModule, CLASS_FEATURE
from ...rand import random_string
from .procedures import ALL_FIELDS, PROCEDURES
from .schema import DDL, FIELD_COUNT, FIELD_LENGTH, RECORDS_PER_SF


class YcsbBenchmark(BenchmarkModule):
    """YCSB with zipfian/uniform/latest/hotspot request distributions."""

    name = "ycsb"
    domain = "Scalable Key-value Store"
    benchmark_class = CLASS_FEATURE
    procedures = PROCEDURES

    def __init__(self, database, scale_factor=1.0, seed=None,
                 request_distribution: str = "zipfian") -> None:
        super().__init__(database, scale_factor, seed)
        self.params["request_distribution"] = request_distribution

    def ddl(self):
        return DDL

    def load_data(self, rng: random.Random) -> None:
        record_count = max(1, int(RECORDS_PER_SF * self.scale_factor))
        batch: list[tuple] = []
        for key in range(record_count):
            fields = tuple(random_string(rng, FIELD_LENGTH)
                           for _ in range(FIELD_COUNT))
            batch.append((key, *fields))
            if len(batch) >= 1000:
                self.database.bulk_insert("usertable", batch)
                batch = []
        if batch:
            self.database.bulk_insert("usertable", batch)
        self.params["record_count"] = record_count
        self.params["insert_key_counter"] = itertools.count(record_count)

    def _derive_params(self) -> None:
        self.params["record_count"] = int(
            self.scalar("SELECT COUNT(*) FROM usertable") or 0) or 1
        next_key = int(
            self.scalar("SELECT MAX(ycsb_key) FROM usertable") or -1) + 1
        self.params["insert_key_counter"] = itertools.count(next_key)
