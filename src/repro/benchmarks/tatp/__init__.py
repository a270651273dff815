"""TATP: Telecom Application Transaction Processing ("Caller Location App").

Paper Table 1 class: Transactional.  Models a Home Location Register under
the standard 80% read / 16% update / 4% insert-delete mix.
"""

from __future__ import annotations

import random

from ...core.benchmark import BenchmarkModule, CLASS_TRANSACTIONAL
from ...rand import random_numeric_string, random_string
from .procedures import PROCEDURES
from .schema import DDL, SUBSCRIBERS_PER_SF


class TatpBenchmark(BenchmarkModule):
    """HLR lookup/update workload."""

    name = "tatp"
    domain = "Caller Location App"
    benchmark_class = CLASS_TRANSACTIONAL
    procedures = PROCEDURES

    def ddl(self):
        return DDL

    def load_data(self, rng: random.Random) -> None:
        count = max(1, int(SUBSCRIBERS_PER_SF * self.scale_factor))
        subscribers, access, facilities, forwards = [], [], [], []
        for s_id in range(count):
            flags = [rng.randint(0, 1) for _ in range(10)]
            hexes = [rng.randint(0, 15) for _ in range(10)]
            bytes2 = [rng.randint(0, 255) for _ in range(10)]
            subscribers.append((
                s_id, f"{s_id:015d}", *flags, *hexes, *bytes2,
                rng.randrange(2 ** 31), rng.randrange(2 ** 31)))
            # 1..4 access-info records with distinct ai_types.
            ai_types = rng.sample((1, 2, 3, 4), rng.randint(1, 4))
            for ai_type in ai_types:
                access.append((
                    s_id, ai_type, rng.randint(0, 255), rng.randint(0, 255),
                    random_string(rng, 3).upper(),
                    random_string(rng, 5).upper()))
            # 1..4 special facilities, each with 0..3 forwarding entries.
            sf_types = rng.sample((1, 2, 3, 4), rng.randint(1, 4))
            for sf_type in sf_types:
                facilities.append((
                    s_id, sf_type, 1 if rng.random() < 0.85 else 0,
                    rng.randint(0, 255), rng.randint(0, 255),
                    random_string(rng, 5).upper()))
                for start_time in rng.sample((0, 8, 16),
                                             rng.randint(0, 3)):
                    forwards.append((
                        s_id, sf_type, start_time,
                        start_time + rng.randint(1, 8),
                        random_numeric_string(rng, 15)))
            if len(subscribers) >= 500:
                self._flush(subscribers, access, facilities, forwards)
                subscribers, access, facilities, forwards = [], [], [], []
        self._flush(subscribers, access, facilities, forwards)
        self.params["subscriber_count"] = count

    def _flush(self, subscribers, access, facilities, forwards) -> None:
        if subscribers:
            self.database.bulk_insert("subscriber", subscribers)
        if access:
            self.database.bulk_insert("access_info", access)
        if facilities:
            self.database.bulk_insert("special_facility", facilities)
        if forwards:
            self.database.bulk_insert("call_forwarding", forwards)

    def _derive_params(self) -> None:
        self.params["subscriber_count"] = int(
            self.scalar("SELECT COUNT(*) FROM subscriber") or 0) or 1
