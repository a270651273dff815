"""Shared fixtures: a fresh engine database and a miniature benchmark.

Also wires the lock-order/race watchdog (``repro.analysis.lockwatch``)
into pytest: run with ``--lockwatch`` to instrument every
``threading.Lock``/``RLock``/``Condition`` created during each test and
fail the test on lock-order inversions or guarded-field races.  Tests
that deliberately provoke violations opt out with the
``lockwatch_exempt`` marker.
"""

from __future__ import annotations

import random
import threading
import time

import pytest
from hypothesis import settings

from repro.analysis.lockwatch import LockWatch
from repro.core.benchmark import BenchmarkModule
from repro.core.manager import STATE_CREATED
from repro.core.procedure import Procedure
from repro.engine import Database, connect


#: A longer search for the sqlite differential tests, selected with
#: hypothesis's own ``--hypothesis-profile=sqlite-oracle-extended``;
#: tier-1 runs the default profile.
settings.register_profile("sqlite-oracle-extended", max_examples=1500)
#: The same for the Results-vs-batch-reference property test.
settings.register_profile("metrics-extended", max_examples=2000)


def pytest_addoption(parser):
    parser.addoption(
        "--lockwatch", action="store_true", default=False,
        help="instrument threading primitives with the lock-order "
             "watchdog and fail tests on inversions")


@pytest.fixture(autouse=True)
def _lockwatch_auto(request):
    """Test-wide watchdog, active only under ``--lockwatch``."""
    if not request.config.getoption("--lockwatch") or \
            request.node.get_closest_marker("lockwatch_exempt"):
        yield None
        return
    watch = LockWatch()
    with watch.installed():
        yield watch
    watch.assert_clean()


@pytest.fixture
def lockwatch():
    """Explicit watchdog for tests asserting on the order graph."""
    watch = LockWatch()
    with watch.installed():
        yield watch
    watch.assert_clean()


class ReadKv(Procedure):
    """Point-read one row of the kv table."""

    name = "Read"
    read_only = True
    default_weight = 70

    def run(self, conn, rng):
        cur = conn.cursor()
        cur.execute("SELECT v FROM kv WHERE k = ?",
                    (rng.randrange(int(self.params["rows"])),))
        cur.fetchall()
        conn.commit()


class WriteKv(Procedure):
    """Increment one row of the kv table."""

    name = "Write"
    default_weight = 30

    def run(self, conn, rng):
        cur = conn.cursor()
        cur.execute("UPDATE kv SET v = v + 1 WHERE k = ?",
                    (rng.randrange(int(self.params["rows"])),))
        conn.commit()


class MiniBenchmark(BenchmarkModule):
    """A two-transaction benchmark for driver-core and game tests."""

    name = "mini"
    domain = "Testing"
    procedures = (ReadKv, WriteKv)

    ROWS = 64

    def ddl(self):
        return ["CREATE TABLE kv (k INT PRIMARY KEY, v INT NOT NULL)"]

    def load_data(self, rng: random.Random) -> None:
        rows = max(1, int(self.ROWS * self.scale_factor))
        self.database.bulk_insert("kv", [(i, 0) for i in range(rows)])
        self.params["rows"] = rows


def call_into_run(manager, offset: float, action) -> threading.Thread:
    """Call ``action`` on a new thread ``offset`` seconds into
    ``manager``'s run, timed from the run's own start.

    The threaded pacer queues a whole second's arrivals at each tick
    (run start + k seconds), so a rate change takes effect at the next
    tick.  A change timed mid-second from the run's start cannot race a
    tick, as one timed from before ``executor.run()`` can.
    """
    def wait_and_call():
        while manager.state == STATE_CREATED:
            time.sleep(0.001)
        time.sleep(max(0.0, offset - manager.status()["elapsed"]))
        action()

    thread = threading.Thread(target=wait_and_call, daemon=True)
    thread.start()
    return thread


@pytest.fixture
def db() -> Database:
    return Database()


@pytest.fixture
def conn(db):
    connection = connect(db)
    yield connection
    connection.close()


@pytest.fixture
def mini_benchmark(db) -> MiniBenchmark:
    bench = MiniBenchmark(db, seed=42)
    bench.load()
    return bench


def execute(conn, sql, params=()):
    """Run one statement and return the cursor."""
    cur = conn.cursor()
    cur.execute(sql, params)
    return cur
