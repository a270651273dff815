"""In-process A/B of two source trees on TPC-C: a per-transaction cost ratio.

Two perfbench runs of different trees land minutes apart, and a shared
host's speed can swing by more than the change being measured.  This
script imports both trees' ``repro`` packages side by side in one process
and alternates fixed chunks of TPC-C transactions between them, so each
chunk pair sees the same host conditions.  Both sides load the same data
(perfbench's tpcc-sim sizes) and draw the same transaction stream from
equal seeds; each chunk is timed in process CPU time from a collected
heap, and which side runs first alternates from chunk to chunk.  Each
side's connection is wrapped in its tree's ``FaultingConnection``
(unarmed), as every executor worker's is, so the ratio includes the
cost of the wrapper's statement path.

    python benchmarks/ab_trees.py PARENT_TREE CHANGE_TREE \\
        [--chunks 40] [--mixture 45/43/4/4/4]

A tree is a checkout's root (the directory holding ``src/repro``); make
the parent's with ``git archive <sha> | tar -x -C <dir>``.  The mixture
weights NewOrder/Payment/OrderStatus/Delivery/StockLevel.  The script
prints one JSON object: the median parent/change time ratio over the
chunks (above 1 means the change is faster), its quartiles, and how many
chunks the change won.  Pin the process to one core (``taskset -c 1``)
for steadier numbers.

Because each chunk starts from a collected heap (``gc.collect()`` before
its timer starts), a chunk rarely pays for a full collection: the ratio
leaves out most of the cyclic collector's time and cannot size a change
to what the collector walks.  Measure such a change end to end, or time
the collector itself (``gc.callbacks``) over a run that does not collect
between chunks.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time
from pathlib import Path
from statistics import median, quantiles

CHUNK_TXNS = 100
SEED = 7
#: perfbench's tpcc-sim population.
SIZES = dict(scale_factor=1, districts=2, customers_per_district=40,
             items=100, initial_orders=25)
#: The transaction types a mixture weights, in its order.
NAMES = ("NewOrder", "Payment", "OrderStatus", "Delivery", "StockLevel")


def _repro_names() -> list[str]:
    return [name for name in sys.modules if name.split(".")[0] == "repro"]


def load(tree: Path) -> dict:
    """Import ``tree``'s ``repro`` package; return its modules."""
    for name in _repro_names():
        del sys.modules[name]
    path = str(tree / "src")
    sys.path.insert(0, path)
    try:
        import repro.benchmarks.tpcc  # noqa: F401
        import repro.core.procedure  # noqa: F401
        import repro.engine  # noqa: F401
        import repro.faults  # noqa: F401
    finally:
        sys.path.remove(path)
    return {name: sys.modules[name] for name in _repro_names()}


def activate(modules: dict) -> None:
    """Make ``modules`` the ones ``import repro...`` resolves to.

    Code that imports lazily looks its modules up in ``sys.modules`` at
    call time, so this runs before every chunk of that tree.
    """
    for name in _repro_names():
        del sys.modules[name]
    sys.modules.update(modules)


class Side:
    """One tree: its modules, a loaded TPC-C database and a connection."""

    def __init__(self, tree: Path) -> None:
        self.modules = load(tree)
        tpcc = self.modules["repro.benchmarks.tpcc"]
        engine = self.modules["repro.engine"]
        self.user_abort = self.modules["repro.core.procedure"].UserAbort
        self.bench = tpcc.TpccBenchmark(engine.Database(), seed=SEED,
                                        **SIZES)
        self.bench.load()
        # Wrapped as executors._open_worker wraps a worker's connection.
        self.conn = self.modules["repro.faults"].FaultingConnection(
            engine.connect(self.bench.database))
        self.rng = random.Random(SEED)
        self.times: list[float] = []

    def run_chunk(self, weights: list[float]) -> None:
        activate(self.modules)
        rng = self.rng
        picks = rng.choices(NAMES, weights, k=CHUNK_TXNS)
        procs = [self.bench.make_procedure(name) for name in picks]
        gc.collect()
        start = time.process_time()
        for proc in procs:
            try:
                proc.run(self.conn, rng)
            except self.user_abort:  # NewOrder's spec-mandated rollback
                self.conn.rollback()
        self.times.append(time.process_time() - start)


def parse_mixture(text: str) -> list[float]:
    try:
        weights = [float(part) for part in text.split("/")]
    except ValueError:
        weights = []
    if len(weights) != len(NAMES) or min(weights) < 0 or not sum(weights):
        raise argparse.ArgumentTypeError(
            f"mixture needs {len(NAMES)} non-negative weights, "
            f"got {text!r}")
    return weights


def compare(parent: Side, change: Side, chunks: int,
            weights: list[float]) -> dict:
    for i in range(chunks):
        order = (parent, change) if i % 2 == 0 else (change, parent)
        for side in order:
            side.run_chunk(weights)
    ratios = [p / c for p, c in zip(parent.times, change.times)]
    q1, _q2, q3 = (quantiles(ratios, n=4, method="inclusive")
                   if len(ratios) > 1 else (ratios[0],) * 3)
    return {
        "chunks": chunks,
        "txns_per_chunk": CHUNK_TXNS,
        "mixture": weights,
        "ratio_median": round(median(ratios), 4),
        "ratio_q1": round(q1, 4),
        "ratio_q3": round(q3, 4),
        "change_wins": sum(c < p for p, c in zip(parent.times,
                                                 change.times)),
        "parent_ms_per_txn": round(median(parent.times) / CHUNK_TXNS * 1e3,
                                   4),
        "change_ms_per_txn": round(median(change.times) / CHUNK_TXNS * 1e3,
                                   4),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="parent source tree")
    parser.add_argument("change", type=Path, help="changed source tree")
    parser.add_argument("--chunks", type=int, default=40,
                        help="chunk pairs to run (default 40)")
    parser.add_argument("--mixture", type=parse_mixture,
                        default="45/43/4/4/4",
                        help="/".join(NAMES) + " weights "
                             "(default 45/43/4/4/4)")
    args = parser.parse_args(argv)
    if args.chunks < 1:
        parser.error("--chunks must be at least 1")
    for tree in (args.parent, args.change):
        if not (tree / "src" / "repro").is_dir():
            parser.error(f"{tree} has no src/repro")
    parent = Side(args.parent.resolve())
    change = Side(args.change.resolve())
    print(json.dumps(compare(parent, change, args.chunks, args.mixture)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
