"""Tests of the benchmark harness itself (not of the program it measures).

Run from the root of a checkout, without writing bytecode or caches::

    python3 -B perfbench/test_harness.py
    python3 -B -m pytest -p no:cacheprovider perfbench/test_harness.py

They take about two minutes: each workload (the declared ones and
``ycsb-open``, which stays runnable) runs once briefly untraced and once
traced.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import unittest  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SECONDS = "2"
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["ycsb-open"]

sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import workloads  # noqa: E402


def run_benchmark(workload: str, trace: int, *extra: str,
                  cwd: Path = ROOT, script: Path = RUN, seed: int = 3
                  ) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload,
         "--seed", str(seed), "--seconds", SMOKE_SECONDS,
         "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def tree_digest(root: Path) -> dict[str, str]:
    """Every file under ``root`` (tracked, untracked and ignored alike)."""
    digests = {}
    for directory, _dirs, files in os.walk(root):
        for name in files:
            path = Path(directory, name)
            digests[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests


class SmokeTest(unittest.TestCase):
    """A short pass of each workload emits every named metric."""

    records: dict[tuple[str, int], dict] = {}

    @classmethod
    def setUpClass(cls) -> None:
        cls.before = tree_digest(ROOT)
        for workload in WORKLOADS:
            for trace in (0, 1):
                done = run_benchmark(workload, trace)
                if done.returncode != 0:
                    raise AssertionError(
                        f"{workload} trace={trace} exited "
                        f"{done.returncode}:\n{done.stderr}")
                lines = done.stdout.strip().splitlines()
                cls.records[workload, trace] = {
                    "record": json.loads(lines[-2])["run_record"],
                    "result": json.loads(lines[-1]),
                }
        cls.after = tree_digest(ROOT)

    def test_result_line_has_the_contract_keys(self) -> None:
        for (workload, trace), run in self.records.items():
            result = run["result"]
            self.assertEqual(
                set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertIs(result["correct"], True, (workload, trace))
            self.assertGreaterEqual(result["attempted"], 1)
            self.assertIsInstance(result["failed"], int)

    def test_every_metric_is_emitted_with_its_unit(self) -> None:
        declared = {
            0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
            1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
        }
        for (workload, trace), run in self.records.items():
            metrics = run["result"]["metrics"]
            self.assertEqual(set(metrics), set(declared[trace]),
                             (workload, trace))
            for name, metric in metrics.items():
                self.assertEqual(metric["unit"], declared[trace][name])
                self.assertIsInstance(metric["value"], float)
                self.assertIn("samples", run["record"]["metrics"][name])
            if trace == 0:
                for name, metric in metrics.items():
                    self.assertGreater(metric["value"], 0,
                                       (workload, name))

    def test_run_record_fields(self) -> None:
        for run in self.records.values():
            record = run["record"]
            for field in ("git_sha", "source_sha256", "nproc", "cpu_model",
                          "python", "seed", "checks", "outcomes"):
                self.assertIn(field, record)
            self.assertTrue(all(record["checks"].values()), record["checks"])

    def test_sim_digest_repeats_across_processes(self) -> None:
        digests = {self.records["tpcc-sim", trace]["record"]["outcomes"]
                   ["digest"] for trace in (0, 1)}
        self.assertEqual(len(digests), 1)

    def test_workspace_unchanged(self) -> None:
        self.assertEqual(self.before, self.after)


class TracerTest(unittest.TestCase):

    @staticmethod
    def _targets():
        from repro.api import control
        from repro.benchmarks.tpcc import TpccBenchmark
        from repro.benchmarks.ycsb import YcsbBenchmark
        from repro.core import executors, manager, requestqueue, results
        from repro.engine import database, locks
        owners = [manager.WorkloadManager, requestqueue.RequestQueue,
                  executors, database.Database, locks.LockManager,
                  results.Results, control.ControlApi,
                  *TpccBenchmark.procedures, *YcsbBenchmark.procedures]
        return {(owner, name): value for owner in owners
                for name, value in vars(owner).items()}

    def test_traced_run_restores_every_wrapped_function(self) -> None:
        before = self._targets()
        report = workloads.run("tpcc-sim", seed=5, seconds=1.0, trace=True)
        after = self._targets()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])
        self.assertEqual(report.tracer.installed, 0)
        self.assertGreater(len(report.tracer.spans()), 0)

    def test_install_wraps_then_uninstall_restores(self) -> None:
        from repro.benchmarks.tpcc import TpccBenchmark
        from tracing import Tracer
        before = self._targets()
        tracer = Tracer()
        layers.install(tracer, TpccBenchmark)
        during = self._targets()
        self.assertTrue(any(before[key] is not during[key]
                            for key in before))
        tracer.uninstall()
        after = self._targets()
        self.assertTrue(all(before[key] is after[key] for key in before))

    def test_self_time_subtracts_children(self) -> None:
        from tracing import self_times
        spans = [
            ("child", 1.0, 2.0, (0, 1), (0, 0), None, None),
            ("child", 2.5, 3.0, (0, 2), (0, 0), None, None),
            ("parent", 0.0, 4.0, (0, 0), None, None, None),
        ]
        self.assertEqual(self_times(spans, "parent"), [2.5])


class StatisticsTest(unittest.TestCase):

    def test_mixture_figures_use_configured_shares(self) -> None:
        costs = {"light": [1.0] * 90, "heavy": [10.0] * 10}
        # Drawn 90/10 but configured 50/50: the figures follow the config.
        weights = {"light": 50.0, "heavy": 50.0}
        self.assertEqual(workloads.mixture_median(costs, weights), 5.5)
        self.assertEqual(workloads.mixture_pct(costs, weights, 40), 1.0)
        self.assertEqual(workloads.mixture_pct(costs, weights, 60), 10.0)


class HostSpeedTest(unittest.TestCase):

    def test_factor_is_the_mean_speed_over_the_interval(self) -> None:
        from hostspeed import REFERENCE_SPEED, HostSpeed
        speed = HostSpeed()
        for at, factor in ((1.0, 0.5), (2.0, 1.0), (3.0, 2.0), (4.0, 4.0),
                           (6.0, 1.0)):
            speed.add(at, factor * REFERENCE_SPEED)
        self.assertEqual(speed.factor(1.5, 3.5), 1.5)
        # A short interval is widened to MIN_SPAN around its middle ...
        self.assertEqual(speed.factor(3.4, 3.6), 3.0)
        # ... and one with no sample takes the samples around it.
        self.assertEqual(speed.factor(4.8, 5.2), 2.5)

    def test_sampler_thread_ends_with_the_block(self) -> None:
        from hostspeed import HostSpeed
        with HostSpeed() as speed:
            while not speed.speeds:
                speed._stop.wait(0.01)
        self.assertFalse(speed._thread.is_alive())
        self.assertGreater(speed.factor(0.0, float("inf")), 0.0)


class ContractTest(unittest.TestCase):

    def test_per_layer_declaration_matches_the_harness(self) -> None:
        declared = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
        self.assertEqual(declared, layers.PER_LAYER)

    def test_fails_without_the_program(self) -> None:
        with tempfile.TemporaryDirectory() as scratch:
            bare = Path(scratch)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path)
            done = run_benchmark("tpcc-sim", 0, cwd=bare,
                                 script=bare / "perfbench" / "run.py")
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
