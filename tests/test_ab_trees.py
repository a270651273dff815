"""Smoke test of ``benchmarks/ab_trees.py``: this tree against itself.

The script swaps whole ``repro`` package trees in ``sys.modules``, so it
runs in a child process, never inside the test session.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_trees_runs_one_tree_against_itself():
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "ab_trees.py"),
         str(ROOT), str(ROOT), "--chunks", "2", "--mixture", "45/43/4/4/4"],
        capture_output=True, text=True, timeout=300, check=True)
    report = json.loads(done.stdout)
    assert report["chunks"] == 2
    assert report["mixture"] == [45.0, 43.0, 4.0, 4.0, 4.0]
    assert 0 <= report["change_wins"] <= 2
    assert report["ratio_q1"] <= report["ratio_median"] <= report["ratio_q3"]
    assert report["parent_ms_per_txn"] > 0
    assert report["change_ms_per_txn"] > 0


def test_ab_trees_rejects_a_bad_mixture():
    done = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "ab_trees.py"),
         str(ROOT), str(ROOT), "--chunks", "1", "--mixture", "1/2"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 2
    assert "mixture needs 5 non-negative weights" in done.stderr
