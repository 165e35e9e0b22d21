"""``perfbench/run.py`` still runs against the package.

The benchmark reads names of the package that no other test reaches this
way: ``Region.contains`` in its output checks, ``BspArchive.n_leaves`` in
its prune hooks, ``iter_leaves`` and ``BspNode.parent`` for the tree
shape, and it counts calls to ``BudgetedEvaluator.__call__``. A change
that deletes one of them breaks the benchmark; this test runs one traced
cycle, and its replay, of the ``cnrga_lru_10d`` workload to catch that.
The benchmark runs from a copy of ``src`` and ``perfbench`` so that its
output files stay under the test's temporary directory.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CNRGA_LRU_FINGERPRINT = "d41cc86c12a87242d7c2a5eaf6b38c15dad63f6a6b78e2f748e1986349433fa7"
# a reconcile check passes when the name it counts is not traced at all
RECONCILED = ("benchmarks.BudgetedEvaluator", "bsp.insert", "cmaes.cma_sample")


@pytest.mark.slow
def test_one_traced_cycle_runs_and_reconciles(tmp_path):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "cnrga_lru_10d", "--seed", "0",
           "--seconds", "0.001", "--trace", "1"]
    result = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"], result.stderr
    assert summary["attempted"] > 0 and summary["failed"] == 0
    details = json.loads((tmp_path / "perfbench" / "out" /
                          "cnrga_lru_10d-seed0-trace1.json").read_text())
    assert details["reconcile"] and all(details["reconcile"].values()), details["reconcile"]
    assert not set(RECONCILED) & set(details["absent"])
    assert details["fingerprint"] == CNRGA_LRU_FINGERPRINT
