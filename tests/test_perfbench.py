"""``perfbench/run.py`` still runs against the package.

The benchmark reads names of the package that no other test reaches this
way: ``Region.contains`` in its output checks, ``BspArchive.n_leaves`` in
its prune hooks, ``iter_leaves`` and ``BspNode.parent`` for the tree
shape, and it counts calls to ``BudgetedEvaluator.__call__``. A change
that deletes one of them breaks the benchmark; this test runs one traced
cycle, and its replay, of each workload to catch that, and checks its
reconcile checks, its seed-0 results fingerprint and its traced count of
objective calls. All three workloads evaluate through
``BudgetedEvaluator.evaluate_batch``: CMA-ES one block per generation, the
GA one block per generation of stored points, so the count moves when the
evaluation is batched differently. The two cNrGA workloads also exercise
the archive and the prune hooks. The three cycles take about 20 s on a
2-vCPU virtual machine. The benchmark runs from a copy of ``src`` and
``perfbench`` so that its output files stay under the test's temporary
directory.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# workload -> its results fingerprint at seed 0
FINGERPRINTS = {
    "hr_cmaes_10d": "f2afe074079e4ca99378500c54876b98465e1a563baba7b4b66894c89242f3a3",
    "cnrga_lru_10d": "ea6eeb39b151daecda894f203948e4765e02f1a548d42f6dc523c9c1d884c429",
    "cnrga_10d": "aead633824998a473c74bb96a79e41ed038aea550d1562c80b4e92528b7d8b17",
}
# workload -> its traced ``benchmarks.objective`` calls in one cycle at seed 0
OBJECTIVE_CALLS = {"hr_cmaes_10d": 46_807, "cnrga_lru_10d": 812, "cnrga_10d": 812}
# a reconcile check passes when the name it counts is not traced at all
RECONCILED = ("benchmarks.BudgetedEvaluator", "bsp.insert", "cmaes.cma_sample")


@pytest.mark.slow
@pytest.mark.parametrize("workload", FINGERPRINTS)
def test_one_traced_cycle_runs_and_reconciles(tmp_path, workload):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=ignore)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "0.001", "--trace", "1"]
    result = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                            timeout=300)
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"], result.stderr
    assert summary["attempted"] > 0 and summary["failed"] == 0
    details = json.loads((tmp_path / "perfbench" / "out" /
                          f"{workload}-seed0-trace1.json").read_text())
    assert details["reconcile"] and all(details["reconcile"].values()), details["reconcile"]
    assert not set(RECONCILED) & set(details["absent"])
    assert details["fingerprint"] == FINGERPRINTS[workload]
    assert details["functions"]["benchmarks.objective"]["calls"] == OBJECTIVE_CALLS[workload]
