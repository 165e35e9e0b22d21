#!/usr/bin/env python3
"""Alternating A/B pairs of the benchmark: a base commit against this checkout.

Run from anywhere inside a checkout:

    python3 tools/ab.py --base HEAD~1 --workload cnrga_10d --seed 0 --pairs 10
    python3 tools/ab.py --base main --workload all --seed 1 --pairs 5

The change side is this checkout's working tree, uncommitted edits
included. The base side is ``git archive`` of ``--base`` unpacked into a
temporary directory, so nothing is registered in the repository and a run
that is killed leaves only a temporary directory behind. Each side runs
its own ``perfbench/run.py --workload W --seed S --seconds T --trace 0``,
with T the ``run_seconds`` of this checkout's ``BENCHMARK.json``. Pair i
runs the base first when i is even and the change first when it is odd,
so drift in the host's speed falls on both sides alike.

For each side and each end-to-end metric of ``BENCHMARK.json`` the script
prints the median and the quartiles q1-q3 over the runs, then how many
pairs the change won (ties count for neither side), the failed runs, and
whether every run printed the same results fingerprints. Standard library
only.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FINGERPRINT = re.compile(r"^fingerprint (\S+) seed \d+: ([0-9a-f]+)$", re.MULTILINE)


def git(*args) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE).stdout


def unpack_base(base: str, dest: Path) -> str:
    """Write the tree of commit ``base`` into ``dest``; returns its hash."""
    sha = git("rev-parse", "--verify", f"{base}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return sha


def same_tree(a: Path, b: Path) -> bool:
    files_a = {p.relative_to(a): p for p in a.rglob("*.py")}
    files_b = {p.relative_to(b): p for p in b.rglob("*.py")}
    return files_a.keys() == files_b.keys() and all(
        files_a[k].read_bytes() == files_b[k].read_bytes() for k in files_a)


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    child = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited with {child.returncode}")
    result = json.loads(lines[-1])
    result["fingerprints"] = dict(FINGERPRINT.findall(child.stdout))
    return result


def metric_names(result: dict, workload: str, name: str) -> list[str]:
    """Keys of end-to-end metric ``name`` in a run's metrics: one per
    workload when ``--workload all`` prefixes them."""
    if workload != "all":
        return [name]
    return [key for key in result["metrics"] if key.endswith(f".{name}")]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(runs: dict, end_to_end: list[dict], workload: str) -> None:
    pairs = len(runs["change"])
    print(f"\n{'metric':<34} {'better':<7} {'base median [q1-q3]':<32} "
          f"{'change median [q1-q3]':<32} change won")
    for spec in end_to_end:
        for key in metric_names(runs["base"][0], workload, spec["name"]):
            sides = {side: [r["metrics"][key]["value"] for r in runs[side]]
                     for side in ("base", "change")}
            cells = []
            for side in ("base", "change"):
                q1, q2, q3 = quartiles(sides[side])
                cells.append(f"{q2:.6g} [{q1:.6g}-{q3:.6g}]")
            higher = spec["better"] == "higher"
            won = sum((c > b) if higher else (c < b)
                      for b, c in zip(sides["base"], sides["change"]))
            print(f"{key:<34} {spec['better']:<7} {cells[0]:<32} {cells[1]:<32} "
                  f"{won}/{pairs}")
    for side in ("base", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        wrong = sum(not r["correct"] for r in runs[side])
        print(f"{side}: {failed} of {attempted} runs failed, {wrong} benchmark runs "
              "reported failed checks")
    prints = {json.dumps(r["fingerprints"], sort_keys=True)
              for side in ("base", "change") for r in runs[side]}
    verdict = "match" if len(prints) == 1 else f"DIFFER ({len(prints)} distinct sets)"
    print(f"fingerprints: {verdict}")
    for name, digest in sorted(json.loads(min(prints)).items()):
        print(f"  {name}: {digest}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="commit to compare against")
    parser.add_argument("--workload", required=True, help="perfbench workload, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    runs = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        base_tree = Path(tmp)
        sha = unpack_base(args.base, base_tree)
        if not same_tree(base_tree / "perfbench", ROOT / "perfbench"):
            print("warning: perfbench/ differs between the base and this checkout",
                  file=sys.stderr)
        trees = {"base": base_tree, "change": ROOT}
        print(f"base {sha[:12]} vs working tree of {ROOT}; workload {args.workload}, "
              f"seed {args.seed}, {seconds} s per run, {args.pairs} pairs")
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                result = run_side(trees[side], args.workload, args.seed, seconds)
                runs[side].append(result)
                shown = ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()
                                  if k.split(".")[-1] == "evals_per_s")
                print(f"pair {i + 1}/{args.pairs} {side:<6} {shown}", flush=True)
    report(runs, benchmark["end_to_end"], args.workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
