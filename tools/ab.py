#!/usr/bin/env python3
"""Alternating A/B pairs of the benchmark: a base commit against this checkout.

Run from anywhere inside a checkout:

    python3 tools/ab.py --base HEAD~1 --workload cnrga_10d --seed 0 --pairs 10
    python3 tools/ab.py --base main --workload all --seed 1 --pairs 10
    python3 tools/ab.py --report /tmp/ab-cnrga_10d-1a2b3c.jsonl
    python3 tools/ab.py --report /tmp/ab-cnrga_10d-1a2b3c.jsonl /tmp/ab-cnrga_10d-4d5e6f.jsonl

The change side is this checkout's working tree, uncommitted edits
included. The base side is ``git archive`` of ``--base`` unpacked into a
temporary directory, so nothing is registered in the repository and a run
that is killed leaves only a temporary directory behind. Each side runs
its own ``perfbench/run.py --workload W --seed S --seconds T --trace 0``,
with T the ``run_seconds`` of this checkout's ``BENCHMARK.json``. Pair i
runs the base first when i is even and the change first when it is odd,
so drift in the host's speed falls on both sides alike. Each run's result
is appended to a JSON-lines log in the system's temporary directory as
soon as it arrives, and the log's path is printed first; ``--report LOG``
prints the table again from such a log, of a finished or an interrupted
comparison (complete pairs only), without running anything. Given several
logs of one workload, say repeats of one comparison, ``--report`` prints
each log's table in turn and then one line per end-to-end metric with the
verdict each log read, so a verdict that one repeat reads and another
does not shows at a glance; logs of different workloads are an error.

For each side and each end-to-end metric of ``BENCHMARK.json`` the script
prints the median and the quartiles q1-q3 over the runs, how many pairs
the change won (ties count for neither side) and a verdict:

- ``regression``: the change's median is worse than the base's by more
  than the metric's ``bound`` (a fraction of the base median), and at
  least ten pairs ran or every run of the change reads worse than every
  run of the base;
- ``gain``: at least ten pairs ran, the change won at least nine tenths
  of them and the medians differ by more than the base's q1-q3 spread;
- ``unresolved``: the runs would read ``regression`` or ``gain`` but
  fewer than ten pairs ran, too few to tell either from luck; or the
  base's q1-q3 spread is wider than the bound, so the runs cannot tell a
  change within the bound from noise, unless every run of the change
  reads better than every run of the base;
- ``within bound``: none of these.

It then prints the failed runs and whether every run printed the same
results fingerprints. When they differ, it prints each side's sets under
the side's name and says when one side's own runs disagree. Standard
library only.
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
# the fewest pairs from which the median alone may read a regression, and
# the nine-tenths rule a gain
MIN_PAIRS = 10
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


def verdict(base: list[float], change: list[float], won: int, higher: bool,
            bound: float) -> str:
    """The module docstring's verdict for one metric's paired runs, of
    which the change won ``won``."""
    q1, base_median, q3 = quartiles(base)
    gained = statistics.median(change) - base_median
    if not higher:
        gained = -gained
    enough = len(change) >= MIN_PAIRS
    if -gained > bound * abs(base_median):
        always_worse = max(change) < min(base) if higher else min(change) > max(base)
        return "regression" if enough or always_worse else "unresolved"
    if 10 * won >= 9 * len(change) and gained > q3 - q1:
        return "gain" if enough else "unresolved"
    always_better = min(change) > max(base) if higher else max(change) < min(base)
    if q3 - q1 > bound * abs(base_median) and not always_better:
        return "unresolved"
    return "within bound"


def report(runs: dict, end_to_end: list[dict], workload: str) -> dict[str, str]:
    """Print the table of one comparison; returns each metric's verdict."""
    pairs = len(runs["change"])
    verdicts = {}
    print(f"\n{'metric':<34} {'better':<7} {'base median [q1-q3]':<32} "
          f"{'change median [q1-q3]':<32} {'change won':<11} verdict")
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
            verdicts[key] = verdict(sides["base"], sides["change"], won, higher, spec["bound"])
            print(f"{key:<34} {spec['better']:<7} {cells[0]:<32} {cells[1]:<32} "
                  f"{f'{won}/{pairs}':<11} {verdicts[key]}")
    for side in ("base", "change"):
        failed = sum(r["failed"] for r in runs[side])
        attempted = sum(r["attempted"] for r in runs[side])
        wrong = sum(not r["correct"] for r in runs[side])
        print(f"{side}: {failed} of {attempted} runs failed, {wrong} benchmark runs "
              "reported failed checks")
    print_fingerprints(runs)
    return verdicts


def print_fingerprints(runs: dict) -> None:
    """Print whether every run printed the same fingerprints, and the
    digests: once if they match, else each side's sets under its name,
    saying when a side's own runs disagree."""
    prints = {side: sorted({json.dumps(r["fingerprints"], sort_keys=True) for r in runs[side]})
              for side in ("base", "change")}
    distinct = set(prints["base"] + prints["change"])

    def digests(one: str, indent: str) -> None:
        for name, digest in sorted(json.loads(one).items()):
            print(f"{indent}{name}: {digest}")

    if len(distinct) == 1:
        print("fingerprints: match")
        digests(distinct.pop(), "  ")
        return
    print(f"fingerprints: DIFFER ({len(distinct)} distinct sets)")
    for side, sets in prints.items():
        for k, one in enumerate(sets, 1):
            disagree = f" set {k} of {len(sets)}, its own runs disagree" if len(sets) > 1 else ""
            print(f"  {side}{disagree}:")
            digests(one, "    ")


def read_log(path: Path) -> tuple[str, dict]:
    """The workload and the runs of each side of a log that ``main`` wrote,
    cut to the pairs both sides completed."""
    lines = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    if not lines or "workload" not in lines[0]:
        raise SystemExit(f"error: {path} is not a log of tools/ab.py")
    runs = {"base": [], "change": []}
    for line in lines[1:]:
        runs[line["side"]].append(line["result"])
    pairs = min(len(runs["base"]), len(runs["change"]))
    if pairs == 0:
        raise SystemExit(f"error: {path} holds no complete pair")
    return lines[0]["workload"], {side: rows[:pairs] for side, rows in runs.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="commit to compare against")
    parser.add_argument("--workload", help="perfbench workload, or all")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--pairs", type=int)
    parser.add_argument("--report", metavar="LOG", type=Path, nargs="+",
                        help="print the table from each log of an earlier run of one "
                             "workload, then each metric's verdicts, and exit")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.report is not None:
        logs = [read_log(path) for path in args.report]
        workloads = {workload for workload, _ in logs}
        if len(workloads) > 1:
            raise SystemExit(f"error: the logs hold different workloads: "
                             f"{', '.join(sorted(workloads))}")
        verdicts = []
        for path, (workload, runs) in zip(args.report, logs):
            if len(logs) > 1:
                print(f"\nlog {path}")
            verdicts.append(report(runs, benchmark["end_to_end"], workload))
        if len(logs) > 1:
            print(f"\nverdicts of the {len(logs)} logs, in order:")
            for key in verdicts[0]:
                print(f"{key:<34} {', '.join(v[key] for v in verdicts)}")
        return 0
    for name in ("base", "workload", "seed", "pairs"):
        if getattr(args, name) is None:
            parser.error(f"--{name} is required without --report")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    seconds = benchmark["run_seconds"]
    runs = {"base": [], "change": []}
    fd, log_name = tempfile.mkstemp(prefix=f"ab-{args.workload}-", suffix=".jsonl")
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp, \
            open(fd, "w") as log:
        base_tree = Path(tmp)
        sha = unpack_base(args.base, base_tree)
        if not same_tree(base_tree / "perfbench", ROOT / "perfbench"):
            print("warning: perfbench/ differs between the base and this checkout",
                  file=sys.stderr)
        trees = {"base": base_tree, "change": ROOT}
        print(f"log {log_name}")
        print(f"base {sha[:12]} vs working tree of {ROOT}; workload {args.workload}, "
              f"seed {args.seed}, {seconds} s per run, {args.pairs} pairs", flush=True)
        log.write(json.dumps({"workload": args.workload, "base": sha, "seed": args.seed,
                              "seconds": seconds, "pairs": args.pairs}) + "\n")
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                result = run_side(trees[side], args.workload, args.seed, seconds)
                runs[side].append(result)
                log.write(json.dumps({"side": side, "result": result}) + "\n")
                log.flush()
                shown = ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()
                                  if k.split(".")[-1] == "evals_per_s")
                print(f"pair {i + 1}/{args.pairs} {side:<6} {shown}", flush=True)
    report(runs, benchmark["end_to_end"], args.workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
