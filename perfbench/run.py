#!/usr/bin/env python3
"""histarch benchmark: seeded closed-loop 10-D workloads through the harness.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hr_cmaes_10d --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 1

A workload repeats whole cycles until ``--seconds`` of program time have
passed. A cycle is one ``harness.run_experiment`` call (D=10, budget
20 000, two runs per algorithm and problem, ``workers=1``, ``trace=True``,
``out_dir`` a temporary directory), the path users take. Runs execute one
at a time, each starting when the previous one ends: a closed loop with a
single client. ``--seed`` fixes the suite seed and every cycle's base seed,
so the same seed gives the same runs; the package receives only the
generated config.

``--trace 0`` measures the end-to-end metrics with nothing traced. Run and
cycle times are taken in reference seconds, wall time corrected for the
host's changing speed by ``speed.py``; the raw wall figures are printed
beside them.

``--trace 1`` times the calls into each layer's public functions from
this directory's ``tracer.py`` and reports the per-layer metrics, then
replays the first cycle untraced to report the tracing overhead and to
check that tracing left the outputs unchanged. The last stdout line is
one JSON object; the details (run spans, per-function aggregates, checks,
machine record) go to ``perfbench/out/``.

Every run's output is checked; a run that raises or fails a check counts
in ``failed``. The results fingerprint, printed beside the metrics, hashes
the first cycle's outputs so two versions of the package can be shown to
produce the same runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from speed import SpeedProbe  # noqa: E402
from tracer import Tracer, rebind_everywhere  # noqa: E402

DIM = 10
BUDGET = 20_000
RUNS_PER_CELL = 2  # the harness minimum; a cycle is one run_experiment call
SUITE_SEED_BASE = 2013  # seed 0 gives the acceptance-test suite
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170

CRITERION_8_PROBLEMS = ("sphere", "rot_ellipsoid", "rastrigin", "griewank",
                        "schwefel", "hybrid")
STOP_REASONS = ("budget_exhausted", "cov_condition", "stagnation", "tol_fun",
                "tol_x", "numerical_error")


@dataclass(frozen=True)
class Workload:
    algorithms: tuple
    problems: tuple
    revisit_check: bool  # criterion 2: no point reaches the evaluator twice


WORKLOADS = {
    # Acceptance criterion 8 scaled down in runs. About 95% of the
    # evaluations are CMA-ES exploitation: the strategy and the evaluator
    # stack dominate, the archive stays small and never prunes.
    "hr_cmaes_10d": Workload(("hr", "cmaes"), CRITERION_8_PROBLEMS, False),
    # LRU-pruned archive and no CMA-ES: pruning and insertion dominate, so
    # a strategy change must leave this workload alone.
    "cnrga_lru_10d": Workload(("cnrga_lru",), ("rastrigin", "schwefel"), True),
    # The same archive without pruning: it never deletes, the tree grows
    # deep and revisits read mutation regions. Catches a change that speeds
    # up pruning by slowing region lookups; sets the archive's memory peak.
    "cnrga_10d": Workload(("cnrga",), ("rastrigin", "schwefel"), True),
}

# (metric name, module, function or Class.method) traced in --trace 1
TRACED = (
    ("bsp.insert", "histarch.bsp", "BspArchive.insert"),
    ("bsp.prune_lru", "histarch.bsp", "BspArchive.prune_lru"),
    ("bsp.mutation_region", "histarch.bsp", "BspArchive.mutation_region"),
    ("bsp.roi_trigger", "histarch.bsp", "BspArchive.roi_trigger"),
    ("bsp.block", "histarch.bsp", "BspArchive.block"),
    ("bsp.in_blocked_region", "histarch.bsp", "BspArchive.in_blocked_region"),
    ("cnrga.evaluate_via_archive", "histarch.cnrga", "evaluate_via_archive"),
    ("cnrga.ga_step", "histarch.cnrga", "ga_step"),
    ("cnrga.init_population", "histarch.cnrga", "init_population"),
    ("cmaes.cma_sample", "histarch.cmaes", "cma_sample"),
    ("cmaes.cma_update", "histarch.cmaes", "cma_update"),
    ("cmaes.cma_check_stop", "histarch.cmaes", "cma_check_stop"),
    ("cmaes.cma_init", "histarch.cmaes", "cma_init"),
    ("benchmarks.BudgetedEvaluator", "histarch.benchmarks", "BudgetedEvaluator.__call__"),
    ("hr.TracingEvaluator", "histarch.hr", "TracingEvaluator.__call__"),
    ("hr.seed_cma_from_roi", "histarch.hr", "seed_cma_from_roi"),
    ("harness.run_experiment", "histarch.harness", "run_experiment"),
    ("harness.persist_result", "histarch.harness", "persist_result"),
    ("stats.build_stats_table", "histarch.stats", "build_stats_table"),
)
OBJECTIVE = "benchmarks.objective"  # Problem.f, wrapped per instance for each run
RUN = "hr.run_algorithm"

# the per-layer metrics reported with --trace 1, as listed in BENCHMARK.json
TIMED = ("bsp.insert", "bsp.prune_lru", "bsp.mutation_region", "bsp.roi_trigger",
         "bsp.in_blocked_region", "cnrga.evaluate_via_archive", "cnrga.ga_step",
         "cnrga.init_population", "cmaes.cma_sample", "cmaes.cma_update",
         "cmaes.cma_check_stop", "benchmarks.BudgetedEvaluator", OBJECTIVE,
         "hr.TracingEvaluator", "harness.persist_result", "stats.build_stats_table")
CALLS_ONLY = ("bsp.block", "cmaes.cma_init", "hr.seed_cma_from_roi")


# -- environment -----------------------------------------------------------

def import_histarch():
    """Import the package from this checkout's ``src``, never another copy."""
    sys.path.insert(0, str(SRC))
    import histarch
    where = Path(histarch.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: imported histarch from {where}, not from {SRC}")
    return histarch


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def machine_record() -> dict:
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": loadavg(),
    }


SETUP_PROBE = """\
import sys
sys.path.insert(0, {src!r})
import histarch
histarch.make_suite({dim}, {seed})
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def setup_seconds(suite_seed: int) -> float:
    """Wall time from starting a fresh interpreter through ``import histarch``
    and ``make_suite`` until it could start its first run."""
    code = SETUP_PROBE.format(src=str(SRC), dim=DIM, seed=suite_seed)
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        ready = time.perf_counter()
        child.stdout.read()
        status = child.wait(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or status != 0:
        raise SystemExit(f"error: set-up probe failed with exit code {status}")
    return ready - start


# -- output checks -----------------------------------------------------------

def check_run(record, problem) -> list[str]:
    """Reasons ``record`` is wrong; empty when every output check holds."""
    wrong = []
    if record.evals_used != BUDGET:
        wrong.append(f"evals_used {record.evals_used} != budget {BUDGET}")
    values = [v for _, v in record.best_trace]
    if not values:
        wrong.append("empty best_trace")
    elif any(b > a for a, b in zip(values, values[1:])):
        wrong.append("best_trace increases")
    elif values[-1] != record.final_fitness:
        wrong.append("best_trace does not end at final_fitness")
    x = np.asarray(record.final_coords, dtype=float)
    if x.shape != (problem.dim,) or not problem.domain.contains(x):
        wrong.append("final_coords outside the domain")
    elif float(problem.f(x)) != record.final_fitness:
        wrong.append("re-evaluating final_coords does not give final_fitness")
    return wrong


def run_digest(algo: str, problem: str, seed: int, record) -> str:
    if record is None:
        body = f"{algo}|{problem}|{seed}|failed"
    else:
        phases = ";".join(f"{p.start_eval},{p.end_eval},{p.stop_reason}"
                          for p in record.phases)
        body = (f"{algo}|{problem}|{seed}|{record.evals_used}|"
                f"{float(record.final_fitness)!r}|{phases}")
    return hashlib.sha256(body.encode()).hexdigest()


def phase_evals(record, kind: str) -> int:
    return sum(p.end_eval - p.start_eval + 1 for p in record.phases if p.kind == kind)


# -- runs ------------------------------------------------------------------------

def tree_shape(archive) -> tuple[int, int]:
    """(leaves, deepest leaf depth); depth counted by walking parent links,
    memoised so the walk is linear in the number of nodes."""
    depth = {}
    leaves = 0
    deepest = 0
    for leaf in archive.iter_leaves():
        leaves += 1
        path = []
        node = leaf
        while node is not None and id(node) not in depth:
            path.append(node)
            node = node.parent
        d = -1 if node is None else depth[id(node)]
        for n in reversed(path):
            d += 1
            depth[id(n)] = d
        deepest = max(deepest, d)
    return leaves, deepest


class RunBoundary:
    """Stands in for ``run_algorithm`` in every histarch module. Times each
    run; while a tracer is attached it also wraps the problem's objective
    for the run and collects the archives and evaluated points the run
    made, which are inspected once the run has ended."""

    def __init__(self, original, workload: str):
        self.original = original
        self.workload = workload
        self.cycle = 0
        self.spans: list[dict] = []
        self.tracer: Tracer | None = None
        self.traced_run = None
        self.archives: list = []
        self.evaluated: list | None = None
        self.collect_points = False
        self.shapes: list[tuple[int, int]] = []
        self.duplicates = 0

    def attach(self, tracer: Tracer, collect_points: bool):
        self.tracer = tracer
        self.traced_run = tracer.wrap(RUN, self.original)
        self.collect_points = collect_points

    def detach(self):
        self.tracer = None

    def __call__(self, problem, algo, *args, **kwargs):
        if self.tracer is None:
            start = time.perf_counter()
            try:
                return self.original(problem, algo, *args, **kwargs)
            finally:
                self._span(problem, algo, start, time.perf_counter())
        objective = problem.f
        problem.f = self.tracer.wrap(OBJECTIVE, objective)
        self.archives = []
        self.evaluated = [] if self.collect_points else None
        start = time.perf_counter()
        try:
            return self.traced_run(problem, algo, *args, **kwargs)
        finally:
            end = time.perf_counter()
            problem.f = objective
            self._span(problem, algo, start, end)
            self._inspect_run()
            self.tracer.exclude(time.perf_counter() - end)

    def _span(self, problem, algo, start, end):
        self.spans.append({"name": f"{algo}:{problem.name}", "cycle": self.cycle,
                           "workload": self.workload, "start": start, "end": end})

    def _inspect_run(self):
        self.shapes.extend(tree_shape(a) for a in self.archives)
        self.archives = []
        if self.evaluated:
            points = np.array(self.evaluated, dtype=float)
            self.duplicates += len(points) - len(np.unique(points, axis=0))
        self.evaluated = None

    def on_archive(self, token, args, result):
        self.archives.append(args[0])

    def on_evaluate(self, token, args, result):
        if self.evaluated is not None:
            self.evaluated.append(args[1])


@dataclass
class Cycle:
    start: float
    end: float
    evals: int
    attempted: int
    failed: int
    fingerprint: str
    records: list = field(default_factory=list)  # RunRecords that passed

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Bench:
    def __init__(self, histarch, workload: str, seed: int):
        self.hx = histarch
        self.workload = WORKLOADS[workload]
        self.suite_seed = SUITE_SEED_BASE + seed
        self.base_seed = 1000 * seed
        self.problems = {p.name: p for p in histarch.make_suite(DIM, self.suite_seed)}
        self.boundary = RunBoundary(histarch.hr.run_algorithm, workload)
        rebind_everywhere(histarch.hr.run_algorithm, self.boundary)
        self.errors: list[str] = []

    def cycle(self, index: int) -> Cycle:
        w = self.workload
        base_seed = self.base_seed + RUNS_PER_CELL * index
        self.boundary.cycle = index
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            config = self.hx.ExperimentConfig(
                algorithms=list(w.algorithms), dim=DIM, budget=BUDGET,
                runs=RUNS_PER_CELL, base_seed=base_seed, suite_seed=self.suite_seed,
                out_dir=tmp, trace=True, workers=1, problems=list(w.problems))
            start = time.perf_counter()
            result = self.hx.harness.run_experiment(config)
            wall = time.perf_counter() - start
        out = Cycle(start, start + wall, 0, 0, 0, "")
        digests = []
        for prob in w.problems:
            for algo in w.algorithms:
                records = result.records.get((prob, algo), [])
                for i in range(RUNS_PER_CELL):
                    record = records[i] if i < len(records) else None
                    seed = base_seed + i
                    out.attempted += 1
                    digests.append(run_digest(algo, prob, seed, record))
                    wrong = (["raised or missing"] if record is None
                             else check_run(record, self.problems[prob]))
                    if wrong:
                        out.failed += 1
                        self.errors.append(f"{algo} on {prob}, seed {seed}: {'; '.join(wrong)}")
                    else:
                        out.records.append(record)
                    if record is not None:
                        out.evals += record.evals_used
        for prob, algo, run_idx, message in result.failures:
            self.errors.append(f"{algo} on {prob}, run {run_idx}: {message}")
        out.fingerprint = hashlib.sha256("".join(digests).encode()).hexdigest()
        return out

    def cycles(self, seconds: float) -> list[Cycle]:
        done = [self.cycle(0)]
        while sum(c.wall_s for c in done) < seconds:
            done.append(self.cycle(len(done)))
        return done


# -- the two modes ----------------------------------------------------------------

def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(bench: Bench, seconds: float, setup: list[float]) -> tuple[dict, list, dict]:
    """Run and cycle times are in reference seconds (see speed.py); the
    raw wall-time figures go to the details."""
    with SpeedProbe() as probe:
        cycles = bench.cycles(seconds)
    evals = sum(c.evals for c in cycles)
    spans = bench.boundary.spans
    run_s = [probe.reference_seconds(s["start"], s["end"]) for s in spans]
    wall = sum(c.wall_s for c in cycles)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "evals_per_s": metric(
            evals / sum(probe.reference_seconds(c.start, c.end) for c in cycles), "1/s"),
        "run_s_p50": metric(statistics.median(run_s), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    details = {"setup_s_samples": setup, "run_s_samples": len(run_s), "cycles": len(cycles),
               "wall_s": wall, "wall_evals_per_s": evals / wall,
               "wall_run_s_p50": statistics.median(s["end"] - s["start"] for s in spans),
               "calibration_rate": probe.mean_rate(), "probe_samples": len(probe.samples)}
    return metrics, cycles, details


def per_layer(bench: Bench, seconds: float) -> tuple[dict, list, dict]:
    tracer = Tracer()
    boundary = bench.boundary
    outcomes: Counter = Counter()
    pruned = [0]
    sampled = [0]

    def on_insert(token, args, result):
        outcomes[type(result).__name__] += 1

    def before_prune(args, kwargs):
        return args[0].n_leaves

    def on_prune(token, args, result):
        pruned[0] += token - args[0].n_leaves

    def on_sample(token, args, result):
        sampled[0] += len(result)

    hooks = {"bsp.insert": (None, on_insert), "bsp.prune_lru": (before_prune, on_prune),
             "cmaes.cma_sample": (None, on_sample),
             "benchmarks.BudgetedEvaluator": (None, boundary.on_evaluate)}
    for name, module, path in TRACED:
        before, after = hooks.get(name, (None, None))
        tracer.patch(name, module, path, before, after)
    tracer.patch("bsp.BspArchive.__init__", "histarch.bsp", "BspArchive.__init__",
                 after=boundary.on_archive)
    tracer.stats.setdefault(OBJECTIVE, [0, 0.0, 0.0])
    boundary.attach(tracer, bench.workload.revisit_check)
    try:
        cycles = bench.cycles(seconds)
    finally:
        boundary.detach()
        tracer.uninstall()
    replay = bench.cycle(0)

    fn = tracer.summary()
    records = [r for c in cycles for r in c.records]
    evals = sum(r.evals_used for r in records)
    explore = sum(phase_evals(r, "explore") for r in records)
    exploit = sum(phase_evals(r, "exploit") for r in records)
    stops = Counter(p.stop_reason for r in records for p in r.phases if p.kind == "exploit")
    inserts = fn["bsp.insert"]["calls"]
    shapes = boundary.shapes

    metrics = {}
    for name in TIMED:
        calls, total, own = fn[name]["calls"], fn[name]["total_s"], fn[name]["self_s"]
        metrics[f"{name}.calls"] = metric(calls, "count")
        metrics[f"{name}.self_s"] = metric(own, "s")
        metrics[f"{name}.us_per_call"] = metric(1e6 * total / calls if calls else 0.0, "us")
    for name in CALLS_ONLY:
        metrics[f"{name}.calls"] = metric(fn[name]["calls"], "count")
    metrics[f"{RUN}.self_s"] = metric(fn[RUN]["self_s"], "s")
    metrics["harness.run_experiment.self_s"] = metric(fn["harness.run_experiment"]["self_s"], "s")
    metrics["bsp.insert.new_leaf_ratio"] = metric(
        outcomes["NewLeaf"] / inserts if inserts else 0.0, "ratio")
    metrics["bsp.insert.revisits"] = metric(outcomes["Revisit"], "count")
    metrics["bsp.insert.blocked"] = metric(outcomes["Blocked"], "count")
    metrics["bsp.prune_lru.leaves_removed"] = metric(pruned[0], "count")
    metrics["bsp.leaves_final"] = metric(
        statistics.mean(s[0] for s in shapes) if shapes else 0.0, "count")
    metrics["bsp.depth_max"] = metric(max((s[1] for s in shapes), default=0), "count")
    metrics["cnrga.evals_per_insert"] = metric(explore / inserts if inserts else 0.0, "ratio")
    for reason in STOP_REASONS:
        metrics[f"cmaes.stop.{reason}"] = metric(stops[reason], "count")
    metrics["hr.explore_evals"] = metric(explore, "count")
    metrics["hr.exploit_evals"] = metric(exploit, "count")
    first = cycles[0]
    ratio = (first.evals / first.wall_s) / (replay.evals / replay.wall_s)
    metrics["trace.evals_per_s_ratio"] = metric(ratio, "ratio")

    reconcile = {
        "evaluator_calls_equal_evals_used":
            "benchmarks.BudgetedEvaluator" in tracer.absent
            or fn["benchmarks.BudgetedEvaluator"]["calls"] == evals,
        "new_leaves_equal_explore_evals":
            "bsp.insert" in tracer.absent or outcomes["NewLeaf"] == explore,
        "sampled_candidates_cover_exploit_evals":
            "cmaes.cma_sample" in tracer.absent or sampled[0] >= exploit,
        "replay_fingerprint_matches": replay.fingerprint == first.fingerprint,
    }
    if bench.workload.revisit_check:
        reconcile["no_point_evaluated_twice"] = boundary.duplicates == 0
    for name, ok in reconcile.items():
        if not ok:
            bench.errors.append(f"reconciliation failed: {name}")

    traced_wall = fn["harness.run_experiment"]["total_s"]
    layers: Counter = Counter()
    for name, agg in fn.items():
        layers[name.split(".")[0]] += agg["self_s"]
    details = {
        "functions": fn, "absent": tracer.absent, "reconcile": reconcile,
        "counters": {"insert_outcomes": dict(outcomes), "leaves_removed": pruned[0],
                     "sampled_candidates": sampled[0], "stop_reasons": dict(stops),
                     "evals_used": evals, "explore_evals": explore,
                     "exploit_evals": exploit, "duplicates": boundary.duplicates,
                     "tree_shapes": shapes},
        "self_share": {k: v / traced_wall for k, v in layers.most_common()},
        "cycles": len(cycles), "traced_wall_s": traced_wall,
        "replay": {"wall_s": replay.wall_s, "fingerprint": replay.fingerprint},
    }
    return metrics, cycles + [replay], details


# -- command line ---------------------------------------------------------------------

def run_one(args) -> int:
    if not (SRC / "histarch" / "__init__.py").is_file():
        print(f"error: no histarch package under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    histarch = import_histarch()
    machine = machine_record()
    bench = Bench(histarch, args.workload, args.seed)
    if args.trace:
        metrics, cycles, details = per_layer(bench, args.seconds)
    else:
        setup = [setup_seconds(bench.suite_seed) for _ in range(SETUP_REPEATS)]
        metrics, cycles, details = end_to_end(bench, args.seconds, setup)
    machine["loadavg_end"] = loadavg()

    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    fingerprint = cycles[0].fingerprint
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "fingerprint": fingerprint, "attempted": attempted, "failed": failed,
              "errors": bench.errors, "metrics": metrics, "machine": machine,
              "spans": bench.boundary.spans, **details}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")

    for message in bench.errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(cycles)} cycle(s), {attempted} runs")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'runs_attempted':<40} {attempted:>14} count")
        print(f"  {'runs_failed':<40} {failed:>14} count")
        print(f"  run_s_p50 over {details['run_s_samples']} runs; setup_s median of "
              f"{SETUP_REPEATS} fresh interpreters")
        print(f"  in wall seconds: evals_per_s {details['wall_evals_per_s']:.6g}, run_s_p50 "
              f"{details['wall_run_s_p50']:.6g} s; calibration rate "
              f"{details['calibration_rate']:.6g}/s")
    else:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in details["self_share"].items())
        print(f"  self-time share: {shares}")
        print(f"  absent: {', '.join(details['absent']) or 'none'}")
        print(f"  reconcile: {json.dumps(details['reconcile'])}")
    print(f"fingerprint {args.workload} seed {args.seed}: {fingerprint}")
    print(f"machine: {json.dumps(machine)}")
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": not bench.errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process so that each gets
    its own peak memory; prints one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        child = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="program time to measure, in whole cycles")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
