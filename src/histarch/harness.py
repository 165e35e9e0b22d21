"""Experiment runner: seeded independent runs, aggregation, persistence.

Every (algorithm, problem, run) cell owns its own evaluator, archive and
generator, seeded by run index so results are identical no matter how
many workers execute the cells. A crashed run is excluded from the
statistics with a loud warning and a flag in the output table.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .benchmarks import make_suite, suite_manifest
from .errors import ParameterError
from .hr import ALGORITHMS, RunRecord, run_algorithm
from .stats import StatsTable, build_stats_table

DEFAULT_SUITE_SEED = 2013


@dataclasses.dataclass
class ExperimentConfig:
    algorithms: list
    dim: int
    budget: int
    runs: int = 30
    alpha: float = 0.05
    base_seed: int = 0
    suite_seed: int = DEFAULT_SUITE_SEED
    out_dir: str | None = None
    trace: bool = False
    gnuplot: bool = False
    dump_tree: bool = False
    workers: int = 1
    problems: list | None = None  # subset of suite names; None = all

    def __post_init__(self):
        if not self.algorithms:
            raise ParameterError("at least one algorithm is required")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ParameterError(f"unknown algorithm id {algo!r}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ParameterError("duplicate algorithm ids")
        if self.dim not in (2, 10, 30):
            raise ParameterError("suite dimension must be 2, 10 or 30")
        if self.runs < 2:
            raise ParameterError("need at least 2 independent runs")
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError("alpha must lie in (0, 1)")
        if self.budget < 2:
            raise ParameterError("budget must be >= 2")
        if self.workers < 1:
            raise ParameterError("workers must be >= 1")

    @property
    def reference(self) -> str:
        return "hr" if "hr" in self.algorithms else self.algorithms[0]


@dataclasses.dataclass
class ExperimentResult:
    config: ExperimentConfig
    table: StatsTable
    finals: dict  # (problem, algo) -> list of final errors
    records: dict  # (problem, algo) -> list of RunRecord or None (failed)
    failures: list  # (problem, algo, run_index, message)


_SUITE_CACHE: dict = {}


def _suite(dim: int, seed: int):
    key = (dim, seed)
    if key not in _SUITE_CACHE:
        _SUITE_CACHE[key] = make_suite(dim, seed)
    return _SUITE_CACHE[key]


def _execute_cell(spec: tuple):
    """Run one (algorithm, problem, run) cell; must stay picklable."""
    algo, dim, suite_seed, problem_name, budget, seed, dump_tree = spec
    try:
        problem = next(p for p in _suite(dim, suite_seed) if p.name == problem_name)
        rng = np.random.default_rng(seed)
        record = run_algorithm(problem, algo, budget, rng, dump_tree=dump_tree)
        return ("ok", record)
    except Exception as exc:  # noqa: BLE001 - a failed run must not sink the sweep
        return ("failed", f"{type(exc).__name__}: {exc}")


def _failed_counts(failures) -> Counter:
    """(problem, algo) -> number of failed runs, from (problem, algo, run, message) rows."""
    return Counter((prob, algo) for prob, algo, _, _ in failures)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    suite = _suite(config.dim, config.suite_seed)
    if config.problems is not None:
        known = {p.name for p in suite}
        unknown = [n for n in config.problems if n not in known]
        if unknown:
            raise ParameterError(f"unknown problem names {unknown}")
        suite = [p for p in suite if p.name in config.problems]
    problem_names = [p.name for p in suite]
    f_opt = {p.name: p.f_opt for p in suite}

    specs = []
    for prob in problem_names:
        for algo in config.algorithms:
            for run_idx in range(config.runs):
                specs.append((algo, config.dim, config.suite_seed, prob,
                              config.budget, config.base_seed + run_idx,
                              config.dump_tree))

    if config.workers == 1:
        outcomes = [_execute_cell(s) for s in specs]
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            outcomes = list(pool.map(_execute_cell, specs, chunksize=1))

    finals: dict = {(p, a): [] for p in problem_names for a in config.algorithms}
    records: dict = {(p, a): [] for p in problem_names for a in config.algorithms}
    failures = []
    for spec, (status, payload) in zip(specs, outcomes):
        algo, _, _, prob, _, seed, _ = spec
        run_idx = seed - config.base_seed
        if status == "failed":
            failures.append((prob, algo, run_idx, payload))
            records[(prob, algo)].append(None)
            print(f"WARNING: run failed ({algo} on {prob}, run {run_idx}): {payload}",
                  file=sys.stderr)
            continue
        record: RunRecord = payload
        err = record.final_fitness
        if f_opt[prob] is not None:
            err = err - f_opt[prob]
        finals[(prob, algo)].append(float(err))
        records[(prob, algo)].append(record)

    table = build_stats_table(finals, problem_names, config.algorithms,
                              config.reference, config.alpha, _failed_counts(failures))
    result = ExperimentResult(config, table, finals, records, failures)
    if config.out_dir is not None:
        persist_result(result, suite)
    return result


# -- persistence ---------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.10e}"


def results_csv(table: StatsTable) -> str:
    lines = ["problem,algorithm,best,worst,median,mean,std,runs,failed"]
    for prob in table.problems:
        for algo in table.algorithms:
            c = table.cells[(prob, algo)]
            lines.append(
                f"{prob},{algo},{_fmt(c.best)},{_fmt(c.worst)},{_fmt(c.median)},"
                f"{_fmt(c.mean)},{_fmt(c.std)},{c.n_runs},{c.n_failed}")
    return "\n".join(lines) + "\n"


def ranks_csv(table: StatsTable) -> str:
    header = ["problem"]
    for algo in table.algorithms:
        header.append(f"rank_{algo}")
        header.append(f"mark_{algo}")
    lines = [",".join(header)]
    for prob in table.problems:
        row = [prob]
        for algo in table.algorithms:
            row.append(f"{table.ranks[(prob, algo)]:g}")
            row.append(table.marks[(prob, algo)])
        lines.append(",".join(row))
    avg = ["avg"]
    for algo in table.algorithms:
        mean_rank = np.mean([table.ranks[(p, algo)] for p in table.problems])
        avg.append(f"{mean_rank:.4f}")
        avg.append("")
    lines.append(",".join(avg))
    return "\n".join(lines) + "\n"


def summary_payload(result: ExperimentResult, suite) -> dict:
    cfg = dataclasses.asdict(result.config)
    return {
        "config": cfg,
        "suite": suite_manifest(suite),
        "problems": list(result.table.problems),
        "finals": {f"{p}::{a}": result.finals[(p, a)]
                   for p in result.table.problems for a in result.table.algorithms},
        "failures": [list(f) for f in result.failures],
        "reference": result.table.reference,
    }


def persist_result(result: ExperimentResult, suite):
    out = Path(result.config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "results.csv").write_text(results_csv(result.table), newline="\n")
        (out / "ranks.csv").write_text(ranks_csv(result.table), newline="\n")
        payload = summary_payload(result, suite)
        (out / "summary.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", newline="\n")
        config = result.config
        runs_dir, traces_dir, trees_dir = out / "runs", out / "traces", out / "trees"
        for wanted, directory in ((config.trace, runs_dir), (config.gnuplot, traces_dir),
                                  (config.dump_tree, trees_dir)):
            if wanted:
                directory.mkdir(exist_ok=True)
        for (prob, algo), recs in sorted(result.records.items()):
            for i, rec in enumerate(recs):
                if rec is None:
                    continue
                stem = f"{prob}__{algo}__run{i}"
                if config.trace:
                    record = dataclasses.asdict(rec)
                    del record["tree_dump"]
                    (runs_dir / f"{stem}.json").write_text(
                        json.dumps(record, indent=2) + "\n", newline="\n")
                if config.gnuplot:
                    lines = [f"{e} {_fmt(v)}" for e, v in rec.best_trace]
                    (traces_dir / f"{stem}.dat").write_text("\n".join(lines) + "\n",
                                                            newline="\n")
                if config.dump_tree and rec.tree_dump is not None:
                    (trees_dir / f"{stem}.txt").write_text(rec.tree_dump, newline="\n")
    except OSError as exc:
        raise OSError(f"failed writing results under {out}: {exc}") from exc


def recompute_stats(in_dir) -> StatsTable:
    """Rebuild the tables from a stored summary.json and rewrite the CSVs."""
    in_dir = Path(in_dir)
    summary_path = in_dir / "summary.json"
    try:
        payload = json.loads(summary_path.read_text())
    except OSError as exc:
        raise OSError(f"cannot read {summary_path}: {exc}") from exc
    cfg = payload["config"]
    finals = {}
    problems = payload["problems"]
    algorithms = cfg["algorithms"]
    for key, values in payload["finals"].items():
        prob, algo = key.split("::")
        finals[(prob, algo)] = values
    table = build_stats_table(finals, problems, algorithms, payload["reference"],
                              cfg["alpha"], _failed_counts(payload["failures"]))
    try:
        (in_dir / "results.csv").write_text(results_csv(table), newline="\n")
        (in_dir / "ranks.csv").write_text(ranks_csv(table), newline="\n")
    except OSError as exc:
        raise OSError(f"cannot rewrite tables under {in_dir}: {exc}") from exc
    return table
