"""Experiment runner: seeded independent runs, aggregation, persistence.

Every (algorithm, problem, run) cell owns its own evaluator, archive and
generator, seeded by run index so results are identical no matter how
many workers execute the cells. A crashed run is excluded from the
statistics with a loud warning and a flag in the output table; a cell in
which every run crashed shows as ``runs 0`` with NaN statistics.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .benchmarks import make_suite, suite_manifest
from .errors import ParameterError
from .hr import ALGORITHMS, RunRecord, run_algorithm
from .stats import StatsTable, build_stats_table


@dataclasses.dataclass
class ExperimentConfig:
    algorithms: list
    dim: int
    budget: int
    runs: int = 30
    alpha: float = 0.05
    base_seed: int = 0
    suite_seed: int = 2013
    out_dir: str | None = None
    trace: bool = False
    gnuplot: bool = False
    dump_tree: bool = False
    workers: int = 1
    problems: list | None = None  # subset of suite names; None = all

    def __post_init__(self):
        if not self.algorithms:
            raise ParameterError("at least one algorithm is required")
        if self.problems is not None and not self.problems:
            raise ParameterError("at least one problem is required")
        for algo in self.algorithms:
            if algo not in ALGORITHMS:
                raise ParameterError(f"unknown algorithm id {algo!r}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ParameterError("duplicate algorithm ids")
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


# one suite per (dim, seed) and process, shared by every cell a process runs
_suite = functools.cache(make_suite)


def _execute_cell(config: ExperimentConfig, cell: tuple):
    """Run one (problem, algorithm, run index) cell; must stay picklable."""
    prob, algo, run_idx = cell
    try:
        problem = next(p for p in _suite(config.dim, config.suite_seed) if p.name == prob)
        rng = np.random.default_rng(config.base_seed + run_idx)
        record = run_algorithm(problem, algo, config.budget, rng, dump_tree=config.dump_tree)
        return ("ok", record)
    except Exception as exc:  # noqa: BLE001 - a failed run must not sink the sweep
        return ("failed", f"{type(exc).__name__}: {exc}")


def _failed_counts(failures) -> Counter:
    """(problem, algo) -> number of failed runs, from (problem, algo, run, message) rows."""
    return Counter((prob, algo) for prob, algo, _, _ in failures)


def _outcomes(config: ExperimentConfig, cells):
    """Each cell's ``_execute_cell`` outcome, in cell order, as it arrives."""
    execute = functools.partial(_execute_cell, config)
    if config.workers == 1:
        yield from map(execute, cells)
        return
    # imported here: the process pool and multiprocessing cost a fresh
    # interpreter about 20 ms that a single-worker sweep never needs
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        yield from pool.map(execute, cells, chunksize=1)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every cell and aggregate the final errors. With ``out_dir`` set,
    each run's files are written as its outcome arrives, and its tree dump
    is then dropped from the record, so a sweep holds one dump at a time;
    the tables and the summary are written at the end."""
    suite = _suite(config.dim, config.suite_seed)
    if config.problems is not None:
        known = {p.name for p in suite}
        unknown = [n for n in config.problems if n not in known]
        if unknown:
            raise ParameterError(f"unknown problem names {unknown}")
        suite = [p for p in suite if p.name in config.problems]
    problem_names = [p.name for p in suite]
    f_opt = {p.name: p.f_opt for p in suite}
    out = None if config.out_dir is None else _output_dir(config)

    cells = list(itertools.product(problem_names, config.algorithms, range(config.runs)))
    finals: dict = {(p, a): [] for p in problem_names for a in config.algorithms}
    records: dict = {(p, a): [] for p in problem_names for a in config.algorithms}
    failures = []
    for (prob, algo, run_idx), (status, payload) in zip(cells, _outcomes(config, cells)):
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
        if out is not None:
            _persist_run(config, out, f"{prob}__{algo}__run{run_idx}", record)
            record.tree_dump = None

    table = build_stats_table(finals, problem_names, config.algorithms,
                              config.reference, config.alpha, _failed_counts(failures))
    result = ExperimentResult(config, table, finals, records, failures)
    if out is not None:
        persist_result(result, suite)
    return result


# -- persistence ---------------------------------------------------------

# Strict JSON has no infinity. The evaluator ranks NaN and -inf as +inf, so
# +inf is the one non-finite value a sweep can produce; the JSON files
# write it as this string, and every other float as a JSON number.
INF = "Infinity"


def _json_float(x: float):
    return INF if x == math.inf else x


def _dumps(payload, **kwargs) -> str:
    return json.dumps(payload, indent=2, allow_nan=False, **kwargs) + "\n"


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
        "finals": {f"{p}::{a}": [_json_float(x) for x in result.finals[(p, a)]]
                   for p in result.table.problems for a in result.table.algorithms},
        "failures": [list(f) for f in result.failures],
        "reference": result.table.reference,
    }


def _output_dir(config: ExperimentConfig) -> Path:
    """``out_dir`` and the per-run directories the config asks for, created."""
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for wanted, name in ((config.trace, "runs"), (config.gnuplot, "traces"),
                             (config.dump_tree, "trees")):
            if wanted:
                (out / name).mkdir(exist_ok=True)
    except OSError as exc:
        raise OSError(f"failed writing results under {out}: {exc}") from exc
    return out


def _write(path: Path, text: str):
    """Every file the harness writes, with LF line ends and replaced whole:
    the text goes to ``<name>.tmp`` beside ``path``, which is then renamed
    over it, so a process killed mid-write leaves the old file or the new
    one, never a truncated one. The temporary file does not outlive a
    failure."""
    tmp = path.with_name(f"{path.name}.tmp")
    try:
        try:
            tmp.write_text(text, newline="\n")
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _write_tables(out: Path, table: StatsTable):
    """``results.csv`` and ``ranks.csv`` of ``table`` under ``out``."""
    _write(out / "results.csv", results_csv(table))
    _write(out / "ranks.csv", ranks_csv(table))


def _persist_run(config: ExperimentConfig, out: Path, stem: str, rec: RunRecord):
    """One run's record, convergence trace and tree dump, as the config asks."""
    if config.trace:
        record = dataclasses.asdict(rec)
        del record["tree_dump"]
        record["final_fitness"] = _json_float(rec.final_fitness)
        _write(out / "runs" / f"{stem}.json", _dumps(record))
    if config.gnuplot:
        lines = [f"{e} {_fmt(v)}" for e, v in rec.best_trace]
        _write(out / "traces" / f"{stem}.dat", "\n".join(lines) + "\n")
    if config.dump_tree and rec.tree_dump is not None:
        _write(out / "trees" / f"{stem}.txt", rec.tree_dump)


def persist_result(result: ExperimentResult, suite):
    """The tables and the summary of a finished sweep."""
    out = Path(result.config.out_dir)
    _write_tables(out, result.table)
    _write(out / "summary.json", _dumps(summary_payload(result, suite), sort_keys=True))


def _field(mapping, key: str, kind: type, where: str):
    """``mapping[key]`` if it is a ``kind``, else a ParameterError naming ``key``."""
    value = mapping.get(key) if isinstance(mapping, dict) else None
    if not isinstance(value, kind):
        raise ParameterError(f"{where}: key {key!r} is missing or not a JSON {kind.__name__}")
    return value


def _items(mapping, key: str, kind: type, where: str) -> list:
    """``mapping[key]`` if it is a list of items of exactly ``kind``, else a
    ParameterError naming ``key``."""
    values = _field(mapping, key, list, where)
    if not all(type(v) is kind for v in values):
        raise ParameterError(f"{where}: key {key!r} has an item that is not a JSON "
                             f"{kind.__name__}")
    return values


def _finals(stored, key: str, where) -> list:
    """``stored[key]`` as a list of floats, if each item is what
    ``_json_float`` writes, a finite JSON float or ``INF``, else a
    ParameterError naming ``key``. So neither JSON ``true`` nor ``1`` is a
    final, and neither are the bare tokens ``NaN`` and ``-Infinity``, which
    ``json.loads`` reads as floats. A file written before ``INF`` existed
    holds +inf as the bare token ``Infinity``, read as +inf."""
    values = _field(stored, key, list, where)
    if not all(v == INF or (type(v) is float and (math.isfinite(v) or v == math.inf))
               for v in values):
        raise ParameterError(f"{where}: key {key!r} has an item that is not a JSON float "
                             f"(finite, or {INF!r})")
    return [math.inf if v == INF else v for v in values]


def recompute_stats(in_dir) -> StatsTable:
    """Rebuild the tables from a stored summary.json and rewrite the CSVs."""
    in_dir = Path(in_dir)
    summary_path = in_dir / "summary.json"
    try:
        payload = json.loads(summary_path.read_text())
    except OSError as exc:
        raise OSError(f"cannot read {summary_path}: {exc}") from exc
    cfg = _field(payload, "config", dict, summary_path)
    problems = _items(payload, "problems", str, summary_path)
    algorithms = _items(cfg, "algorithms", str, summary_path)
    for key, names in (("problems", problems), ("algorithms", algorithms)):
        if not names:
            raise ParameterError(f"{summary_path}: key {key!r} is an empty list")
    stored = _field(payload, "finals", dict, summary_path)
    finals = {cell: _finals(stored, "::".join(cell), summary_path)
              for cell in itertools.product(problems, algorithms)}
    failures = _field(payload, "failures", list, summary_path)
    if not all(isinstance(row, list) and len(row) == 4
               and all(type(name) is str for name in row[:2]) for row in failures):
        raise ParameterError(f"{summary_path}: key 'failures' has a row that is not "
                             "a four-item list of problem, algorithm, run and message")
    alpha = _field(cfg, "alpha", float, summary_path)
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"{summary_path}: key 'alpha' must lie in (0, 1)")
    reference = _field(payload, "reference", str, summary_path)
    if reference not in algorithms:
        raise ParameterError(f"{summary_path}: key 'reference' names {reference!r}, "
                             "which key 'algorithms' does not list")
    table = build_stats_table(finals, problems, algorithms, reference, alpha,
                              _failed_counts(failures))
    _write_tables(in_dir, table)
    return table
