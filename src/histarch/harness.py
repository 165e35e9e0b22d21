"""Experiment runner: seeded independent runs, aggregation, persistence.

Every (algorithm, problem, run) cell owns its own evaluator, archive and
generator, seeded by run index so results are identical no matter how
many workers execute the cells. A crashed run is excluded from the
statistics with a loud warning and a flag in the output table; a cell in
which every run crashed shows as ``runs 0`` with NaN statistics.

A sweep's ``summary.json`` holds its config, each cell's finals and the
failure rows, and nothing the config derives. ``read_config`` is the one
reader from a JSON object to a checked ExperimentConfig, for that config
and for ``histarch run --config`` files alike.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import os
import re
import sys
import types
import typing
from collections import Counter
from pathlib import Path

import numpy as np

from .benchmarks import Problem, make_suite
from .errors import ParameterError
from .hr import ALGORITHMS, RunRecord, run_algorithm
from .stats import StatsTable, build_stats_table

# one suite per (dim, seed) and process, shared by every cell a process runs
_suite = functools.cache(make_suite)


def _check_names(kind: str, names: list[str], known):
    """Each of ``names`` is in ``known``, and none is there twice."""
    for name in names:
        if name not in known:
            raise ParameterError(f"unknown {kind} {name!r}")
    if len(set(names)) != len(names):
        raise ParameterError(f"duplicate {kind}s")


@dataclasses.dataclass
class ExperimentConfig:
    algorithms: list[str]
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
    problems: list[str] | None = None  # subset of suite names; None = all

    def __post_init__(self):
        if not self.algorithms:
            raise ParameterError("at least one algorithm is required")
        if self.problems is not None and not self.problems:
            raise ParameterError("at least one problem is required")
        _check_names("algorithm id", self.algorithms, ALGORITHMS)
        if self.runs < 2:
            raise ParameterError("need at least 2 independent runs")
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError("alpha must lie in (0, 1)")
        if self.budget < 2:
            raise ParameterError("budget must be >= 2")
        if self.workers < 1:
            raise ParameterError("workers must be >= 1")
        # numpy's generators take no negative seed
        if self.base_seed < 0:
            raise ParameterError(f"base_seed must be >= 0, got {self.base_seed}")
        if self.suite_seed < 0:
            raise ParameterError(f"suite_seed must be >= 0, got {self.suite_seed}")
        # make_suite rejects an unsupported dim
        names = [p.name for p in _suite(self.dim, self.suite_seed)]
        _check_names("problem name", self.problems or [], names)

    def selected_problems(self) -> list[Problem]:
        """The problems the sweep runs: those ``problems`` names, in suite order."""
        suite = _suite(self.dim, self.suite_seed)
        return suite if self.problems is None else [p for p in suite if p.name in self.problems]

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


def _table(config: ExperimentConfig, problems, finals: dict, failures) -> StatsTable:
    """The statistics of a sweep, each cell flagged with its failure rows,
    which are (problem, algo, run index, message)."""
    failed = Counter((prob, algo) for prob, algo, _, _ in failures)
    return build_stats_table(finals, problems, config.algorithms, config.reference,
                             config.alpha, failed)


def _outcomes(config: ExperimentConfig, cells):
    """Each cell's ``_execute_cell`` outcome, in cell order, as it arrives."""
    execute = functools.partial(_execute_cell, config)
    if config.workers == 1:
        yield from map(execute, cells)
        return
    # imported here: the process pool and multiprocessing cost a fresh
    # interpreter about 20 ms that a single-worker sweep never needs
    from concurrent.futures import ProcessPoolExecutor
    # the pool starts all its workers at the first submit, so a worker
    # beyond the cell count would only cost a process
    with ProcessPoolExecutor(max_workers=min(config.workers, len(cells))) as pool:
        yield from pool.map(execute, cells, chunksize=1)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every cell and aggregate the final errors. With ``out_dir`` set,
    each run's files are written as its outcome arrives, and its tree dump
    is then dropped from the record, so a sweep holds one dump at a time;
    the tables and the summary are written at the end."""
    suite = config.selected_problems()
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
        finals[(prob, algo)].append(float(record.final_fitness - f_opt[prob]))
        records[(prob, algo)].append(record)
        if out is not None:
            _persist_run(config, out, f"{prob}__{algo}__run{run_idx}", record)
            record.tree_dump = None

    table = _table(config, problem_names, finals, failures)
    result = ExperimentResult(config, table, finals, records, failures)
    if out is not None:
        persist_result(result)
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


def summary_payload(result: ExperimentResult) -> dict:
    """What the config cannot derive: each cell's finals and the failure
    rows. The problems, their order and the reference come from the config."""
    return {
        "config": dataclasses.asdict(result.config),
        "finals": {"::".join(cell): [_json_float(x) for x in values]
                   for cell, values in result.finals.items()},
        "failures": [list(f) for f in result.failures],
    }


# each kind of per-run file: the config field that asks for it and its
# path under out_dir, given the run's stem, which run_experiment makes
# <problem>__<algorithm>__run<index>
RUN_FILES = {"trace": "runs/{}.json", "gnuplot": "traces/{}.dat", "dump_tree": "trees/{}.txt"}
_RUN_STEM = re.compile(r".+__.+__run[0-9]+")


def _output_dir(config: ExperimentConfig) -> Path:
    """``out_dir`` and the per-run directories the config asks for, created,
    once an earlier sweep's tables, summary and per-run files (as
    ``RUN_FILES`` names them) are removed from it; other files stay."""
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name in ("summary.json", "results.csv", "ranks.csv"):
            (out / name).unlink(missing_ok=True)
        for field, path in RUN_FILES.items():
            for earlier in out.glob(path.format("*")):
                if _RUN_STEM.fullmatch(earlier.stem) and earlier.is_file():
                    earlier.unlink()
            if getattr(config, field):
                (out / path).parent.mkdir(exist_ok=True)
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
        _write(out / RUN_FILES["trace"].format(stem), _dumps(record))
    if config.gnuplot:
        lines = [f"{e} {_fmt(v)}" for e, v in rec.best_trace]
        _write(out / RUN_FILES["gnuplot"].format(stem), "\n".join(lines) + "\n")
    if config.dump_tree and rec.tree_dump is not None:
        _write(out / RUN_FILES["dump_tree"].format(stem), rec.tree_dump)


def persist_result(result: ExperimentResult):
    """The tables and the summary of a finished sweep."""
    out = Path(result.config.out_dir)
    _write_tables(out, result.table)
    _write(out / "summary.json", _dumps(summary_payload(result), sort_keys=True))


def _is_json(value, hint) -> bool:
    """Whether ``value``, as ``json.loads`` returns it, is exactly of type
    ``hint``: JSON ``true`` is no int, ``1`` no float, and a ``list[str]``
    holds strings only."""
    origin = typing.get_origin(hint)
    if origin is types.UnionType:
        return any(_is_json(value, member) for member in typing.get_args(hint))
    if origin is list:
        return type(value) is list and all(_is_json(v, *typing.get_args(hint)) for v in value)
    return type(value) is hint


def _field(mapping, key: str, hint, where):
    """``mapping[key]`` if it is of type ``hint``, else a ParameterError naming ``key``."""
    value = mapping.get(key) if isinstance(mapping, dict) else None
    if _is_json(value, hint):
        return value
    if typing.get_origin(hint) is list and type(value) is list:
        (item,) = typing.get_args(hint)
        raise ParameterError(f"{where}: key {key!r} has an item that is not a JSON "
                             f"{item.__name__}")
    raise ParameterError(f"{where}: key {key!r} is missing or not a JSON "
                         f"{getattr(hint, '__name__', hint)}")


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


def read_json(path: Path):
    """The JSON value in the UTF-8 file ``path``."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParameterError(f"{path}: not a UTF-8 JSON file: {exc}") from exc


def read_config(stored: dict, where) -> ExperimentConfig:
    """The ExperimentConfig whose ``dataclasses.asdict`` is ``stored``, the
    one reader of a config from JSON: ``histarch run --config`` and
    ``histarch stats`` both come here. Each key must be a field of the
    type the field is annotated with, and a field without a default must
    be there; ``__post_init__`` then checks the values. Every error is
    reported under ``where``."""
    hints = typing.get_type_hints(ExperimentConfig)
    for key in stored:
        if key not in hints:
            raise ParameterError(f"{where}: key {key!r} is not an ExperimentConfig field")
    for field in dataclasses.fields(ExperimentConfig):
        if field.name in stored or field.default is dataclasses.MISSING:
            _field(stored, field.name, hints[field.name], where)
    try:
        return ExperimentConfig(**stored)
    except ParameterError as exc:
        raise ParameterError(f"{where}: {exc}") from exc


def recompute_stats(in_dir) -> StatsTable:
    """Rebuild the tables from a stored summary.json and rewrite the CSVs.
    The config the summary stores fixes the problems, their order and the
    reference; ``finals`` must hold exactly its cells, each failure row
    must be one run of the sweep, named once, and every cell's finals and
    failure rows must add up to ``runs``. Other top-level keys, such as the
    ``suite``, ``problems`` and ``reference`` that older files hold, are
    ignored."""
    in_dir = Path(in_dir)
    summary_path = in_dir / "summary.json"
    payload = read_json(summary_path)
    config = read_config(_field(payload, "config", dict, summary_path),
                         f"{summary_path}: key 'config'")
    problems = [p.name for p in config.selected_problems()]
    cells = list(itertools.product(problems, config.algorithms))
    stored = _field(payload, "finals", dict, summary_path)
    extra = sorted(stored.keys() - {"::".join(cell) for cell in cells})
    if extra:
        raise ParameterError(f"{summary_path}: key {extra[0]!r} is not a cell of the "
                             "config's problems and algorithms")
    finals = {cell: _finals(stored, "::".join(cell), summary_path) for cell in cells}
    failures = _field(payload, "failures", list, summary_path)
    if not all(isinstance(row, list) and [type(item) for item in row] == [str, str, int, str]
               for row in failures):
        raise ParameterError(f"{summary_path}: key 'failures' has a row that is not "
                             "a four-item list of problem, algorithm, run and message")
    failed_runs = set()
    for prob, algo, run, _ in failures:
        if (prob, algo) not in finals:
            raise ParameterError(f"{summary_path}: key 'failures' names cell "
                                 f"'{prob}::{algo}', which is not in the table")
        if not 0 <= run < config.runs or (prob, algo, run) in failed_runs:
            raise ParameterError(f"{summary_path}: key 'failures' names run {run} of "
                                 f"'{prob}::{algo}' twice or outside range({config.runs})")
        failed_runs.add((prob, algo, run))
    table = _table(config, problems, finals, failures)
    for (prob, algo), cell in table.cells.items():
        if cell.n_runs + cell.n_failed != config.runs:
            raise ParameterError(
                f"{summary_path}: key '{prob}::{algo}' has {cell.n_runs} finals and "
                f"{cell.n_failed} failure rows, but key 'runs' is {config.runs}")
    _write_tables(in_dir, table)
    return table
