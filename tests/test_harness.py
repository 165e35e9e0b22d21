import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import histarch.harness as harness
from histarch import (ExperimentConfig, ParameterError, Problem, Region, recompute_stats,
                      run_experiment)
from histarch.hr import ALGORITHMS
from histarch.cli import main
from util import rowwise

ROOT = Path(__file__).resolve().parent.parent


def small_config(out_dir=None, **kw):
    base = dict(algorithms=["cmaes", "cnrga"], dim=2, budget=300, runs=2,
                base_seed=7, suite_seed=11, out_dir=out_dir,
                problems=["sphere", "rastrigin"])
    base.update(kw)
    return ExperimentConfig(**base)


def test_minimal_experiment_shape():
    cfg = ExperimentConfig(algorithms=["cmaes"], dim=2, budget=200, runs=2,
                           problems=["sphere"])
    result = run_experiment(cfg)
    assert result.table.problems == ["sphere"]
    cell = result.table.cells[("sphere", "cmaes")]
    assert cell.n_runs == 2
    assert result.table.ranks[("sphere", "cmaes")] == 1.0
    assert len(result.finals[("sphere", "cmaes")]) == 2


def test_reference_defaults_to_hr_when_present():
    cfg = small_config(algorithms=["cnrga", "hr"])
    assert cfg.reference == "hr"
    assert small_config().reference == "cmaes"


def test_config_validation():
    with pytest.raises(ParameterError):
        small_config(algorithms=["bogus"])
    with pytest.raises(ParameterError):
        small_config(runs=1)
    with pytest.raises(ParameterError):
        small_config(alpha=1.5)
    with pytest.raises(ParameterError):
        small_config(algorithms=["cmaes", "cmaes"])
    with pytest.raises(ParameterError):
        run_experiment(small_config(problems=["nope"]))
    with pytest.raises(ParameterError, match="at least one problem"):
        small_config(problems=[])
    with pytest.raises(ParameterError, match="unknown problem name 'nope'"):
        small_config(problems=["sphere", "nope"])
    with pytest.raises(ParameterError, match="duplicate problem names"):
        small_config(problems=["sphere", "sphere"])
    with pytest.raises(ParameterError, match="unsupported dimension 5"):
        small_config(dim=5)


def test_results_reproducible_and_worker_independent(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    run_experiment(small_config(str(out_a)))
    run_experiment(small_config(str(out_b)))
    run_experiment(small_config(str(out_c), workers=2))
    csv_a = (out_a / "results.csv").read_bytes()
    assert csv_a == (out_b / "results.csv").read_bytes()
    assert csv_a == (out_c / "results.csv").read_bytes()
    assert (out_a / "ranks.csv").read_bytes() == (out_c / "ranks.csv").read_bytes()


def test_pool_never_gets_more_workers_than_cells(tmp_path, monkeypatch):
    import concurrent.futures

    asked = []

    class InProcessPool:
        """Records ``max_workers`` and maps in this process: no process starts."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    one_cell = dict(algorithms=["cmaes"], problems=["sphere"])
    run_experiment(small_config(str(tmp_path / "many"), workers=64, **one_cell))
    run_experiment(small_config(str(tmp_path / "one"), workers=1, **one_cell))
    assert asked == [2]  # one problem, one algorithm, two runs
    for name in ("results.csv", "ranks.csv"):
        assert (tmp_path / "many" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_outputs_written_and_recompute_round_trips(tmp_path):
    out = tmp_path / "exp"
    # out of suite order: run and stats must both derive the table's order
    run_experiment(small_config(str(out), trace=True, gnuplot=True, dump_tree=True,
                                algorithms=["cmaes", "cnrga_lru"],
                                problems=["rastrigin", "sphere"]))
    results_before = (out / "results.csv").read_bytes()
    ranks_before = (out / "ranks.csv").read_bytes()
    summary = json.loads((out / "summary.json").read_text())
    assert sorted(summary) == ["config", "failures", "finals"]
    assert summary["config"]["budget"] == 300
    assert summary["config"]["problems"] == ["rastrigin", "sphere"]
    assert [row.split(",")[0] for row in ranks_before.decode().split("\n")[1:3]] == \
        ["sphere", "rastrigin"]
    assert set(summary["finals"]) == {
        f"{p}::{a}" for p in ("sphere", "rastrigin") for a in ("cmaes", "cnrga_lru")}
    run_files = sorted((out / "runs").glob("*.json"))
    assert len(run_files) == 8  # 2 problems x 2 algorithms x 2 runs
    record = json.loads(run_files[0].read_text())
    for key in ("algo", "problem", "budget", "evals_used", "best_trace", "phases",
                "final_coords", "final_fitness", "search_space_exhausted"):
        assert key in record
    trace_files = list((out / "traces").glob("*.dat"))
    assert len(trace_files) == 8
    first = trace_files[0].read_text().strip().split("\n")
    eval_idx, best = first[0].split(" ")
    int(eval_idx), float(best)
    tree_files = list((out / "trees").glob("*.txt"))
    assert len(tree_files) == 4  # only the archive-backed algorithm dumps trees
    recompute_stats(out)
    assert (out / "results.csv").read_bytes() == results_before
    assert (out / "ranks.csv").read_bytes() == ranks_before


def test_recompute_ignores_the_keys_older_summaries_hold(tmp_path):
    out = tmp_path / "exp"
    config = small_config(str(out))
    run_experiment(config)
    tables = [(out / name).read_bytes() for name in ("results.csv", "ranks.csv")]
    # the suite manifest, problem list and reference that older files also stored
    summary = json.loads((out / "summary.json").read_text())
    problems = config.selected_problems()
    summary["suite"] = [{"name": p.name, "dim": p.dim, "lower": p.domain.lower.tolist(),
                         "upper": p.domain.upper.tolist(), "f_opt": p.f_opt,
                         "category": p.category} for p in problems]
    summary["problems"] = [p.name for p in problems]
    summary["reference"] = config.reference
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    recompute_stats(out)
    assert [(out / name).read_bytes() for name in ("results.csv", "ranks.csv")] == tables


def test_csv_headers_match_table_columns(tmp_path):
    out = tmp_path / "exp"
    run_experiment(small_config(str(out)))
    header = (out / "results.csv").read_text().split("\n")[0]
    assert header == "problem,algorithm,best,worst,median,mean,std,runs,failed"
    rank_header = (out / "ranks.csv").read_text().split("\n")[0]
    assert rank_header == "problem,rank_cmaes,mark_cmaes,rank_cnrga,mark_cnrga"


def test_failed_run_excluded_with_flag(tmp_path, monkeypatch, capsys):
    real = harness.run_algorithm
    def flaky(problem, algo, budget, rng, dump_tree=False):
        if algo == "cnrga" and problem.name == "sphere" and flaky.calls == 0:
            flaky.calls += 1
            raise RuntimeError("injected crash")
        return real(problem, algo, budget, rng, dump_tree=dump_tree)
    flaky.calls = 0
    monkeypatch.setattr(harness, "run_algorithm", flaky)
    out = tmp_path / "exp"
    result = run_experiment(small_config(str(out), runs=3))
    captured = capsys.readouterr()
    assert "WARNING" in captured.err and "injected crash" in captured.err
    assert len(result.failures) == 1
    cell = result.table.cells[("sphere", "cnrga")]
    assert cell.n_runs == 2 and cell.n_failed == 1
    text = (out / "results.csv").read_text()
    assert "sphere,cnrga" in text
    row = next(l for l in text.split("\n") if l.startswith("sphere,cnrga"))
    assert row.endswith(",2,1")
    # two finals and one failure row add up to the 3 runs the summary stores
    tables = [(out / name).read_bytes() for name in ("results.csv", "ranks.csv")]
    recompute_stats(out)
    assert [(out / name).read_bytes() for name in ("results.csv", "ranks.csv")] == tables


def sweep_never_finite(out, monkeypatch, **kw):
    """Every algorithm on one problem whose every value is NaN, so every run
    ends with an infinite final error."""
    domain = Region(np.full(2, -5.0), np.full(2, 5.0))
    nan_problem = Problem("nan", domain, rowwise(lambda x: math.nan), 0.0, "unimodal")
    monkeypatch.setattr(harness, "_suite", lambda dim, seed: [nan_problem])
    return run_experiment(small_config(str(out), algorithms=list(ALGORITHMS),
                                       problems=None, **kw))


def test_never_finite_objective_sweeps_without_warnings(tmp_path, monkeypatch):
    # the suite's RuntimeWarning filter turns any numpy warning into an error
    out = tmp_path / "nan"
    result = sweep_never_finite(out, monkeypatch)
    assert not result.failures
    for algo in ALGORITHMS:
        cell = result.table.cells[("nan", algo)]
        assert (cell.n_runs, cell.best, cell.median, cell.mean) == (2, math.inf, math.inf,
                                                                    math.inf)
        assert math.isnan(cell.std)
    assert "nan,hr,inf,inf,inf,inf,nan,2,0" in (out / "results.csv").read_text()


def strict_json(text):
    """``json.loads`` that refuses the non-standard tokens NaN and +-Infinity."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def test_never_finite_sweep_writes_strict_json_and_reads_it_back(tmp_path, monkeypatch):
    out = tmp_path / "nan"
    sweep_never_finite(out, monkeypatch, trace=True)
    files = [out / "summary.json", *sorted((out / "runs").glob("*.json"))]
    assert len(files) == 1 + 2 * len(ALGORITHMS)
    for path in files:
        strict_json(path.read_text())
    run = strict_json((out / "runs" / "nan__hr__run0.json").read_text())
    assert run["final_fitness"] == harness.INF

    def tables():
        return [(out / name).read_bytes() for name in ("results.csv", "ranks.csv")]
    written = tables()
    recompute_stats(out)
    assert tables() == written
    # a summary written before strict JSON holds +inf as a bare Infinity token
    summary = strict_json((out / "summary.json").read_text())
    summary["finals"] = {cell: [math.inf if v == harness.INF else v for v in values]
                         for cell, values in summary["finals"].items()}
    legacy = json.dumps(summary, indent=2, sort_keys=True)
    assert "Infinity," in legacy
    (out / "summary.json").write_text(legacy)
    recompute_stats(out)
    assert tables() == written


# -- CLI ---------------------------------------------------------------------

def cli_run_args(out, extra=()):
    return ["run", "--suite", "2d", "--algos", "cmaes,cnrga", "--budget", "300",
            "--runs", "2", "--seed", "7", "--suite-seed", "11",
            "--problems", "sphere,rastrigin", "--out", str(out), *extra]


def test_cli_run_and_stats(tmp_path, capsys):
    out = tmp_path / "cli"
    assert main(cli_run_args(out, ["--trace", "--gnuplot", "--dump-tree"])) == 0
    assert (out / "results.csv").exists()
    assert list((out / "runs").glob("*.json"))
    assert list((out / "traces").glob("*.dat"))
    assert list((out / "trees").glob("*.txt"))  # cnrga runs carry a tree dump
    assert main(["stats", "--in", str(out)]) == 0
    captured = capsys.readouterr()
    assert "recomputed" in captured.out


def test_cli_missing_budget_is_config_error(tmp_path, capsys):
    code = main(["run", "--suite", "2d", "--algos", "cmaes",
                 "--out", str(tmp_path / "x")])
    assert code == 2


@pytest.mark.parametrize("names", [",", ""])
def test_cli_empty_problem_list_is_config_error(tmp_path, capsys, names):
    out = tmp_path / "x"
    code = main(["run", "--suite", "2d", "--algos", "cmaes", "--budget", "100",
                 "--runs", "2", "--problems", names, "--out", str(out)])
    assert code == 2
    assert "at least one problem" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bad_algo_is_config_error(tmp_path):
    code = main(["run", "--suite", "2d", "--algos", "simplex", "--budget", "100",
                 "--runs", "2", "--out", str(tmp_path / "x")])
    assert code == 2


@pytest.mark.parametrize("flag, value, key", [("--seed", "-1", "base_seed"),
                                              ("--suite-seed", "-3", "suite_seed")],
                         ids=["seed", "suite_seed"])
def test_cli_negative_seed_is_config_error(tmp_path, capsys, flag, value, key):
    # numpy's generators refuse a negative seed: unchecked, --seed -1 fails
    # run 0 of every cell, and --suite-seed -3 the suite build
    out = tmp_path / "x"
    code = main(["run", "--suite", "2d", "--algos", "cmaes,cnrga", "--budget", "100",
                 "--runs", "2", "--problems", "sphere", flag, value, "--out", str(out)])
    assert code == 2
    assert f"command line: {key} must be >= 0, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_cli_budget_inside_initial_population_runs_hr(tmp_path, capsys):
    # 50 evaluations end inside the hybrid's 100-point initial population
    out = tmp_path / "b50"
    assert main(["run", "--suite", "2d", "--algos", "hr,cmaes,cnrga", "--budget", "50",
                 "--runs", "2", "--problems", "sphere", "--out", str(out)]) == 0
    assert "0 failed" in capsys.readouterr().out
    row = next(line for line in (out / "results.csv").read_text().split("\n")
               if line.startswith("sphere,hr,"))
    assert row.endswith(",2,0")


def test_cli_stats_missing_dir_is_io_error(tmp_path):
    assert main(["stats", "--in", str(tmp_path / "absent")]) == 3


# a summary.json that ``histarch stats`` reads back
WELL_FORMED = {"config": {"algorithms": ["hr"], "alpha": 0.05, "dim": 2, "budget": 300,
                          "runs": 2, "problems": ["sphere"]},
               "finals": {"sphere::hr": [1.0, 2.0]}, "failures": []}


def well_formed_config(**fields):
    return dict(WELL_FORMED["config"], **fields)


@pytest.mark.parametrize("summary, named", [
    ({"finals": {}}, "key 'config' is missing"),
    ([1, 2], "key 'config' is missing"),
    ({"config": {"algorithms": "hr"}},
     "key 'algorithms' is missing or not a JSON list"),
    (dict(WELL_FORMED, finals={}), "key 'sphere::hr' is missing"),
    (dict(WELL_FORMED, failures=[1]), "key 'failures' has a row"),
    (dict(WELL_FORMED, failures=[["sphere", "hr"]]), "key 'failures' has a row"),
    (dict(WELL_FORMED, failures=[[["sphere"], "hr", 0, "crash"]]), "key 'failures' has a row"),
    (dict(WELL_FORMED, finals={"sphere::hr": None}), "key 'sphere::hr' is missing"),
    (dict(WELL_FORMED, finals={"sphere::hr": ["1.0", "2.0"]}),
     "key 'sphere::hr' has an item that is not a JSON float"),
    (dict(WELL_FORMED, finals={"sphere::hr": [10 ** 400]}),
     "key 'sphere::hr' has an item that is not a JSON float"),
    (dict(WELL_FORMED, finals=[[1.0, 2.0]]), "key 'finals' is missing or not a JSON dict"),
    (dict(WELL_FORMED, config=well_formed_config(alpha=1.5)),
     "key 'config': alpha must lie in (0, 1)"),
    # the finals of exactly the config's cells, beside the failure rows
    (dict(WELL_FORMED, finals={"sphere::hr": [1.0, 2.0], "sphere::cmaes": [1.0, 2.0]}),
     "key 'sphere::cmaes' is not a cell of the config's problems and algorithms"),
    ({"config": WELL_FORMED["config"], "finals": WELL_FORMED["finals"]},
     "key 'failures' is missing or not a JSON list"),
    (dict(WELL_FORMED, config=well_formed_config(algorithms=[])),
     "key 'config': at least one algorithm is required"),
    (dict(WELL_FORMED, finals={"sphere::hr": [1.0, 2.0], "sphere": [1.0, 2.0]}),
     "key 'sphere' is not a cell of the config's problems and algorithms"),
    (dict(WELL_FORMED, finals={"sphere::hr": [1.0, "-Infinity"]}),
     "key 'sphere::hr' has an item that is not a JSON float"),
    # bare NaN and -Infinity tokens, which json.loads reads as floats
    (dict(WELL_FORMED, config=well_formed_config(algorithms=["hr", "cmaes"]),
          finals={"sphere::hr": [1.0, math.nan], "sphere::cmaes": [2.0, 3.0]}),
     "key 'sphere::hr' has an item that is not a JSON float"),
    (dict(WELL_FORMED, config=well_formed_config(algorithms=["hr", "cmaes"]),
          finals={"sphere::hr": [1.0, -math.inf], "sphere::cmaes": [2.0, 3.0]}),
     "key 'sphere::hr' has an item that is not a JSON float"),
    # a cell's finals and failure rows add up to the config's runs
    (dict(WELL_FORMED, finals={"sphere::hr": []}),
     "key 'sphere::hr' has 0 finals and 0 failure rows, but key 'runs' is 2"),
    (dict(WELL_FORMED, finals={"sphere::hr": [1.0]}),
     "key 'sphere::hr' has 1 finals and 0 failure rows, but key 'runs' is 2"),
    (dict(WELL_FORMED, config=well_formed_config(runs=1)),
     "key 'config': need at least 2 independent runs"),
    (dict(WELL_FORMED, failures=[["ghost", "hr", 0, "x"]]),
     "key 'failures' names cell 'ghost::hr', which is not in the table"),
    (dict(WELL_FORMED, finals={"sphere::hr": [1.0, 2.0], "rastrigin::hr": [1.0, 2.0]}),
     "key 'rastrigin::hr' is not a cell of the config's problems and algorithms"),
    pytest.param(json.dumps(WELL_FORMED)[:11].encode(), "summary.json: not a UTF-8 JSON file",
                 id="truncated"),
    pytest.param(b"\xff" + json.dumps(WELL_FORMED).encode(),
                 "summary.json: not a UTF-8 JSON file", id="not_utf8"),
    # the config is an ExperimentConfig, field by field
    (dict(WELL_FORMED, config=well_formed_config(budjet=300)),
     "key 'budjet' is not an ExperimentConfig field"),
    (dict(WELL_FORMED, config=well_formed_config(runs=True)),
     "key 'runs' is missing or not a JSON int"),
    (dict(WELL_FORMED, config=well_formed_config(problems=["sphere", 1])),
     "key 'problems' is missing or not a JSON list[str] | None"),
    (dict(WELL_FORMED, config={"algorithms": ["hr"], "budget": 300, "runs": 2}),
     "key 'dim' is missing or not a JSON int"),
    # the table's problems are those the config selects, and each failure
    # row is one run of the sweep
    (dict(WELL_FORMED, finals={"rastrigin::hr": [1.0, 2.0]}),
     "key 'rastrigin::hr' is not a cell of the config's problems and algorithms"),
    (dict(WELL_FORMED, config=well_formed_config(problems=None),
          finals={"nosuch::hr": [1.0, 2.0]}),
     "key 'nosuch::hr' is not a cell of the config's problems and algorithms"),
    (dict(WELL_FORMED, config=well_formed_config(dim=5)),
     "summary.json: key 'config': unsupported dimension 5"),
    (dict(WELL_FORMED, finals={"sphere::hr": [1.0]}, failures=[["sphere", "hr", 7, "x"]]),
     "key 'failures' names run 7 of 'sphere::hr'"),
    (dict(WELL_FORMED, finals={"sphere::hr": []},
          failures=[["sphere", "hr", 0, "x"], ["sphere", "hr", 0, "y"]]),
     "key 'failures' names run 0 of 'sphere::hr' twice"),
    (dict(WELL_FORMED, finals={"sphere::hr": [1.0]}, failures=[["sphere", "hr", 1, {"a": 1}]]),
     "key 'failures' has a row that is not a four-item list"),
    (dict(WELL_FORMED, config=well_formed_config(base_seed=-1)),
     "summary.json: key 'config': base_seed must be >= 0"),
])
def test_cli_stats_malformed_summary_is_config_error(tmp_path, capsys, summary, named):
    raw = summary if isinstance(summary, bytes) else json.dumps(summary).encode()
    (tmp_path / "summary.json").write_bytes(raw)
    assert main(["stats", "--in", str(tmp_path)]) == 2
    assert named in capsys.readouterr().err


def test_cli_run_into_unwritable_out_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "x"
    assert main(cli_run_args(out)) == 3
    assert str(out) in capsys.readouterr().err


def test_cli_stats_unwritable_table_is_io_error(tmp_path, capsys):
    (tmp_path / "summary.json").write_text(json.dumps(WELL_FORMED))
    (tmp_path / "results.csv").mkdir()
    assert main(["stats", "--in", str(tmp_path)]) == 3
    assert str(tmp_path / "results.csv") in capsys.readouterr().err


def test_failed_write_keeps_the_old_file_and_no_temporary(tmp_path, monkeypatch, capsys):
    (tmp_path / "summary.json").write_text(json.dumps(WELL_FORMED))
    (tmp_path / "results.csv").write_bytes(b"old table\n")

    def refuse(src, dst):
        raise OSError("injected rename failure")
    monkeypatch.setattr(os, "replace", refuse)
    assert main(["stats", "--in", str(tmp_path)]) == 3
    assert "injected rename failure" in capsys.readouterr().err
    assert (tmp_path / "results.csv").read_bytes() == b"old table\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_cli_config_file_mirrors_flags(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "dim": 2, "algorithms": ["cmaes", "cnrga"], "budget": 300, "runs": 2,
        "base_seed": 7, "suite_seed": 11, "problems": ["sphere", "rastrigin"],
        "out_dir": str(tmp_path / "from_config")}))
    assert main(["run", "--config", str(cfg_file)]) == 0
    flag_out = tmp_path / "from_flags"
    assert main(cli_run_args(flag_out)) == 0
    assert ((tmp_path / "from_config") / "results.csv").read_bytes() == \
        (flag_out / "results.csv").read_bytes()


def test_cli_flag_overrides_config_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "dim": 2, "algorithms": ["cmaes"], "budget": 300, "runs": 2,
        "suite_seed": 11, "problems": ["sphere"], "out_dir": str(tmp_path / "o1")}))
    assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "o2"),
                 "--runs", "3"]) == 0
    summary = json.loads((tmp_path / "o2" / "summary.json").read_text())
    assert summary["config"]["runs"] == 3
    assert not (tmp_path / "o1").exists()
    # a zero-valued flag still wins over the file
    cfg_file.write_text(json.dumps({
        "dim": 2, "algorithms": ["cmaes"], "budget": 300, "runs": 2,
        "base_seed": 7, "problems": ["sphere"]}))
    assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "o3"),
                 "--seed", "0"]) == 0
    summary = json.loads((tmp_path / "o3" / "summary.json").read_text())
    assert summary["config"]["base_seed"] == 0


def test_cli_summary_config_reruns_the_sweep(tmp_path):
    first = tmp_path / "first"
    assert main(cli_run_args(first, ["--trace"])) == 0
    stored = json.loads((first / "summary.json").read_text())["config"]
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(stored))
    again = tmp_path / "again"
    assert main(["run", "--config", str(cfg_file), "--out", str(again)]) == 0
    for name in ("results.csv", "ranks.csv"):
        assert (again / name).read_bytes() == (first / name).read_bytes()
    rerun = json.loads((again / "summary.json").read_text())["config"]
    assert rerun == dict(stored, out_dir=str(again))


def test_cli_config_never_replaces_the_sweep_it_names(tmp_path, capsys):
    first = tmp_path / "first"
    assert main(cli_run_args(first)) == 0
    before = {p.name: p.read_bytes() for p in first.iterdir() if p.is_file()}
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(json.loads((first / "summary.json").read_text())["config"]))
    capsys.readouterr()
    assert main(["run", "--config", str(cfg_file)]) == 2
    assert f"out_dir {first} already holds a summary.json" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in first.iterdir() if p.is_file()} == before
    # an explicit --out may still name it
    assert main(["run", "--config", str(cfg_file), "--out", str(first)]) == 0
    assert (first / "results.csv").read_bytes() == before["results.csv"]


def test_sweep_replaces_an_earlier_sweep_in_its_out_dir(tmp_path, monkeypatch):
    out = tmp_path / "o"
    sweep = ["run", "--suite", "2d", "--algos", "cnrga", "--budget", "200",
             "--problems", "sphere", "--out", str(out)]
    assert main([*sweep, "--runs", "3", "--trace", "--gnuplot", "--dump-tree"]) == 0
    # files a sweep does not name stay
    kept = [out / "notes.txt", out / "runs" / "notes.json",
            out / "traces" / "sphere__cnrga__runX.dat", out / "trees" / "sphere__cnrga.txt"]
    for path in kept:
        path.write_text("mine\n")
    seen = []
    run = harness.run_algorithm

    def spy(*args, **kwargs):
        seen.append(sorted(p.name for p in out.iterdir() if p.is_file()))
        return run(*args, **kwargs)

    monkeypatch.setattr(harness, "run_algorithm", spy)
    assert main([*sweep, "--runs", "2", "--trace"]) == 0
    assert seen[0] == ["notes.txt"]
    assert sorted(p.name for p in (out / "runs").iterdir()) == \
        ["notes.json", "sphere__cnrga__run0.json", "sphere__cnrga__run1.json"]
    assert [p.name for p in (out / "traces").iterdir()] == ["sphere__cnrga__runX.dat"]
    assert [p.name for p in (out / "trees").iterdir()] == ["sphere__cnrga.txt"]
    assert all(path.read_text() == "mine\n" for path in kept)
    assert json.loads((out / "summary.json").read_text())["config"]["runs"] == 2


def write_config(tmp_path, **overrides):
    """A valid two-run 2-D config file with ``overrides`` applied, writing
    to ``tmp_path / "x"``."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "dim": 2, "algorithms": ["cmaes"], "budget": 300, "runs": 2,
        "problems": ["sphere"], "out_dir": str(tmp_path / "x"), **overrides}))
    return cfg_file


def test_cli_unknown_config_key_rejected(tmp_path, capsys):
    cfg_file = write_config(tmp_path, budjet=300)
    assert main(["run", "--config", str(cfg_file)]) == 2
    assert f"{cfg_file}: key 'budjet' is not an ExperimentConfig field" in \
        capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("overrides, message", [
    ({"runs": "x"}, "key 'runs' is missing or not a JSON int"),
    ({"suite_seed": "x"}, "key 'suite_seed' is missing or not a JSON int"),
    ({"config": "other.json"}, "key 'config' is not an ExperimentConfig field"),
    ({"command": "stats"}, "key 'command' is not an ExperimentConfig field"),
    ({"dim": 5}, "unsupported dimension 5"),
    ({"base_seed": -1}, "base_seed must be >= 0"),
], ids=["unparsable_string", "unparsable_suite_seed", "config_key", "command_key",
        "unknown_suite", "negative_base_seed"])
def test_cli_config_file_errors_exit_2(tmp_path, capsys, overrides, message):
    cfg_file = write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(cfg_file)]) == 2
    err = capsys.readouterr().err
    assert f"{cfg_file}: {message}" in err and "argument --" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("key, value", [
    ("trace", "false"), ("gnuplot", 1), ("dump_tree", None),
    ("budget", 300.7), ("budget", True), ("runs", 2.0), ("base_seed", "7.5"),
    ("alpha", True), ("alpha", [0.05]), ("algorithms", "cmaes"), ("out_dir", 3),
])
def test_cli_wrongly_typed_config_value_exits_2(tmp_path, capsys, key, value):
    cfg_file = write_config(tmp_path, **{key: value})
    assert main(["run", "--config", str(cfg_file)]) == 2
    assert f"key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_algorithm_that_always_fails_keeps_the_sweep(tmp_path, monkeypatch, capsys):
    real = harness.run_algorithm
    def broken(problem, algo, budget, rng, dump_tree=False):
        if algo == "cnrga":
            raise RuntimeError("injected crash")
        return real(problem, algo, budget, rng, dump_tree=dump_tree)
    monkeypatch.setattr(harness, "run_algorithm", broken)
    out = tmp_path / "exp"
    result = run_experiment(small_config(str(out), runs=2))
    assert len(result.failures) == 4
    assert result.table.ranks[("sphere", "cnrga")] == 2.0
    assert result.table.marks[("sphere", "cnrga")] == "."
    rows = (out / "results.csv").read_text().split("\n")
    for prob in ("sphere", "rastrigin"):
        row = next(r for r in rows if r.startswith(f"{prob},cnrga,")).split(",")
        assert row[2:7] == ["nan"] * 5 and row[7:] == ["0", "2"]
    ranks_before = (out / "ranks.csv").read_bytes()
    results_before = (out / "results.csv").read_bytes()
    recompute_stats(out)
    assert (out / "ranks.csv").read_bytes() == ranks_before
    assert (out / "results.csv").read_bytes() == results_before


# -- import cost -------------------------------------------------------------

HEAVY_MODULES_AFTER = """\
import runpy, sys
if sys.argv[1] == "import":
    import histarch
    histarch.make_suite(10, 2013)
else:
    sys.argv = ["histarch", "--help"]
    try:
        runpy.run_module("histarch", run_name="__main__", alter_sys=True)
    except SystemExit:
        pass
print(sorted(m for m in sys.modules
             if m.split(".")[0] == "scipy" or m == "concurrent.futures.process"))
"""


@pytest.mark.parametrize("entry", ["import", "cli_help"])
def test_fresh_interpreter_loads_no_scipy_and_no_process_pool(entry):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", HEAVY_MODULES_AFTER, entry], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().split("\n")[-1] == "[]"
