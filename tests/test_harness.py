import json

import pytest

import histarch.harness as harness
from histarch import ExperimentConfig, ParameterError, recompute_stats, run_experiment
from histarch.cli import main


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


def test_outputs_written_and_recompute_round_trips(tmp_path):
    out = tmp_path / "exp"
    run_experiment(small_config(str(out), trace=True, gnuplot=True, dump_tree=True,
                                algorithms=["cmaes", "cnrga_lru"]))
    results_before = (out / "results.csv").read_bytes()
    ranks_before = (out / "ranks.csv").read_bytes()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["budget"] == 300
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


def test_cli_bad_algo_is_config_error(tmp_path):
    code = main(["run", "--suite", "2d", "--algos", "simplex", "--budget", "100",
                 "--runs", "2", "--out", str(tmp_path / "x")])
    assert code == 2


def test_cli_stats_missing_dir_is_io_error(tmp_path):
    assert main(["stats", "--in", str(tmp_path / "absent")]) == 3


def test_cli_config_file_mirrors_flags(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "suite": "2d", "algos": "cmaes,cnrga", "budget": 300, "runs": 2,
        "seed": 7, "suite_seed": 11, "problems": "sphere,rastrigin",
        "out": str(tmp_path / "from_config")}))
    assert main(["run", "--config", str(cfg_file)]) == 0
    flag_out = tmp_path / "from_flags"
    assert main(cli_run_args(flag_out)) == 0
    assert ((tmp_path / "from_config") / "results.csv").read_bytes() == \
        (flag_out / "results.csv").read_bytes()


def test_cli_flag_overrides_config_file(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "suite": "2d", "algos": "cmaes", "budget": 300, "runs": 2,
        "suite_seed": 11, "problems": "sphere", "out": str(tmp_path / "o1")}))
    assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "o2"),
                 "--runs", "3"]) == 0
    summary = json.loads((tmp_path / "o2" / "summary.json").read_text())
    assert summary["config"]["runs"] == 3
    # a zero-valued flag still wins over the file
    cfg_file.write_text(json.dumps({
        "suite": "2d", "algos": "cmaes", "budget": 300, "runs": 2,
        "seed": 7, "problems": "sphere"}))
    assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "o3"),
                 "--seed", "0"]) == 0
    summary = json.loads((tmp_path / "o3" / "summary.json").read_text())
    assert summary["config"]["base_seed"] == 0


def test_cli_unknown_config_key_rejected(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"budjet": 300}))
    assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "x")]) == 2


def test_cli_workers_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("HISTARCH_WORKERS", "2")
    out = tmp_path / "envw"
    assert main(cli_run_args(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["workers"] == 2
