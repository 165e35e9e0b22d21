"""``tools/ab.py --report`` rebuilds the A/B table from a run log, and
sets the verdicts of several logs of one workload side by side."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(ab)

# per pair, each end-to-end metric's (base, change) values, built so that
# each metric of BENCHMARK.json gets its own verdict:
# - evals_per_s (higher, bound 0.25): the change wins every pair by more
#   than the base's quartile spread;
# - run_s_p50 (lower, bound 0.25): the change is 40% slower;
# - peak_rss_mb (lower, bound 0.1): the base spreads by more than 10%;
# - setup_s (lower, bound 0.25): both sides sit on the same narrow values.
PAIRS = [
    {"evals_per_s": (1000 + i, 1100 + i), "run_s_p50": (1.0 + 0.01 * i, 1.4 + 0.01 * i),
     "peak_rss_mb": (40.0 + 3 * i, 40.0 + 3 * i), "setup_s": (0.25 + 0.001 * i,) * 2}
    for i in range(10)
]
# metric -> (pairs the change won, verdict); ties count for neither side
EXPECTED = {"evals_per_s": ("10/10", "gain"), "run_s_p50": ("0/10", "regression"),
            "peak_rss_mb": ("0/10", "unresolved"), "setup_s": ("0/10", "within bound")}


def result(values, side, digest):
    metrics = {name: {"value": pair[0 if side == "base" else 1]}
               for name, pair in values.items()}
    return {"metrics": metrics, "failed": 0, "attempted": 6, "correct": True,
            "fingerprints": {"hr_cmaes_10d": digest}}


def write_log(path, pairs, cut_last=False, workload="hr_cmaes_10d",
              digest=lambda side, i: "f55b"):
    lines = [{"workload": workload, "base": "0" * 40, "seed": 0, "seconds": 15,
              "pairs": len(pairs)}]
    for i, values in enumerate(pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        lines += [{"side": side, "result": result(values, side, digest(side, i))}
                  for side in order]
    if cut_last:
        lines.pop()
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))


def table(out):
    """metric -> (pairs won, verdict), read from the report's rows."""
    verdicts = {verdict for _, verdict in EXPECTED.values()}
    rows = {}
    for line in out.splitlines():
        name = line.split(" ", 1)[0]
        if name in EXPECTED:
            won = next(token for token in line.split() if "/" in token)
            rows[name] = (won, next(v for v in verdicts if line.endswith(v)))
    return rows


def test_report_rebuilds_each_verdict_from_a_log(tmp_path, capsys):
    log = tmp_path / "ab.jsonl"
    write_log(log, PAIRS)
    assert ab.main(["--report", str(log)]) == 0
    out = capsys.readouterr().out
    assert table(out) == EXPECTED
    assert "base: 0 of 60 runs failed" in out
    assert out[out.index("fingerprints:"):].splitlines() == [
        "fingerprints: match", "  hr_cmaes_10d: f55b"]


def test_differing_fingerprints_print_under_each_sides_name(tmp_path, capsys):
    # the change moved the results, and its own runs disagree from pair 5 on
    log = tmp_path / "ab.jsonl"
    write_log(log, PAIRS, digest=lambda side, i: "f55b" if side == "base" else
              "a1e0" if i < 5 else "c0de")
    assert ab.main(["--report", str(log)]) == 0
    out = capsys.readouterr().out
    assert out[out.index("fingerprints:"):].splitlines() == [
        "fingerprints: DIFFER (3 distinct sets)",
        "  base:",
        "    hr_cmaes_10d: f55b",
        "  change set 1 of 2, its own runs disagree:",
        "    hr_cmaes_10d: a1e0",
        "  change set 2 of 2, its own runs disagree:",
        "    hr_cmaes_10d: c0de"]


def test_wide_base_spread_is_resolved_when_every_change_run_is_better(tmp_path, capsys):
    # peak_rss_mb: the base's quartile spread (27.25) is wider than the bound
    # (10% of 60) and than the medians' distance (about 21), and every
    # change run reads below every base run
    base = [40.0, 41.0, 42.0, 55.0, 58.0, 62.0, 65.0, 75.0, 80.0, 85.0]
    pairs = [dict(values, peak_rss_mb=(b, 39.0 + 0.01 * i))
             for i, (values, b) in enumerate(zip(PAIRS, base))]
    log = tmp_path / "ab.jsonl"
    write_log(log, pairs)
    assert ab.main(["--report", str(log)]) == 0
    assert table(capsys.readouterr().out)["peak_rss_mb"] == ("10/10", "within bound")


def test_report_keeps_only_complete_pairs(tmp_path, capsys):
    # a comparison cut in its last pair, after the change's run: nine pairs
    # are too few to read a gain
    log = tmp_path / "ab.jsonl"
    write_log(log, PAIRS, cut_last=True)
    assert ab.main(["--report", str(log)]) == 0
    assert table(capsys.readouterr().out)["evals_per_s"] == ("9/9", "unresolved")


def test_report_of_several_logs_prints_each_table_then_each_metrics_verdicts(
        tmp_path, capsys):
    # a repeat cut in its last pair reads the first log's gain as
    # unresolved, and the summary line of evals_per_s shows both verdicts
    logs = [tmp_path / "first.jsonl", tmp_path / "repeat.jsonl"]
    write_log(logs[0], PAIRS)
    write_log(logs[1], PAIRS, cut_last=True)
    assert ab.main(["--report", *map(str, logs)]) == 0
    out = capsys.readouterr().out
    tables, summary = out.split("verdicts of the 2 logs, in order:\n")
    assert [line for line in tables.splitlines() if line.startswith("log ")] == \
        [f"log {log}" for log in logs]
    assert tables.count("fingerprints: match") == 2
    rows = dict(line.split(None, 1) for line in summary.splitlines())
    assert rows == {"evals_per_s": "gain, unresolved",
                    "run_s_p50": "regression, regression",
                    "peak_rss_mb": "unresolved, unresolved",
                    "setup_s": "within bound, within bound"}


def test_report_refuses_logs_of_different_workloads(tmp_path, capsys):
    logs = [tmp_path / "hr.jsonl", tmp_path / "lru.jsonl"]
    write_log(logs[0], PAIRS)
    write_log(logs[1], PAIRS, workload="cnrga_lru_10d")
    with pytest.raises(SystemExit, match="different workloads: cnrga_lru_10d, hr_cmaes_10d"):
        ab.main(["--report", *map(str, logs)])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("pairs, lost, expected", [
    (10, 0, "gain"), (10, 1, "gain"), (9, 0, "unresolved"), (3, 0, "unresolved"),
    (10, 2, "within bound")])
def test_gain_needs_ten_pairs_and_nine_tenths_won(pairs, lost, expected):
    # evals_per_s: the change reads 10% higher except in its first ``lost`` pairs
    base = [1000.0 + i for i in range(pairs)]
    change = [b - 1.0 if i < lost else b + 100.0 for i, b in enumerate(base)]
    assert ab.verdict(base, change, pairs - lost, True, 0.25) == expected


@pytest.mark.parametrize("base, change, expected", [
    # two pairs: the median is 32% slower, but one change run is faster
    # than one base run
    ([0.190, 0.210], [0.200, 0.328], "unresolved"),
    # two pairs: every change run is slower than every base run
    ([0.190, 0.210], [0.250, 0.280], "regression"),
    # ten pairs: the median alone decides, one faster change run or not
    ([0.200 + 0.001 * i for i in range(10)], [0.190] + [0.300] * 9, "regression")])
def test_regression_below_ten_pairs_needs_every_change_run_worse(base, change, expected):
    # setup_s (lower, bound 0.25)
    won = sum(c < b for b, c in zip(base, change))
    assert ab.verdict(base, change, won, False, 0.25) == expected
