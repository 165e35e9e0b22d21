"""Command-line interface for the experiment harness.

`histarch run` executes a seeded comparison experiment and writes CSV
tables plus a JSON summary; `histarch stats` recomputes the tables from a
stored summary. All flags can also live in a JSON config file passed via
--config; explicit flags win. Exit codes: 0 success, 2 configuration
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ParameterError
from .harness import (DEFAULT_SUITE_SEED, ExperimentConfig, recompute_stats,
                      run_experiment)

SUITES = {"2d": 2, "10d": 10, "30d": 30}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="histarch")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a comparison experiment")
    run.add_argument("--config", help="JSON file with defaults for all flags")
    run.add_argument("--suite", choices=sorted(SUITES), help="problem dimension")
    run.add_argument("--algos", help="comma-separated ids: hr,cmaes,cnrga_lru,cnrga")
    run.add_argument("--budget", type=int, help="evaluations per run")
    run.add_argument("--runs", type=int, help="independent runs per cell (default 30)")
    run.add_argument("--alpha", type=float, help="significance level (default 0.05)")
    run.add_argument("--seed", type=int, help="base seed; run i uses seed+i")
    run.add_argument("--suite-seed", type=int,
                     help=f"seed for suite shifts/rotations (default {DEFAULT_SUITE_SEED})")
    run.add_argument("--out", help="output directory")
    run.add_argument("--problems", help="comma-separated subset of suite problems")
    run.add_argument("--trace", action="store_true", help="write per-run JSON records")
    run.add_argument("--gnuplot", action="store_true",
                     help="write whitespace-separated convergence traces")
    run.add_argument("--dump-tree", action="store_true",
                     help="write final BSP tree dumps for archive-based algorithms")
    run.add_argument("--workers", type=int, help="worker processes (default "
                     "HISTARCH_WORKERS or 1)")

    stats = sub.add_parser("stats", help="recompute tables from stored results")
    stats.add_argument("--in", dest="in_dir", required=True,
                       help="directory with a summary.json")
    return parser


def _merged_options(args: argparse.Namespace) -> dict:
    options = {
        "suite": "10d",
        "algos": "hr,cmaes,cnrga_lru",
        "budget": None,
        "runs": 30,
        "alpha": 0.05,
        "seed": 0,
        "suite_seed": DEFAULT_SUITE_SEED,
        "out": None,
        "problems": None,
        "trace": False,
        "gnuplot": False,
        "dump_tree": False,
        "workers": None,
    }
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise OSError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ParameterError(f"config file is not valid JSON: {exc}") from exc
        unknown = set(loaded) - set(options)
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        options.update(loaded)
    for key in options:
        value = getattr(args, key, None)
        # identity tests: 0 is a value, but 0 == False
        if value is not None and value is not False:
            options[key] = value
    return options


def experiment_config_from_options(options: dict) -> ExperimentConfig:
    if options["budget"] is None:
        raise ParameterError("--budget is required")
    if options["out"] is None:
        raise ParameterError("--out is required")
    suite = options["suite"]
    if suite not in SUITES:
        raise ParameterError(f"unknown suite {suite!r}; pick one of {sorted(SUITES)}")
    algos = options["algos"]
    if isinstance(algos, str):
        algos = [a.strip() for a in algos.split(",") if a.strip()]
    problems = options["problems"]
    if isinstance(problems, str):
        problems = [p.strip() for p in problems.split(",") if p.strip()]
    workers = options["workers"]
    if workers is None:
        workers = int(os.environ.get("HISTARCH_WORKERS", "1"))
    return ExperimentConfig(
        algorithms=algos,
        dim=SUITES[suite],
        budget=int(options["budget"]),
        runs=int(options["runs"]),
        alpha=float(options["alpha"]),
        base_seed=int(options["seed"]),
        suite_seed=int(options["suite_seed"]),
        out_dir=options["out"],
        trace=bool(options["trace"]),
        gnuplot=bool(options["gnuplot"]),
        dump_tree=bool(options["dump_tree"]),
        workers=int(workers),
        problems=problems,
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "run":
            config = experiment_config_from_options(_merged_options(args))
            result = run_experiment(config)
            n_cells = len(result.table.problems) * len(result.table.algorithms)
            print(f"wrote {config.out_dir}: {n_cells} cells x {config.runs} runs, "
                  f"{len(result.failures)} failed")
            return 0
        if args.command == "stats":
            table = recompute_stats(args.in_dir)
            print(f"recomputed tables for {len(table.problems)} problems in {args.in_dir}")
            return 0
    except (ParameterError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
