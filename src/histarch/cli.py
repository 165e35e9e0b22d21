"""Command-line interface for the experiment harness.

`histarch run` executes a seeded comparison experiment and writes CSV
tables plus a JSON summary; `histarch stats` recomputes the tables from a
stored summary. Every `run` flag can also live in a JSON config file
passed via --config, keyed by the flag's name with `_` for `-`; explicit
flags win. Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .benchmarks import SUPPORTED_DIMS
from .errors import ParameterError
from .harness import ExperimentConfig, recompute_stats, run_experiment
from .hr import ALGORITHMS

SUITES = {f"{dim}d": dim for dim in SUPPORTED_DIMS}
# JSON types a config value may have, by the flag's argparse type; a string
# goes through that type as it would on the command line
CONFIG_TYPES = {int: (int, str), float: (int, float, str)}


def _names(text: str) -> list[str]:
    return [name.strip() for name in text.split(",") if name.strip()]


def build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The top-level parser and its `run` subparser."""
    parser = argparse.ArgumentParser(prog="histarch")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a comparison experiment")
    run.add_argument("--config", help="JSON file with defaults for all flags")
    run.add_argument("--suite", choices=sorted(SUITES), default="10d",
                     help="problem dimension (default %(default)s)")
    run.add_argument("--algos", type=_names, default="hr,cmaes,cnrga_lru",
                     help=f"comma-separated ids from {','.join(ALGORITHMS)} "
                          "(default %(default)s)")
    run.add_argument("--budget", type=int, help="evaluations per run (required)")
    run.add_argument("--runs", type=int, default=ExperimentConfig.runs,
                     help="independent runs per cell (default %(default)s)")
    run.add_argument("--alpha", type=float, default=ExperimentConfig.alpha,
                     help="significance level (default %(default)s)")
    run.add_argument("--seed", type=int, default=ExperimentConfig.base_seed,
                     help="base seed; run i uses seed+i (default %(default)s)")
    run.add_argument("--suite-seed", type=int, default=ExperimentConfig.suite_seed,
                     help="seed for suite shifts/rotations (default %(default)s)")
    run.add_argument("--out", help="output directory (required)")
    run.add_argument("--problems", type=_names,
                     help="comma-separated subset of suite problems (default all)")
    run.add_argument("--trace", action="store_true", help="write per-run JSON records")
    run.add_argument("--gnuplot", action="store_true",
                     help="write whitespace-separated convergence traces")
    run.add_argument("--dump-tree", action="store_true",
                     help="write final BSP tree dumps for archive-based algorithms")
    run.add_argument("--workers", type=int,
                     help="worker processes (default HISTARCH_WORKERS or 1)")

    stats = sub.add_parser("stats", help="recompute tables from stored results")
    stats.add_argument("--in", dest="in_dir", required=True,
                       help="directory with a summary.json")
    return parser, run


def _parsed(action: argparse.Action, value, source: str):
    """``value`` as ``action``'s flag would parse it if it is a string;
    a string the flag cannot parse is reported under ``source``."""
    if not isinstance(value, str) or action.type is None:
        return value
    try:
        return action.type(value)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{source}: invalid {action.type.__name__} value: "
                             f"{value!r}") from exc


def _load_config(path: str, actions: dict) -> dict:
    """Flag values from a JSON object keyed by `run` flag dest, each of a
    type its flag takes: a boolean for a switch, else a string or a number.
    Strings come back parsed by their flag's type."""
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise ParameterError("config file must hold a JSON object")
    unknown = set(loaded) - set(actions)
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    for key, value in loaded.items():
        action = actions[key]
        wanted = (bool,) if action.nargs == 0 else CONFIG_TYPES.get(action.type, (str,))
        # exact types: JSON true is a bool, not the integer 1
        if type(value) not in wanted:
            raise ParameterError(f"config key {key!r} takes "
                                 f"{' or '.join(t.__name__ for t in wanted)}, not {value!r}")
        loaded[key] = _parsed(action, value, f"config key {key!r}")
    return loaded


def main(argv=None) -> int:
    try:
        parser, run = build_parser()
        args = parser.parse_args(argv)
        if args.command == "stats":
            table = recompute_stats(args.in_dir)
            print(f"recomputed tables for {len(table.problems)} problems in {args.in_dir}")
            return 0
        # the file's and then the environment's values become defaults, so
        # explicit flags still win; a value that loses is never parsed
        actions = {a.dest: a for a in run._actions if a.dest not in ("help", "config")}
        defaults = _load_config(args.config, actions) if args.config else {}
        if "workers" not in defaults and args.workers is None:
            defaults["workers"] = _parsed(actions["workers"],
                                          os.environ.get("HISTARCH_WORKERS", "1"),
                                          "HISTARCH_WORKERS")
        run.set_defaults(**defaults)
        args = parser.parse_args(argv)
        # choices are not applied to defaults, which the file may set
        if args.suite not in SUITES:
            raise ParameterError(f"unknown suite {args.suite!r}; pick one of {sorted(SUITES)}")
        for required in ("budget", "out"):
            if getattr(args, required) is None:
                raise ParameterError(f"--{required} is required")
        config = ExperimentConfig(
            algorithms=args.algos, dim=SUITES[args.suite], budget=args.budget,
            runs=args.runs, alpha=args.alpha, base_seed=args.seed,
            suite_seed=args.suite_seed, out_dir=args.out, trace=args.trace,
            gnuplot=args.gnuplot, dump_tree=args.dump_tree, workers=args.workers,
            problems=args.problems)
        result = run_experiment(config)
        n_cells = len(result.table.problems) * len(result.table.algorithms)
        print(f"wrote {config.out_dir}: {n_cells} cells x {config.runs} runs, "
              f"{len(result.failures)} failed")
        return 0
    except SystemExit as exc:  # argparse: --help, or a flag it cannot parse
        return 2 if exc.code not in (0, None) else 0
    except (ParameterError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
