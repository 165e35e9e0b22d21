"""Command-line interface for the experiment harness.

`histarch run` executes a seeded comparison experiment and writes CSV
tables plus a JSON summary; `histarch stats` recomputes the tables from a
stored summary. A `run` flag stores its value under the name of the
ExperimentConfig field it sets, and --config takes a JSON object of those
fields, the one `summary.json` stores under `config`; explicit flags win
over the file, and `harness.read_config` checks the merged settings. An
out_dir taken from the file that already holds a summary.json is refused,
so rerunning a sweep's own config never replaces it; --out may.
Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .benchmarks import SUPPORTED_DIMS
from .errors import ParameterError
from .harness import ExperimentConfig, read_config, read_json, recompute_stats, run_experiment
from .hr import ALGORITHMS

SUITES = {f"{dim}d": dim for dim in SUPPORTED_DIMS}
# the fields the CLI fills in where ExperimentConfig has no default
DEFAULTS = {"dim": SUITES["10d"], "algorithms": ["hr", "cmaes", "cnrga_lru"]}


def _names(text: str) -> list[str]:
    return [name.strip() for name in text.split(",") if name.strip()]


def _dim(suite: str) -> int:
    """The dimension of the suite named ``suite``, such as ``10d``."""
    if suite not in SUITES:
        raise argparse.ArgumentTypeError(f"unknown suite {suite!r}; pick one of {list(SUITES)}")
    return SUITES[suite]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="histarch")
    sub = parser.add_subparsers(dest="command", required=True)

    # only the flags given reach the namespace, each under its field's name
    run = sub.add_parser("run", help="run a comparison experiment",
                         argument_default=argparse.SUPPRESS)
    run.add_argument("--config", help="JSON file holding an ExperimentConfig object, "
                                      "such as summary.json's config")
    run.add_argument("--suite", dest="dim", type=_dim, metavar="{" + ",".join(SUITES) + "}",
                     help="problem dimension (default 10d)")
    run.add_argument("--algos", dest="algorithms", type=_names,
                     help=f"comma-separated ids from {','.join(ALGORITHMS)} "
                          f"(default {','.join(DEFAULTS['algorithms'])})")
    run.add_argument("--budget", type=int, help="evaluations per run (required)")
    run.add_argument("--runs", type=int,
                     help=f"independent runs per cell (default {ExperimentConfig.runs})")
    run.add_argument("--alpha", type=float,
                     help=f"significance level (default {ExperimentConfig.alpha})")
    run.add_argument("--seed", dest="base_seed", type=int,
                     help=f"base seed; run i uses seed+i (default {ExperimentConfig.base_seed})")
    run.add_argument("--suite-seed", type=int, help="seed for suite shifts/rotations "
                                                    f"(default {ExperimentConfig.suite_seed})")
    run.add_argument("--out", dest="out_dir", help="output directory (required)")
    run.add_argument("--problems", type=_names,
                     help="comma-separated subset of suite problems (default all)")
    run.add_argument("--trace", action="store_true", help="write per-run JSON records")
    run.add_argument("--gnuplot", action="store_true",
                     help="write whitespace-separated convergence traces")
    run.add_argument("--dump-tree", action="store_true",
                     help="write final BSP tree dumps for archive-based algorithms")
    run.add_argument("--workers", type=int,
                     help=f"worker processes (default {ExperimentConfig.workers})")

    stats = sub.add_parser("stats", help="recompute tables from stored results")
    stats.add_argument("--in", dest="in_dir", required=True,
                       help="directory with a summary.json")
    return parser


def main(argv=None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
        if args.pop("command") == "stats":
            table = recompute_stats(args["in_dir"])
            print(f"recomputed tables for {len(table.problems)} problems in {args['in_dir']}")
            return 0
        path = args.pop("config", None)
        stored = read_json(Path(path)) if path else {}
        if not isinstance(stored, dict):
            raise ParameterError(f"{path}: not a JSON object")
        settings = DEFAULTS | stored | args
        for flag, field in (("--budget", "budget"), ("--out", "out_dir")):
            if settings.get(field) is None:
                raise ParameterError(f"{flag} is required")
        config = read_config(settings, path or "command line")
        if "out_dir" not in args and (Path(config.out_dir) / "summary.json").exists():
            raise ParameterError(f"{path}: out_dir {config.out_dir} already holds a summary.json; "
                                 "pass --out to write elsewhere or to replace it")
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
