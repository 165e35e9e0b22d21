"""History-assisted restart CMA-ES with a BSP-tree search archive.

A non-revisiting genetic algorithm stores every evaluation in a binary
space partitioning tree over the search box; densely sampled cells become
regions of interest that seed CMA-ES restarts. The package also ships the
plain restarting CMA-ES and LRU-pruned cNrGA baselines, a desk-scale
benchmark suite, and a statistics harness with rank tables and
Kruskal-Wallis significance marks.
"""

from .benchmarks import BudgetedEvaluator, Problem, make_suite
from .bsp import (Blocked, BspArchive, BspNode, NewLeaf, Region, Revisit,
                  RoiSuggestion, SearchPoint, Subtree, uniform_point)
from .cmaes import (CmaState, StopReason, cma_check_stop, cma_init, cma_run,
                    cma_sample, cma_update, default_lambda, stagnation_window)
from .cnrga import evaluate_via_archive, generations, maybe_prune
from .errors import (BudgetExhaustedError, DomainError, HistarchError,
                     InputError, ParameterError, StructuralError)
from .harness import ExperimentConfig, ExperimentResult, recompute_stats, run_experiment
from .hr import (Phase, RunRecord, derive_depth_params, hr_run, run_algorithm,
                 run_cmaes_restart, run_cnrga, seed_cma_from_roi)
from .stats import (CellStats, StatsTable, build_stats_table, kruskal_wallis,
                    shared_ranks, significance_marks)

__version__ = "0.1.0"
