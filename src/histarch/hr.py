"""History-assisted restart orchestration and baseline run drivers.

The hybrid runs the non-revisiting GA (``cnrga.generations``) as its
explorer and asks the archive (``roi_trigger``) about each leaf the GA
adds. When a leaf lands at depth lv+k, with (lv, k) derived from the
budget and the CMA-ES population size, the GA leaves its generation at
that leaf. The region of interest is the cell of the leaf's depth-lv
ancestor, a ``Subtree``: the leaf points under it seed a CMA-ES state,
whose initial step size its longest side sets, and one ``cma_run``
exploits it out of the shared evaluation budget. CMA-ES candidates are
evaluated directly and never inserted into the archive, so the
blocked-cell bookkeeping stays a statement about the explorer only. When
CMA-ES stops, the archive blocks the ROI's cell and the GA breeds an
unfinished generation again from the same parents (the initial
population is drawn again). An ROI that fires on the last evaluation is
neither exploited nor blocked. The run ends when the GA does, and
``_finalize``, every driver's one tail, closes the record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .benchmarks import BudgetedEvaluator, Problem
from .bsp import BspArchive, Region, RoiSuggestion, uniform_point
from .cmaes import CmaState, cma_init, cma_run, default_lambda
from .cnrga import generations, maybe_prune
from .errors import ParameterError

EXPLORE = "explore"
EXPLOIT = "exploit"
# initial CMA-ES step size as a fraction of the longest side of the start box
SIGMA_FACTOR = 0.3


def initial_sigma(lower, upper) -> float:
    """SIGMA_FACTOR times the longest side of the box [lower, upper]."""
    return SIGMA_FACTOR * max(hi - lo for lo, hi in zip(lower, upper))


def derive_depth_params(budget: int, lam: int) -> tuple[int, int]:
    """Depth thresholds (lv, k) = (ceil(log2 budget), ceil(log2 lambda))."""
    if budget < 1 or lam < 2:
        raise ParameterError("budget must be >= 1 and lambda >= 2")
    return (int(budget) - 1).bit_length(), (int(lam) - 1).bit_length()


@dataclass
class Phase:
    kind: str  # explore | exploit
    start_eval: int
    end_eval: int
    roi_lower: list | None = None
    roi_upper: list | None = None
    stop_reason: str | None = None


@dataclass
class RunRecord:
    algo: str
    problem: str
    budget: int
    evals_used: int
    best_trace: list  # (eval_index, best-so-far) at every improvement
    phases: list
    final_coords: list
    final_fitness: float
    final_eval_index: int
    search_space_exhausted: bool = False
    non_finite_evals: int = 0  # objective values the evaluator ranked as +inf
    tree_dump: str | None = None  # written to its own file, not to the run JSON


def seed_cma_from_roi(roi: RoiSuggestion, lam: int, domain: Region) -> CmaState:
    """CMA-ES start state for a region of interest.

    The mean is the arithmetic mean of the collected solutions, clipped
    into the domain: the mean of points on a face can round one float past
    it. The initial step size is the ROI cell's ``initial_sigma``.
    Sampling stays bounded by the full problem domain: the cell guides the
    restart, it does not constrain the exploitation.
    """
    if not roi.seeds:
        raise ParameterError("a region of interest must carry at least one seed")
    mean0 = np.clip(np.mean([p.coords for p in roi.seeds], axis=0), domain.lower, domain.upper)
    return cma_init(mean0, initial_sigma(roi.cell.lower, roi.cell.upper), lam, domain)


def _close_phase(phases: list, kind: str, end: int,
                 roi: RoiSuggestion | None = None, stop: str | None = None):
    """Append the phase after the last one (or from 1) through ``end``, unless empty."""
    start = phases[-1].end_eval + 1 if phases else 1
    if end < start:
        return
    if roi is not None:
        phases.append(Phase(kind, start, end, list(roi.cell.lower),
                            list(roi.cell.upper), stop))
    else:
        phases.append(Phase(kind, start, end, stop_reason=stop))


def hr_run(problem: Problem, budget: int, rng, dump_tree: bool = False) -> RunRecord:
    """Full history-assisted restart run under one evaluation budget."""
    lam = default_lambda(problem.dim)
    lv, k = derive_depth_params(budget, lam)
    evaluator = BudgetedEvaluator(problem, budget)
    archive = BspArchive(problem.domain)
    phases: list[Phase] = []
    for generation in generations(archive, evaluator, rng):
        # the GA stops at the first leaf that fires the ROI query and,
        # unless that leaf completed the generation, breeds it again after
        # the exploit phase; an ROI found once the budget is gone is
        # neither exploited nor blocked
        roi = next(filter(None, (archive.roi_trigger(leaf, lv, k)
                                 for leaf in generation)), None)
        if roi is None or evaluator.remaining == 0:
            continue
        _close_phase(phases, EXPLORE, evaluator.used)
        state = seed_cma_from_roi(roi, lam, problem.domain)
        reason = cma_run(state, evaluator, rng).value
        archive.block(roi.cell)
        _close_phase(phases, EXPLOIT, evaluator.used, roi, reason)
    return _finalize("hr", problem, evaluator, phases,
                     archive.dump() if dump_tree else None)


def _finalize(algo, problem, evaluator, phases, tree_dump=None) -> RunRecord:
    """Every driver's one tail: close the trailing explore phase and write the
    record. Runs end on a spent budget or a full archive; budget left marks the latter."""
    _close_phase(phases, EXPLORE, evaluator.used)
    coords = evaluator.best_coords if evaluator.best_coords is not None else []
    return RunRecord(
        algo=algo,
        problem=problem.name,
        budget=evaluator.budget,
        evals_used=evaluator.used,
        best_trace=list(evaluator.trace),
        phases=list(phases),
        final_coords=list(np.asarray(coords, dtype=float)),
        final_fitness=evaluator.best,
        final_eval_index=evaluator.best_at,
        search_space_exhausted=evaluator.remaining > 0,
        non_finite_evals=evaluator.non_finite,
        tree_dump=tree_dump,
    )


# -- baselines ----------------------------------------------------------

def run_cmaes_restart(problem: Problem, budget: int, rng) -> RunRecord:
    """Plain restarting CMA-ES: fresh uniform mean and the domain's
    ``initial_sigma`` on every non-budget stop, fixed population."""
    evaluator = BudgetedEvaluator(problem, budget)
    domain = problem.domain
    lam = default_lambda(problem.dim)
    sigma0 = initial_sigma(*domain.bounds)
    phases: list[Phase] = []
    while evaluator.remaining > 0:
        state = cma_init(uniform_point(*domain.bounds, rng), sigma0, lam, domain)
        reason = cma_run(state, evaluator, rng).value
        _close_phase(phases, EXPLOIT, evaluator.used, stop=reason)
    return _finalize("cmaes", problem, evaluator, phases)


def run_cnrga(problem: Problem, budget: int, rng, lru: bool,
              dump_tree: bool = False) -> RunRecord:
    """Pure non-revisiting GA; with ``lru``, LRU-pruned before every generation."""
    evaluator = BudgetedEvaluator(problem, budget)
    archive = BspArchive(problem.domain)
    for generation in generations(archive, evaluator, rng):
        if lru:
            maybe_prune(archive)
        for _ in generation:
            pass
    name = "cnrga_lru" if lru else "cnrga"
    return _finalize(name, problem, evaluator, [],
                     archive.dump() if dump_tree else None)


ALGORITHMS = ("hr", "cmaes", "cnrga_lru", "cnrga")


def run_algorithm(problem: Problem, algo: str, budget: int, rng,
                  dump_tree: bool = False) -> RunRecord:
    """Run one algorithm by id under the shared budget accounting."""
    if algo == "hr":
        return hr_run(problem, budget, rng, dump_tree=dump_tree)
    if algo == "cmaes":
        return run_cmaes_restart(problem, budget, rng)
    if algo == "cnrga_lru":
        return run_cnrga(problem, budget, rng, lru=True, dump_tree=dump_tree)
    if algo == "cnrga":
        return run_cnrga(problem, budget, rng, lru=False, dump_tree=dump_tree)
    raise ParameterError(f"unknown algorithm id {algo!r}")
