"""History-assisted restart orchestration and baseline run drivers.

The hybrid runs the non-revisiting GA (``cnrga.generations``) as its
explorer and asks the archive (``roi_trigger``) about each leaf the GA
adds. When a leaf lands at depth lv+k, with (lv, k) derived from the
budget and the CMA-ES population size, the GA leaves its generation at
that leaf, the leaf points under its depth-lv ancestor seed a CMA-ES
state, and CMA-ES exploits out of the shared evaluation budget. CMA-ES
candidates are evaluated directly and never inserted into the archive, so
the blocked-region bookkeeping stays a statement about the explorer only.
When CMA-ES stops, the sub-root is blocked and the GA breeds an
unfinished generation again from the same parents (the initial population
is drawn again). An ROI that fires on the last evaluation is neither
exploited nor blocked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .benchmarks import BudgetedEvaluator, Problem
from .bsp import BspArchive, Region, RoiSuggestion
from .cmaes import (CmaState, StopReason, cma_check_stop, cma_init, cma_sample,
                    cma_update, default_lambda)
from .cnrga import GaConfig, generations, maybe_prune
from .errors import (BudgetExhaustedError, NumericalError, ParameterError,
                     SearchSpaceExhaustedError)

EXPLORE = "explore"
EXPLOIT = "exploit"
# initial CMA-ES step size as a fraction of the longest side of the start box
SIGMA_FACTOR = 0.3
# the GA of the hybrid's explorer and of both cNrGA baselines
GA = GaConfig()


def ceil_log2(n: int) -> int:
    if n < 1:
        raise ParameterError("ceil_log2 needs a positive integer")
    return (int(n) - 1).bit_length()


def derive_depth_params(budget: int, lam: int) -> tuple[int, int]:
    """Depth thresholds (lv, k) = (ceil(log2 budget), ceil(log2 lambda))."""
    if budget < 2 or lam < 2:
        raise ParameterError("budget and lambda must both be >= 2")
    return ceil_log2(budget), ceil_log2(lam)


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

    The mean is the arithmetic mean of the collected solutions; the
    initial step size is SIGMA_FACTOR times the longest side of the
    region. Sampling stays bounded by the full problem domain: the region
    guides the restart, it does not constrain the exploitation.
    """
    if not roi.seeds:
        raise ParameterError("a region of interest must carry at least one seed")
    mean0 = np.mean([p.coords for p in roi.seeds], axis=0)
    sigma0 = SIGMA_FACTOR * float(roi.region.span.max())
    return cma_init(mean0, sigma0, lam, domain)


def _cma_phase(state: CmaState, evaluator: BudgetedEvaluator, rng) -> str:
    """Sample/evaluate/update until a stop fires; returns the reason string.

    Never raises on budget: a generation that does not fit in the
    remaining budget evaluates only its first ``remaining`` rows and ends
    the phase as budget_exhausted.
    """
    while True:
        stop = cma_check_stop(state, evaluator.used, evaluator.budget)
        if stop is not None:
            return stop.value
        try:
            candidates = cma_sample(state, rng)
        except NumericalError:
            return StopReason.NUMERICAL_ERROR.value
        n = min(state.lam, evaluator.remaining)
        fits = np.array([evaluator(x) for x in candidates[:n]])
        if n < state.lam:
            return StopReason.BUDGET_EXHAUSTED.value
        try:
            cma_update(state, candidates, fits)
        except NumericalError:
            return StopReason.NUMERICAL_ERROR.value


def _close_phase(phases: list, kind: str, start: int, end: int,
                 roi: RoiSuggestion | None = None, stop: str | None = None):
    if end < start:
        return
    if roi is not None:
        phases.append(Phase(kind, start, end, roi.region.lower.tolist(),
                            roi.region.upper.tolist(), stop))
    else:
        phases.append(Phase(kind, start, end, stop_reason=stop))


def hr_run(problem: Problem, budget: int, rng, dump_tree: bool = False) -> RunRecord:
    """Full history-assisted restart run under one evaluation budget."""
    lam = default_lambda(problem.dim)
    lv, k = derive_depth_params(budget, lam)
    evaluator = BudgetedEvaluator(problem, budget)
    archive = BspArchive(problem.domain)
    phases: list[Phase] = []
    phase_start = 1
    exhausted = False
    try:
        for generation in generations(GA, archive, evaluator, rng):
            # the GA stops at the first leaf that fires the ROI query and,
            # unless that leaf completed the generation, breeds it again after
            # the exploit phase; an ROI found once the budget is gone is
            # neither exploited nor blocked
            roi = next(filter(None, (archive.roi_trigger(leaf.node, leaf.depth, lv, k)
                                     for leaf in generation)), None)
            if roi is None or evaluator.remaining == 0:
                continue
            _close_phase(phases, EXPLORE, phase_start, evaluator.used)
            phase_start = evaluator.used + 1
            state = seed_cma_from_roi(roi, lam, problem.domain)
            reason = _cma_phase(state, evaluator, rng)
            archive.block(roi.subroot)
            _close_phase(phases, EXPLOIT, phase_start, evaluator.used, roi, reason)
            phase_start = evaluator.used + 1
    except BudgetExhaustedError:  # raised by the explorer before it inserts
        pass
    except SearchSpaceExhaustedError:
        exhausted = True
    _close_phase(phases, EXPLORE, phase_start, evaluator.used)
    return _finalize("hr", problem, evaluator, phases, exhausted,
                     archive.dump() if dump_tree else None)


def _finalize(algo, problem, evaluator, phases, exhausted, tree_dump=None) -> RunRecord:
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
        search_space_exhausted=exhausted,
        non_finite_evals=evaluator.non_finite,
        tree_dump=tree_dump,
    )


# -- baselines ----------------------------------------------------------

def run_cmaes_restart(problem: Problem, budget: int, rng) -> RunRecord:
    """Plain restarting CMA-ES: fresh uniform mean and sigma0 = SIGMA_FACTOR
    times the largest domain side on every non-budget stop, fixed population."""
    evaluator = BudgetedEvaluator(problem, budget)
    domain = problem.domain
    lam = default_lambda(problem.dim)
    sigma0 = SIGMA_FACTOR * float(domain.span.max())
    phases: list[Phase] = []
    while evaluator.remaining > 0:
        start = evaluator.used + 1
        state = cma_init(domain.uniform_point(rng), sigma0, lam, domain)
        reason = _cma_phase(state, evaluator, rng)
        _close_phase(phases, EXPLOIT, start, evaluator.used, stop=reason)
    return _finalize("cmaes", problem, evaluator, phases, False)


def run_cnrga(problem: Problem, budget: int, rng, lru: bool,
              dump_tree: bool = False) -> RunRecord:
    """Pure non-revisiting GA; with ``lru``, LRU-pruned after every generation."""
    evaluator = BudgetedEvaluator(problem, budget)
    archive = BspArchive(problem.domain)
    exhausted = False
    try:
        for generation in generations(GA, archive, evaluator, rng):
            for _ in generation:
                pass
            if lru:
                maybe_prune(archive)
    except BudgetExhaustedError:
        pass
    except SearchSpaceExhaustedError:
        exhausted = True
    phases = [Phase(EXPLORE, 1, evaluator.used)] if evaluator.used else []
    name = "cnrga_lru" if lru else "cnrga"
    return _finalize(name, problem, evaluator, phases, exhausted,
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
