"""Whole runs under hostile inputs end in a defined outcome.

Hypothesis draws a box of 1-5 dimensions (wide, narrow, or so far from 0
that only a few floats lie between its bounds), a budget from 1 to 300
and an objective that returns NaN or +-inf on part or all of the box, or
raises its own exception after n calls. Every algorithm must then let
the objective's exception propagate, or return a record that agrees with
itself: ``search_space_exhausted`` exactly when budget is left, the
final fields equal to the last entry of the best trace, and phases that
tile the evaluations it used. The deadline bounds each example's time. The
examples come from a fixed seed, so an edit to the test body does not
swap the whole example set.
"""

from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from histarch import Problem, Region, run_algorithm
from histarch.hr import ALGORITHMS
from util import rowwise


class ObjectiveFailure(Exception):
    """The objective's own exception, which a run must not swallow."""


# (lower bound, side) of every axis: [1e15, 1e15 + 1] holds 9 floats per
# axis and [1e15, 1e15 + 64] 513
AXES = [(-100.0, 200.0), (-5.12, 10.24), (0.5, 1e-9), (1e15, 1.0), (1e15, 64.0)]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@st.composite
def hostile_problems(draw):
    dim = draw(st.integers(1, 5))
    lower, side = draw(st.sampled_from(AXES))
    domain = Region(np.full(dim, lower), np.full(dim, lower) + side)
    bad = draw(st.sampled_from(NON_FINITE))
    # the share of the first axis on which the objective returns ``bad``
    share = draw(st.sampled_from([0.0, 0.5, 1.0]))
    raise_after = draw(st.none() | st.integers(0, 300))
    cut = lower + share * side
    calls = [0]

    def f(x):
        calls[0] += 1
        if raise_after is not None and calls[0] > raise_after:
            raise ObjectiveFailure(f"call {calls[0]}")
        if share == 1.0 or x[0] < cut:
            return bad
        return float(((x - lower) ** 2).sum())

    problem = Problem("hostile", domain, rowwise(f), None, "unimodal")
    return problem, raise_after, calls


@pytest.mark.parametrize("algo", ALGORITHMS)
@seed(2019)
@settings(derandomize=True, deadline=timedelta(seconds=5), max_examples=100)
@given(hostile=hostile_problems(), budget=st.integers(1, 300),
       run_seed=st.integers(0, 2 ** 32 - 1))
def test_every_run_ends_in_a_defined_outcome(algo, hostile, budget, run_seed):
    problem, raise_after, calls = hostile
    try:
        rec = run_algorithm(problem, algo, budget, np.random.default_rng(run_seed))
    except ObjectiveFailure:
        assert raise_after is not None and calls[0] == raise_after + 1
        return
    assert rec.evals_used <= budget
    assert rec.search_space_exhausted == (rec.evals_used < budget)
    last = rec.best_trace[-1] if rec.best_trace else (0, float("inf"))
    assert (rec.final_eval_index, rec.final_fitness) == tuple(last)
    cursor = 1
    for phase in rec.phases:
        assert phase.start_eval == cursor <= phase.end_eval
        cursor = phase.end_eval + 1
    assert cursor == rec.evals_used + 1
