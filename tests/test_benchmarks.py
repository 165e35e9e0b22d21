import json

import numpy as np
import pytest

from histarch import (BudgetExhaustedError, DomainError, InputError, ParameterError,
                      Region, make_suite)
from histarch.benchmarks import (BudgetedEvaluator, Problem, ellipsoid_weights,
                                 make_ellipsoid_problem, random_rotation,
                                 rastrigin, sphere, suite_manifest)
from util import reference_suite

SUITE_NAMES = ["sphere", "rot_ellipsoid", "rosenbrock", "rastrigin", "sr_rastrigin",
               "ackley", "griewank", "schwefel", "hybrid", "composition"]


def suite10():
    return make_suite(10, seed=123)


def test_suite_contents_and_unsupported_dim():
    problems = suite10()
    assert [p.name for p in problems] == SUITE_NAMES
    with pytest.raises(ParameterError):
        make_suite(5, seed=1)


def test_sphere_zero_at_origin():
    assert sphere(np.zeros(10)) == 0.0


def test_rastrigin_spot_values():
    assert rastrigin(np.zeros(10)) == pytest.approx(0.0, abs=1e-12)
    x = np.zeros(10)
    x[0] = 1.0
    assert rastrigin(x) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("dim", [2, 10, 30])
def test_every_optimum_evaluates_to_f_opt(dim):
    for p in make_suite(dim, seed=5):
        assert p.x_opt is not None
        assert p.f(p.x_opt) == pytest.approx(p.f_opt, abs=1e-9)


@pytest.mark.parametrize("dim", [2, 10, 30])
def test_objectives_bit_identical_to_reference_formulas(dim):
    problems = make_suite(dim, seed=5)
    refs = reference_suite(dim, seed=5)
    assert [p.name for p in problems] == list(refs)
    rng = np.random.default_rng(dim)
    for p in problems:
        points = [p.domain.uniform_point(rng) for _ in range(200)] + [p.x_opt]
        for x in points:
            assert p.f(x) == refs[p.name](x), p.name


def test_shifted_rotated_rastrigin_zero_at_stored_shift():
    p = next(q for q in suite10() if q.name == "sr_rastrigin")
    assert abs(p.f(p.x_opt) - 0.0) <= 1e-9


def test_multimodal_strictly_above_optimum_elsewhere():
    rng = np.random.default_rng(77)
    for p in suite10():
        if p.category not in ("multimodal", "hybrid", "composition"):
            continue
        for _ in range(1000):
            x = p.domain.uniform_point(rng)
            if np.abs(x - p.x_opt).max() < 1e-6:
                continue
            assert p.f(x) > p.f_opt


def test_rotations_orthonormal():
    rng = np.random.default_rng(3)
    for dim in (2, 10, 30):
        r = random_rotation(dim, rng)
        assert np.abs(r @ r.T - np.eye(dim)).max() <= 1e-12


def test_determinism_bit_identical():
    a = make_suite(10, seed=42)
    b = make_suite(10, seed=42)
    rng = np.random.default_rng(0)
    xs = [a[0].domain.uniform_point(rng) for _ in range(20)]
    for pa, pb in zip(a, b):
        dom_rng = np.random.default_rng(1)
        for _ in range(20):
            x = pa.domain.uniform_point(dom_rng)
            assert pa.f(x) == pb.f(x)


def test_ellipsoid_weights_span_squared_axis_ratio():
    w = ellipsoid_weights(10, 1e3)
    assert w[0] == 1.0
    assert w[-1] == pytest.approx(1e6)
    assert ellipsoid_weights(1, 1e3).tolist() == [1.0]


def test_custom_ellipsoid_problem():
    p = make_ellipsoid_problem(10, 1e2)
    assert p.f(np.zeros(10)) == 0.0
    e = np.zeros(10)
    e[-1] = 1.0
    assert p.f(e) == pytest.approx(1e4)


def test_budget_counter_and_exhaustion():
    p = suite10()[0]
    ev = BudgetedEvaluator(p, budget=1)
    ev(np.zeros(10))
    assert ev.used == 1
    with pytest.raises(BudgetExhaustedError):
        ev(np.zeros(10))


def test_budget_counts_every_call():
    p = suite10()[0]
    ev = BudgetedEvaluator(p, budget=50)
    rng = np.random.default_rng(4)
    for n in range(1, 21):
        ev(p.domain.uniform_point(rng))
        assert ev.used == n
    assert ev.remaining == 30


def test_separate_evaluators_do_not_interfere():
    p = suite10()[0]
    ev1 = BudgetedEvaluator(p, budget=10)
    ev2 = BudgetedEvaluator(p, budget=10)
    ev1(np.zeros(10))
    assert ev1.used == 1 and ev2.used == 0


def test_evaluator_keeps_best_so_far_trace():
    p = suite10()[0]  # sphere
    ev = BudgetedEvaluator(p, budget=10)
    assert ev.trace == [] and ev.best == float("inf")
    assert ev.best_coords is None and ev.best_at == 0
    xs = [np.full(10, v) for v in (2.0, 3.0, 1.0, -1.0, 0.5, 0.5)]
    for x in xs:
        ev(x)
    # strict improvements only: the tie at eval 4 and the repeat at 6 are not
    assert ev.trace == [(1, 40.0), (3, 10.0), (5, 2.5)]
    assert ev.best == 2.5 and ev.best_at == 5
    assert np.array_equal(ev.best_coords, np.full(10, 0.5))
    xs[4][:] = 7.0
    assert np.array_equal(ev.best_coords, np.full(10, 0.5))


def test_non_finite_values_rank_as_inf_and_are_counted():
    values = iter([float("nan"), float("-inf"), 3.0, float("inf")])
    p = Problem("p", 1, Region(np.full(1, -1.0), np.ones(1)), lambda x: next(values),
                None, "unimodal")
    ev = BudgetedEvaluator(p, budget=4)
    assert [ev(np.zeros(1)) for _ in range(4)] == [float("inf"), float("inf"), 3.0,
                                                   float("inf")]
    assert ev.non_finite == 3 and ev.used == 4
    assert ev.trace == [(3, 3.0)] and ev.best == 3.0


def test_out_of_domain_evaluation_rejected():
    p = suite10()[0]
    ev = BudgetedEvaluator(p, budget=10)
    with pytest.raises(DomainError):
        ev(np.full(10, 200.0))
    nan_x = np.zeros(10)
    nan_x[3] = np.nan
    with pytest.raises(DomainError):
        ev(nan_x)
    assert ev.used == 0


@pytest.mark.parametrize("coords", [np.array([5.0]), 5.0, np.zeros((2, 10))],
                         ids=["length_1", "scalar", "two_rows"])
def test_wrong_shape_rejected_before_counting(coords):
    ev = BudgetedEvaluator(suite10()[0], budget=10)
    with pytest.raises(InputError):
        ev(coords)
    assert ev.used == 0


def test_manifest_is_json_ready():
    problems = suite10()
    manifest = suite_manifest(problems)
    text = json.dumps(manifest)
    loaded = json.loads(text)
    assert [m["name"] for m in loaded] == SUITE_NAMES
    assert all(m["dim"] == 10 for m in loaded)
    schwefel = next(m for m in loaded if m["name"] == "schwefel")
    assert schwefel["lower"][0] == -500.0 and schwefel["upper"][0] == 500.0
