import dataclasses

import numpy as np
import pytest

from histarch import (BudgetExhaustedError, DomainError, InputError, ParameterError,
                      Region, make_suite)
from histarch.benchmarks import (BudgetedEvaluator, Problem, ellipsoid_weights,
                                 random_rotation, rastrigin, sphere)
from histarch.cmaes import default_lambda
from util import reference_suite, uniform_array

SUITE_NAMES = ["sphere", "rot_ellipsoid", "rosenbrock", "rastrigin", "sr_rastrigin",
               "ackley", "griewank", "schwefel", "hybrid", "composition"]


def suite10():
    return make_suite(10, seed=123)


def test_suite_contents_and_unsupported_dim():
    problems = suite10()
    assert [p.name for p in problems] == SUITE_NAMES
    with pytest.raises(ParameterError):
        make_suite(5, seed=1)


@pytest.mark.parametrize("dim", [2, 10, 30])
def test_problem_dimension_is_its_domains(dim):
    # D is read from the domain, never set beside it
    assert [f.name for f in dataclasses.fields(Problem)] == \
        ["name", "domain", "f", "f_opt", "category", "x_opt"]
    for p in make_suite(dim, seed=123):
        assert p.dim == p.domain.dim == dim
        assert p.x_opt.shape == (dim,)


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
        points = [uniform_array(p.domain, rng) for _ in range(200)] + [p.x_opt]
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
            x = uniform_array(p.domain, rng)
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
    xs = [uniform_array(a[0].domain, rng) for _ in range(20)]
    for pa, pb in zip(a, b):
        dom_rng = np.random.default_rng(1)
        for _ in range(20):
            x = uniform_array(pa.domain, dom_rng)
            assert pa.f(x) == pb.f(x)


def test_ellipsoid_weights_span_squared_axis_ratio():
    w = ellipsoid_weights(10, 1e3)
    assert w[0] == 1.0
    assert w[-1] == pytest.approx(1e6)
    assert ellipsoid_weights(1, 1e3).tolist() == [1.0]


def test_rot_ellipsoid_weights_its_rotated_axes():
    # the suite draws the ellipsoid's rotation first from the suite seed;
    # row i of the rotation maps onto axis i, of weight 1e6 ** (2 i / 9)
    p = next(p for p in suite10() if p.name == "rot_ellipsoid")
    rotation = random_rotation(10, np.random.default_rng(123))
    assert p.f(np.zeros(10)) == 0.0
    assert p.f(rotation[0]) == pytest.approx(1.0)
    assert p.f(rotation[-1]) == pytest.approx(1e12)


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
        ev(uniform_array(p.domain, rng))
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
    p = Problem("p", Region(np.full(1, -1.0), np.ones(1)), lambda x: next(values),
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



# -- batched objectives and evaluate_batch ------------------------------

def hard_block(domain, n, rng):
    """n rows of uniform draws from ``domain`` in which each coordinate may
    instead sit on the lower or upper face or take a magnitude from 1e-320
    (subnormal) to 1e300 (far outside the box), of either sign."""
    lower, upper = domain.lower, domain.upper
    block = rng.uniform(lower, upper, (n, domain.dim))
    kinds = rng.integers(0, 5, block.shape)
    magnitudes = rng.choice([-1.0, 1.0], block.shape) * 10.0 ** rng.uniform(-320, 300, block.shape)
    block = np.where(kinds == 1, lower, block)
    block = np.where(kinds == 2, upper, block)
    return np.where(kinds == 3, magnitudes, block)


def bits(value):
    """The 64 bits of a float, so that equal means identical: -0.0 differs
    from 0.0 and NaN equals itself."""
    return int(np.float64(value).view(np.int64))


@pytest.mark.parametrize("dim", [2, 10, 30])
def test_objectives_evaluate_a_block_row_by_row_bit_for_bit(dim):
    # every block size a CMA-ES generation can hand over, from one row to
    # two populations; huge magnitudes overflow to inf in some terms
    problems = make_suite(dim, seed=9)
    refs = reference_suite(dim, seed=9)
    rng = np.random.default_rng(100 + dim)
    for p in problems:
        for n in range(1, 2 * default_lambda(dim) + 1):
            block = hard_block(p.domain, n, rng)
            with np.errstate(over="ignore", invalid="ignore"):
                values = p.f(block)
                assert values.shape == (n,), p.name
                for i, row in enumerate(block):
                    expected = bits(refs[p.name](row))
                    assert bits(values[i]) == bits(p.f(row)) == expected, (p.name, n, i)


def spy_evaluator(budget):
    """An evaluator of the sphere on [-1, 1]^3 and the list of every block
    its objective is handed, copied."""
    seen = []

    def f(x):
        seen.append(np.array(x))
        return sphere(x)

    domain = Region(np.full(3, -1.0), np.ones(3))
    return BudgetedEvaluator(Problem("spy", domain, f, 0.0, "unimodal"), budget), seen


def test_batch_accounts_each_row_as_one_call_would():
    rng = np.random.default_rng(21)
    blocks = [rng.uniform(-1.0, 1.0, (n, 3)) for n in (4, 1, 6)]
    batched, seen = spy_evaluator(budget=20)
    per_row, _ = spy_evaluator(budget=20)
    for block in blocks:
        values = batched.evaluate_batch(block)
        assert values.tolist() == [per_row(row) for row in block]
    assert [len(b) for b in seen] == [4, 1, 6]
    for name in ("used", "trace", "best", "best_at", "non_finite"):
        assert getattr(batched, name) == getattr(per_row, name), name
    assert np.array_equal(batched.best_coords, per_row.best_coords)


def test_batch_straddling_the_budget_evaluates_exactly_the_remaining_rows():
    rng = np.random.default_rng(22)
    ev, seen = spy_evaluator(budget=7)
    ev.evaluate_batch(rng.uniform(-1.0, 1.0, (4, 3)))
    block = rng.uniform(-1.0, 1.0, (5, 3))
    values = ev.evaluate_batch(block)
    assert ev.used == 7 and ev.remaining == 0
    assert len(values) == 3
    assert np.array_equal(seen[-1], block[:3])
    # a spent budget evaluates nothing
    assert ev.evaluate_batch(block).shape == (0,)
    assert len(seen) == 2 and ev.used == 7


@pytest.mark.parametrize("bad", [np.nan, 1.5, -np.inf], ids=["nan", "outside", "minus_inf"])
@pytest.mark.parametrize("at", [0, 2, 4])
def test_batch_row_outside_the_box_raises_after_counting_the_rows_before_it(bad, at):
    block = np.random.default_rng(23).uniform(-1.0, 1.0, (5, 3))
    block[at, 1] = bad
    if at < 4:
        block[4, 2] = 2.0  # a later row outside is never reached
    ev, seen = spy_evaluator(budget=10)
    with pytest.raises(DomainError):
        ev.evaluate_batch(block)
    assert ev.used == at
    if at:
        assert len(seen) == 1 and np.array_equal(seen[0], block[:at])
    else:
        assert seen == []


@pytest.mark.parametrize("shape", [(4, 2), (4, 4), (3,), (2, 4, 3), ()],
                         ids=["narrow", "wide", "one_point", "stacked", "scalar"])
def test_batch_of_the_wrong_shape_rejected_before_the_objective_runs(shape):
    ev, seen = spy_evaluator(budget=10)
    with pytest.raises(InputError):
        ev.evaluate_batch(np.zeros(shape))
    assert ev.used == 0 and seen == []


def test_batch_objective_that_returns_one_value_for_a_block_rejected():
    # a scalar-only objective not wrapped for blocks spends no budget
    domain = Region(np.full(3, -1.0), np.ones(3))
    ev = BudgetedEvaluator(Problem("scalar", domain, lambda x: 1.0, 0.0, "unimodal"), 10)
    with pytest.raises(InputError):
        ev.evaluate_batch(np.zeros((4, 3)))
    assert ev.used == 0 and ev.trace == []


def test_objective_that_raises_spends_no_budget():
    class Failure(Exception):
        pass

    def fail(x):
        raise Failure

    domain = Region(np.full(3, -1.0), np.ones(3))
    ev = BudgetedEvaluator(Problem("failing", domain, fail, 0.0, "unimodal"), 10)
    with pytest.raises(Failure):
        ev(np.zeros(3))
    with pytest.raises(Failure):
        ev.evaluate_batch(np.zeros((4, 3)))
    assert ev.used == 0 and ev.trace == []
