import copy
import math

import numpy as np
import pytest

from histarch import (ParameterError, Region, StopReason, cma_check_stop,
                      cma_init, cma_run, cma_sample, cma_update, default_lambda,
                      make_suite, stagnation_window)
from histarch.benchmarks import ellipsoid_weights
from util import budgeted, ref_cma_sample, ref_cma_update, reference_suite


def wide_domain(dim, half=100.0):
    return Region(np.full(dim, -half), np.full(dim, half))


# -- parameters ---------------------------------------------------------

def test_default_lambda_reference_values():
    assert default_lambda(10) == 10
    assert default_lambda(30) == 14
    assert default_lambda(1) == 4
    with pytest.raises(ParameterError):
        default_lambda(0)


def test_init_identity_and_weights():
    state = cma_init(np.zeros(10), 0.5, 10, wide_domain(10))
    assert np.array_equal(state.cov, np.eye(10))
    assert np.all(state.path_sigma == 0) and np.all(state.path_c == 0)
    assert state.mu == 5
    assert abs(state.weights.sum() - 1.0) <= 1e-12
    # mu_eff from the weight formula directly
    raw = np.log(5.5) - np.log(np.arange(1, 6))
    w = raw / raw.sum()
    assert state.mu_eff == pytest.approx(1.0 / np.sum(w ** 2), rel=1e-12)
    assert 1.0 <= state.mu_eff <= state.mu


def test_init_rejects_bad_sigma():
    with pytest.raises(ParameterError):
        cma_init(np.zeros(3), 0.0, 8, wide_domain(3))


def test_init_rejects_mean_of_wrong_dimension():
    with pytest.raises(ParameterError):
        cma_init(np.zeros(1), 1.0, 10, wide_domain(10))


def test_stagnation_window_formula_grid():
    for dim in range(1, 51):
        for lam in range(4, 41):
            state = cma_init(np.zeros(dim), 1.0, lam, wide_domain(dim))
            expected = 10 + math.ceil(30 * dim / lam)
            assert stagnation_window(dim, lam) == expected
            assert state.best_history.maxlen == expected


# -- sampling -----------------------------------------------------------

def test_tiny_sigma_collapses_to_mean():
    mean = np.full(4, 5.0)
    state = cma_init(mean, 1e-300, 8, wide_domain(4))
    rng = np.random.default_rng(0)
    for x in cma_sample(state, rng):
        assert np.array_equal(x, mean)


def test_sampling_deterministic_given_seed():
    state_a = cma_init(np.zeros(6), 1.0, 9, wide_domain(6))
    state_b = cma_init(np.zeros(6), 1.0, 9, wide_domain(6))
    xs_a = cma_sample(state_a, np.random.default_rng(42))
    xs_b = cma_sample(state_b, np.random.default_rng(42))
    for a, b in zip(xs_a, xs_b):
        assert np.array_equal(a, b)


def test_sample_is_one_normal_block_mapped_row_by_row():
    dim, lam = 7, 9
    rng = np.random.default_rng(11)
    a = rng.standard_normal((dim, dim))
    state = cma_init(np.full(dim, 1.5), 0.8, lam, wide_domain(dim))
    state.cov = a @ a.T / dim + 0.5 * np.eye(dim)  # no draw leaves the box
    xs = cma_sample(state, np.random.default_rng(12))
    assert isinstance(xs, np.ndarray)
    assert xs.dtype == np.float64 and xs.shape == (lam, dim)
    # exactly lam * dim normals consumed: the generators stay in step
    rng = np.random.default_rng(12)
    twin = np.random.default_rng(12)
    cma_sample(state, rng)
    z = twin.standard_normal((lam, dim))
    assert rng.random() == twin.random()
    # row i is the per-row reference mean + sigma * B (D z_i), up to
    # rounding: one matrix product sums in a different order
    eigvals, basis = np.linalg.eigh(state.cov)
    for x, zi in zip(xs, z):
        ref = state.mean + state.sigma * (basis @ (np.sqrt(eigvals) * zi))
        assert np.allclose(x, ref, rtol=0.0, atol=1e-12)


def test_sample_mean_clt_bound():
    state = cma_init(np.zeros(10), 1.0, 10, wide_domain(10))
    rng = np.random.default_rng(1)
    total = np.zeros(10)
    n = 10_000
    for _ in range(n // state.lam):
        for x in cma_sample(state, rng):
            total += x
    assert np.abs(total / n).max() <= 4.0 / math.sqrt(n)


def test_sample_covariance_tracks_cov():
    dim = 5
    rng = np.random.default_rng(2)
    a = rng.standard_normal((dim, dim))
    cov = a @ a.T / dim + 0.5 * np.eye(dim)
    state = cma_init(np.zeros(dim), 1.0, 20, wide_domain(dim))
    state.cov = cov
    draws = np.empty((100_000, dim))
    i = 0
    while i < draws.shape[0]:
        for x in cma_sample(state, rng):
            if i < draws.shape[0]:
                draws[i] = (x - state.mean) / state.sigma
                i += 1
    est = np.cov(draws, rowvar=False)
    assert np.abs(est - cov).max() <= 0.05 * max(1.0, np.abs(cov).max())


def test_candidates_respect_domain():
    domain = Region(np.zeros(3), np.ones(3))
    state = cma_init(np.full(3, 0.5), 5.0, 12, domain)  # sigma much wider than box
    rng = np.random.default_rng(3)
    for _ in range(20):
        for x in cma_sample(state, rng):
            assert domain.contains(x)


# -- update ---------------------------------------------------------------

def test_tied_fitness_mean_is_weighted_mean_of_first_mu():
    state = cma_init(np.zeros(4), 1.0, 8, wide_domain(4))
    rng = np.random.default_rng(4)
    xs = cma_sample(state, rng)
    fs = np.zeros(len(xs))  # all tied; stable sort keeps given order
    expected = state.weights @ np.asarray(xs)[: state.mu]
    cma_update(state, xs, fs)
    assert np.allclose(state.mean, expected, atol=1e-15)


def test_cov_stays_symmetric_positive_definite():
    state = cma_init(np.full(6, 2.0), 0.7, 9, wide_domain(6))
    rng = np.random.default_rng(5)

    def rastr(x):
        return 10 * x.size + np.sum(x * x - 10 * np.cos(2 * np.pi * x))

    for _ in range(60):
        xs = cma_sample(state, rng)
        fs = np.array([rastr(x) for x in xs])
        cma_update(state, xs, fs)
        assert np.abs(state.cov - state.cov.T).max() <= 1e-12
        assert np.linalg.eigvalsh(state.cov).min() > 0


def test_sphere_single_run_smoke():
    state = cma_init(np.full(10, 3.0), 0.5, 10, wide_domain(10))
    evaluator = budgeted(lambda x: float(x @ x), state.domain, 10_000)
    stop = cma_run(state, evaluator, np.random.default_rng(6))
    assert evaluator.best < 1e-10
    assert stop in (StopReason.TOL_FUN, StopReason.TOL_X, StopReason.STAGNATION,
                    StopReason.BUDGET_EXHAUSTED)


def test_ellipsoid_condition_grows_to_squared_axis_ratio():
    w = ellipsoid_weights(10, 1e3)  # coefficients span 1e6
    state = cma_init(np.full(10, 3.0), 0.5, 10, wide_domain(10))
    cma_run(state, budgeted(lambda x: float(w @ (x * x)), state.domain, 60_000),
            np.random.default_rng(7))
    eig = np.linalg.eigvalsh(state.cov)
    cond = eig.max() / eig.min()
    assert 1e5 <= cond <= 1e7


@pytest.mark.parametrize("name", ["rot_ellipsoid", "rastrigin"])
def test_generations_bit_identical_to_reference(name):
    f = next(p.f for p in make_suite(10, seed=0) if p.name == name)
    ref_f = reference_suite(10, seed=0)[name]
    # a narrow box with the mean near its corner: early generations redraw
    # rows, some up to the clamp, later ones fit the box on the first draw
    domain = Region(np.full(10, -1.0), np.ones(10))
    state = cma_init(np.full(10, 0.9), 0.5, 10, domain)
    ref = cma_init(np.full(10, 0.9), 0.5, 10, domain)
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    redrawn = first_draw = clamped = 0
    for _ in range(100):
        twin = copy.deepcopy(rng)
        xs = cma_sample(state, rng)
        ref_xs = ref_cma_sample(ref, ref_rng)
        assert np.array_equal(xs, ref_xs)
        twin.standard_normal((10, 10))
        if twin.bit_generator.state == rng.bit_generator.state:
            first_draw += 1
        else:
            redrawn += 1
        clamped += bool(((xs == domain.lower) | (xs == domain.upper)).any())
        cma_update(state, xs, np.array([f(x) for x in xs]))
        ref_cma_update(ref, ref_xs, np.array([ref_f(x) for x in ref_xs]))
        for attr in ("mean", "cov", "path_sigma", "path_c"):
            assert np.array_equal(getattr(state, attr), getattr(ref, attr)), attr
        assert state.sigma == ref.sigma
        assert list(state.best_history) == list(ref.best_history)
    assert redrawn and first_draw and clamped


# -- stopping ---------------------------------------------------------------

def test_stagnation_on_constant_objective():
    state = cma_init(np.zeros(10), 1.0, 10, wide_domain(10))
    stop = cma_run(state, budgeted(lambda x: 1.0, state.domain, 10_000_000),
                   np.random.default_rng(8))
    assert stop is StopReason.STAGNATION
    assert state.generation <= 41  # 10 + ceil(30*10/10) + 1


def test_stagnation_on_infinite_plateau():
    state = cma_init(np.zeros(10), 1.0, 10, wide_domain(10))
    stop = cma_run(state, budgeted(lambda x: float("inf"), state.domain, 10_000_000),
                   np.random.default_rng(8))
    assert stop is StopReason.STAGNATION
    assert state.generation <= 41


def test_forced_condition_number_stop():
    state = cma_init(np.zeros(10), 1.0, 10, wide_domain(10))
    state.cov = np.diag(np.linspace(1.0, 1e15, 10))
    assert cma_check_stop(state) is StopReason.COV_CONDITION


def test_tol_x_fires_below_fraction_of_sigma0():
    state = cma_init(np.zeros(10), 2.0, 10, wide_domain(10))
    state.sigma = 0.9e-12 * state.sigma0
    assert cma_check_stop(state) is StopReason.TOL_X
    state.sigma = 1.1e-12 * state.sigma0
    assert cma_check_stop(state) is None


def test_no_stop_mid_flight():
    state = cma_init(np.zeros(10), 1.0, 10, wide_domain(10))
    assert cma_check_stop(state) is None


@pytest.mark.parametrize("budget", [25, 30])
def test_run_ends_on_the_generation_that_spends_the_budget(budget):
    # lambda = 10: the third generation spends the last evaluation, cut to
    # its first five rows or whole, and is never handed to cma_update; a
    # twin run of two updates leaves the same state
    state = cma_init(np.full(4, 2.0), 1.0, 10, wide_domain(4))
    twin = copy.deepcopy(state)
    evaluator = budgeted(lambda x: float(x @ x), state.domain, budget)
    rng, twin_rng = np.random.default_rng(14), np.random.default_rng(14)
    assert cma_run(state, evaluator, rng) is StopReason.BUDGET_EXHAUSTED
    assert evaluator.used == budget and evaluator.remaining == 0
    for _ in range(2):
        xs = cma_sample(twin, twin_rng)
        cma_update(twin, xs, np.array([float(x @ x) for x in xs]))
    assert state.generation == twin.generation == 2
    for attr in ("mean", "cov", "path_sigma", "path_c"):
        assert np.array_equal(getattr(state, attr), getattr(twin, attr)), attr
    assert state.sigma == twin.sigma
    # the cut generation drew all lambda rows
    cma_sample(twin, twin_rng)
    assert rng.bit_generator.state == twin_rng.bit_generator.state
