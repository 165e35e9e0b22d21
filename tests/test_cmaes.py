import copy
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from histarch import (ParameterError, Region, StopReason, cma_check_stop,
                      cma_init, cma_run, cma_sample, cma_update, default_lambda,
                      make_suite, stagnation_window)
from histarch import cmaes
from histarch.benchmarks import ellipsoid_weights, random_rotation
from util import (budgeted, ref_cma_sample, ref_cma_update, ref_generation_stop,
                  reference_suite)


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


@pytest.mark.parametrize("sigma0", [0.0, -1.0, math.nan, math.inf])
def test_init_rejects_bad_sigma(sigma0):
    with pytest.raises(ParameterError):
        cma_init(np.zeros(3), sigma0, 8, wide_domain(3))


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
    assert cma_check_stop(state) is None
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
    assert cma_check_stop(state) is None
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
        assert cma_check_stop(state) is None
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
        assert cma_check_stop(state) is None
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
        assert cma_check_stop(twin) is None
        xs = cma_sample(twin, twin_rng)
        cma_update(twin, xs, np.array([float(x @ x) for x in xs]))
    assert state.generation == twin.generation == 2
    for attr in ("mean", "cov", "path_sigma", "path_c"):
        assert np.array_equal(getattr(state, attr), getattr(twin, attr)), attr
    assert state.sigma == twin.sigma
    # the cut generation drew all lambda rows
    assert cma_check_stop(twin) is None
    cma_sample(twin, twin_rng)
    assert rng.bit_generator.state == twin_rng.bit_generator.state


# -- one eigendecomposition per generation ------------------------------

# the condition numbers the test covariances are built around: log-uniform
# over [1, 1e16], or within a thousandth of a decade of the trusted margin
# or of the stop limit, where eigh and eigvalsh can read opposite sides
CONDITIONS = (None, cmaes.EIGH_TRUSTED_CONDITION, cmaes.COV_CONDITION_LIMIT)
# what is done to the matrix afterwards: nothing, a zero or a negative
# eigenvalue, or one symmetric pair of entries made non-finite
DEFECTS = (None, "singular", "indefinite", math.nan, math.inf, -math.inf)


def drawn_covariance(dim, condition, defect, rng):
    """A rotated covariance with eigenvalues from 1 to about ``condition``
    times a random scale, then the ``defect``."""
    if condition is None:
        log_cond = rng.uniform(0.0, 16.0)
    else:
        log_cond = math.log10(condition) + rng.uniform(-1e-3, 1e-3)
    eigvals = 10.0 ** rng.uniform(0.0, log_cond, dim)
    eigvals[-1] = 10.0 ** log_cond
    eigvals[0] = {"singular": 0.0, "indefinite": -10.0 ** rng.uniform(-16.0, 0.0)}.get(
        defect, 1.0)
    eigvals *= 10.0 ** rng.uniform(-8.0, 8.0)
    q = random_rotation(dim, rng)
    cov = (q * eigvals) @ q.T
    cov = 0.5 * (cov + cov.T)
    if isinstance(defect, float):
        i, j = rng.integers(dim, size=2)
        cov[i, j] = cov[j, i] = defect
    return cov


def outcome(check, state):
    """What ``check(state)`` returns, or the type of what it raises."""
    try:
        return check(state)
    except Exception as exc:
        return type(exc)


@seed(2019)
@settings(derandomize=True, deadline=None, max_examples=600)
@given(dim=st.integers(1, 30), condition=st.sampled_from(CONDITIONS),
       defect=st.sampled_from(DEFECTS), flat=st.booleans(),
       sigma=st.sampled_from([1.0, 1e-13]), numpy_seed=st.integers(0, 2 ** 32 - 1))
def test_stop_decision_equals_eigvalsh_decision(dim, condition, defect, flat, sigma,
                                                numpy_seed):
    # the decision and the decomposition one generation of the first loop
    # made: eigvalsh in the stop check, then the sampler's eigh
    state = cma_init(np.zeros(dim), 1.0, default_lambda(dim), wide_domain(dim))
    state.cov = drawn_covariance(dim, condition, defect, np.random.default_rng(numpy_seed))
    state.sigma = sigma
    window = state.best_history.maxlen
    state.best_history.extend([1.0] * window if flat else range(window))
    ref = copy.deepcopy(state)
    expected = outcome(ref_generation_stop, ref)
    assert outcome(cma_check_stop, state) == expected
    if expected is None:
        assert np.array_equal(state.eig_basis, ref.eig_basis)
        assert np.array_equal(state.eig_scale, ref.eig_scale)


def count_decompositions(monkeypatch):
    """Record the eigenvalues of every ``eigh``, count ``eigvalsh`` calls
    and stop checks."""
    seen = {"eigh": [], "eigvalsh": 0, "checks": 0}
    eigh, eigvalsh, check = np.linalg.eigh, np.linalg.eigvalsh, cmaes.cma_check_stop

    def counted_eigh(a):
        result = eigh(a)
        seen["eigh"].append(result[0])
        return result

    def counted_eigvalsh(a):
        seen["eigvalsh"] += 1
        return eigvalsh(a)

    def counted_check(state):
        seen["checks"] += 1
        return check(state)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
    monkeypatch.setattr(cmaes, "cma_check_stop", counted_check)
    return seen


def test_well_conditioned_run_decomposes_once_per_generation(monkeypatch):
    seen = count_decompositions(monkeypatch)
    state = cma_init(np.full(10, 3.0), 0.5, 10, wide_domain(10))
    cma_run(state, budgeted(lambda x: float(x @ x), state.domain, 10_000),
            np.random.default_rng(6))
    assert seen["checks"] == len(seen["eigh"]) == state.generation + 1
    assert seen["eigvalsh"] == 0


def test_ill_conditioned_run_calls_eigvalsh_only_beyond_the_margin(monkeypatch):
    # acceptance criterion 6's run, which ends on the condition limit
    seen = count_decompositions(monkeypatch)
    w = ellipsoid_weights(10, 1e8)
    state = cma_init(np.full(10, 3.0), 0.5, 10, wide_domain(10))
    stop = cma_run(state, budgeted(lambda x: float(w @ (x * x)), state.domain, 50_000),
                   np.random.default_rng(6))
    assert stop is StopReason.COV_CONDITION
    assert seen["checks"] == len(seen["eigh"])
    beyond = sum(ev[-1] > cmaes.EIGH_TRUSTED_CONDITION * ev[0] for ev in seen["eigh"])
    assert 0 < beyond == seen["eigvalsh"] < seen["checks"]
