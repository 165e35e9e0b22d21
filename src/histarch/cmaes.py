"""Covariance matrix adaptation evolution strategy, self-contained.

Candidates are drawn from N(m, sigma^2 C); the mean moves to the weighted
recombination of the best candidates, two evolution paths accumulate the
mean movement, the isotropic path drives step-size adaptation and the
anisotropic path the rank-1 covariance update. Strategy constants follow
the standard tutorial defaults. Box constraints are handled by resampling,
with a coordinate clamp only as a bounded last resort, because absorbing
candidates onto the boundary piles up duplicates there. ``cma_run`` is the
one budgeted sample/evaluate/update loop that every caller runs.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .bsp import Region
from .errors import InputError, ParameterError

# stop thresholds: covariance condition number, flat best-of-generation
# spread over the stagnation window, flat spread within one generation, and
# the step-size floor relative to sigma0
COV_CONDITION_LIMIT = 1e14
STAGNATION_TOL = 1e-12
TOL_FUN = 1e-12
TOL_X_FACTOR = 1e-12
# condition number up to which the eigenvalues of the stop check's eigh
# decide the COV_CONDITION test alone. eigh and eigvalsh are both backward
# stable, so their eigenvalues differ by about D * eps * lambda_max: where
# eigh reads at most 1e12, eigvalsh cannot read above COV_CONDITION_LIMIT
# or a lambda_min at or below 0. Beyond it eigvalsh decides, so every stop
# decision is the one eigvalsh alone would make.
EIGH_TRUSTED_CONDITION = 1e12


class StopReason(enum.Enum):
    BUDGET_EXHAUSTED = "budget_exhausted"
    COV_CONDITION = "cov_condition"
    STAGNATION = "stagnation"
    TOL_FUN = "tol_fun"
    TOL_X = "tol_x"
    NUMERICAL_ERROR = "numerical_error"  # the covariance has no usable eigendecomposition


def default_lambda(dim: int) -> int:
    """Recommended population size 4 + floor(3 ln D)."""
    if dim < 1:
        raise ParameterError("dimension must be >= 1")
    return 4 + int(math.floor(3.0 * math.log(dim)))


def stagnation_window(dim: int, lam: int) -> int:
    """Generations of flat best objective that count as stagnation."""
    return 10 + (30 * dim + lam - 1) // lam


@dataclass
class CmaState:
    """A fresh strategy state from (mean, sigma, lam, domain): identity
    covariance, zero paths and the tutorial's constants for its D and lambda."""

    mean: np.ndarray
    sigma: float
    lam: int
    domain: Region
    cov: np.ndarray = field(init=False)
    path_sigma: np.ndarray = field(init=False)
    path_c: np.ndarray = field(init=False)
    generation: int = field(init=False, default=0)
    mu: int = field(init=False)
    weights: np.ndarray = field(init=False)
    mu_eff: float = field(init=False)
    c_sigma: float = field(init=False)
    d_sigma: float = field(init=False)
    c_c: float = field(init=False)
    c_1: float = field(init=False)
    c_mu: float = field(init=False)
    chi_n: float = field(init=False)
    sigma0: float = field(init=False)
    # eigendecomposition of cov made by the latest cma_check_stop that
    # could make one (the identity's before the first): cma_sample draws
    # from it and cma_update whitens the mean shift with it
    eig_basis: np.ndarray = field(init=False)
    eig_scale: np.ndarray = field(init=False)  # sqrt of eigenvalues
    best_history: deque = field(init=False)
    last_fit_range: float = field(init=False, default=math.inf)

    def __post_init__(self):
        if self.mean.shape != (self.domain.dim,):
            raise ParameterError(f"initial mean must have shape ({self.domain.dim},), "
                                 f"got {self.mean.shape}")
        # written as a range so that NaN fails it too
        if not 0.0 < self.sigma < math.inf:
            raise ParameterError("sigma0 must be finite and positive")
        if self.lam < 2:
            raise ParameterError("population size must be >= 2")
        if not self.domain.contains(self.mean):
            raise ParameterError("initial mean must lie inside the domain")

        dim = self.dim
        self.sigma0 = self.sigma
        self.cov = np.eye(dim)
        self.path_sigma = np.zeros(dim)
        self.path_c = np.zeros(dim)
        self.eig_basis = np.eye(dim)
        self.eig_scale = np.ones(dim)
        self.best_history = deque(maxlen=stagnation_window(dim, self.lam))

        self.mu = self.lam // 2
        raw = np.log(self.mu + 0.5) - np.log(np.arange(1, self.mu + 1))
        self.weights = raw / raw.sum()
        mu_eff = 1.0 / np.sum(self.weights ** 2)
        self.mu_eff = float(mu_eff)

        self.c_sigma = (mu_eff + 2.0) / (dim + mu_eff + 5.0)
        self.d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (dim + 1.0)) - 1.0) \
            + self.c_sigma
        self.c_c = (4.0 + mu_eff / dim) / (dim + 4.0 + 2.0 * mu_eff / dim)
        self.c_1 = 2.0 / ((dim + 1.3) ** 2 + mu_eff)
        self.c_mu = min(1.0 - self.c_1,
                        2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((dim + 2.0) ** 2 + mu_eff))
        self.chi_n = math.sqrt(dim) * (1.0 - 1.0 / (4.0 * dim) + 1.0 / (21.0 * dim ** 2))

    @property
    def dim(self) -> int:
        return self.mean.size


def cma_init(mean0: np.ndarray, sigma0: float, lam: int, domain: Region) -> CmaState:
    """A fresh ``CmaState`` from an array-like mean and numeric sigma0 and lambda.

    ``CmaState`` takes a float array, a float and an int. This converts
    what its callers hold, and copies the mean so that the state alone
    owns it: a list of Python floats (``uniform_point`` in
    ``hr.run_cmaes_restart``), a numpy mean (``hr.seed_cma_from_roi``),
    and the lists, ints and JSON-typed values of the tests and demos. The
    benchmark also counts CMA-ES starts by this name
    (``cmaes.cma_init.calls``).
    """
    return CmaState(np.array(mean0, dtype=float), float(sigma0), int(lam), domain)


def _decompose(state: CmaState) -> list[float] | None:
    """Ascending eigenvalues of ``state.cov`` from one ``eigh``, whose basis
    and square-rooted eigenvalues replace the state's; None, with the
    state's left as they were, when the matrix has a non-finite entry,
    ``eigh`` fails or an eigenvalue is not finite and positive."""
    if not np.logical_and.reduce(np.isfinite(state.cov), axis=None):
        return None
    try:
        eigvals, basis = np.linalg.eigh(state.cov)
    except np.linalg.LinAlgError:
        return None
    values = eigvals.tolist()
    if not all(map(math.isfinite, values)) or values[0] <= 0:
        return None
    state.eig_basis = basis
    state.eig_scale = np.sqrt(eigvals)
    return values


def cma_sample(state: CmaState, rng: np.random.Generator) -> np.ndarray:
    """Draw lambda candidates from N(m, sigma^2 C), kept inside the domain.

    Returns a float (lambda, D) array. All rows come from one
    (lambda, D) normal draw; only rows outside the box are redrawn, each
    row at most 100 draws in all, and a row still outside after that is
    clamped to the box as a last resort. Draws from the eigendecomposition
    of ``state.cov`` that ``cma_check_stop`` made, so call it after a check
    that returned None, as ``cma_run`` does.
    """
    basis, scale = state.eig_basis, state.eig_scale
    lower, upper = state.domain.lower, state.domain.upper

    def draw(n: int) -> np.ndarray:
        z = rng.standard_normal((n, state.dim))
        return state.mean + state.sigma * ((z * scale) @ basis.T)

    candidates = draw(state.lam)
    for _ in range(99):
        # written as "inside" so that NaN rows count as outside
        inside = (candidates >= lower) & (candidates <= upper)
        if np.logical_and.reduce(inside, axis=None):
            return candidates
        outside = np.flatnonzero(~inside.all(axis=1))
        candidates[outside] = draw(outside.size)
    return np.clip(candidates, lower, upper)


def cma_update(state: CmaState, candidates: np.ndarray, fitnesses: np.ndarray):
    """One generation step: recombine, cumulate paths, adapt sigma and C.

    Whitens the mean shift with the eigendecomposition ``cma_check_stop``
    made and ``cma_sample`` drew the candidates from. +inf fitnesses rank
    last; NaN is rejected.
    """
    fitnesses = np.asarray(fitnesses, dtype=float)
    if len(candidates) != state.lam or fitnesses.size != state.lam:
        raise InputError(f"expected exactly {state.lam} evaluated candidates")
    values = fitnesses.tolist()
    if any(map(math.isnan, values)):
        raise InputError("fitness values must not be NaN")

    dim = state.dim
    order = fitnesses.argsort(kind="stable")
    xs = np.asarray(candidates)[order[: state.mu]]

    old_mean = state.mean
    new_mean = state.weights @ xs
    shift = (new_mean - old_mean) / state.sigma

    basis, scale = state.eig_basis, state.eig_scale
    inv_sqrt_shift = basis @ ((basis.T @ shift) / scale)

    c_s = state.c_sigma
    state.path_sigma = (1.0 - c_s) * state.path_sigma + \
        math.sqrt(c_s * (2.0 - c_s) * state.mu_eff) * inv_sqrt_shift

    gen1 = state.generation + 1
    ps = state.path_sigma
    ps_norm = math.sqrt(ps.dot(ps))
    hsig = ps_norm / math.sqrt(1.0 - (1.0 - c_s) ** (2 * gen1)) / state.chi_n \
        < 1.4 + 2.0 / (dim + 1.0)

    c_c = state.c_c
    state.path_c = (1.0 - c_c) * state.path_c
    if hsig:
        state.path_c = state.path_c + math.sqrt(c_c * (2.0 - c_c) * state.mu_eff) * shift

    steps = (xs - old_mean) / state.sigma
    rank_mu = (steps.T * state.weights) @ steps
    c1a = state.c_1 * (1.0 - (0.0 if hsig else 1.0) * c_c * (2.0 - c_c))
    cov = (1.0 - c1a - state.c_mu) * state.cov \
        + state.c_1 * (state.path_c[:, None] * state.path_c) \
        + state.c_mu * rank_mu
    state.cov = 0.5 * (cov + cov.T)

    state.sigma *= math.exp((c_s / state.d_sigma) * (ps_norm / state.chi_n - 1.0))

    state.mean = new_mean
    state.generation = gen1
    best, worst = min(values), max(values)
    state.best_history.append(best)
    # equal values are flat, +inf included
    state.last_fit_range = 0.0 if worst == best else worst - best


def cma_check_stop(state: CmaState) -> StopReason | None:
    """First matching stop in priority order, or None; ``cma_run`` owns the budget.

    Makes the generation's one eigendecomposition of ``state.cov`` and
    keeps its basis and scale on the state for ``cma_sample`` and
    ``cma_update``. Its eigenvalues decide COV_CONDITION when their
    condition number is at most EIGH_TRUSTED_CONDITION; otherwise, and when
    there is no decomposition, ``eigvalsh`` decides, unless it raises too.
    A covariance without a decomposition that ranks no earlier reason is
    NUMERICAL_ERROR, the last.
    """
    values = _decompose(state)
    if values is None or values[-1] > EIGH_TRUSTED_CONDITION * values[0]:
        try:
            eigvals = np.linalg.eigvalsh(state.cov)
        except np.linalg.LinAlgError:
            values = None
        else:  # in Python floats, inf / inf is NaN and no RuntimeWarning
            lowest = float(eigvals.min())
            if lowest <= 0 or float(eigvals.max()) / lowest > COV_CONDITION_LIMIT:
                return StopReason.COV_CONDITION
    window = state.best_history.maxlen
    if len(state.best_history) == window:
        hi, lo = max(state.best_history), min(state.best_history)
        if hi == lo or hi - lo <= STAGNATION_TOL:
            return StopReason.STAGNATION
    # tol_fun only kicks in after the stagnation window has had its chance,
    # so a flat landscape is reported as stagnation, not premature tol_fun
    if state.generation >= window and state.last_fit_range <= TOL_FUN:
        return StopReason.TOL_FUN
    widest = np.maximum.reduce(state.cov.diagonal())  # NaN if the diagonal holds one
    if state.sigma * math.sqrt(widest) < TOL_X_FACTOR * state.sigma0:
        return StopReason.TOL_X
    if values is None:
        return StopReason.NUMERICAL_ERROR
    return None


def cma_run(state: CmaState, evaluator, rng: np.random.Generator) -> StopReason:
    """Sample, evaluate and update until a stop fires; returns its reason.

    ``evaluator`` must expose ``evaluate_batch`` and ``remaining``, as a
    ``BudgetedEvaluator`` does, and the run is entered with budget left.
    Each generation is one ``evaluate_batch`` call on the (lambda, D)
    candidates, cut here to their first ``remaining`` rows: the one budget
    cut, so the run never raises on budget. The generation that spends the
    last evaluation ends the run as BUDGET_EXHAUSTED before any update.
    Each generation decomposes the covariance once, in ``cma_check_stop``;
    ``cma_sample`` and ``cma_update`` read that decomposition.
    """
    while True:
        stop = cma_check_stop(state)
        if stop is not None:
            return stop
        candidates = cma_sample(state, rng)
        fits = evaluator.evaluate_batch(candidates[:evaluator.remaining])
        if evaluator.remaining == 0:
            return StopReason.BUDGET_EXHAUSTED
        cma_update(state, candidates, fits)
