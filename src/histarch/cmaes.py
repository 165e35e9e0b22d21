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
    mean: np.ndarray
    sigma: float
    cov: np.ndarray
    path_sigma: np.ndarray
    path_c: np.ndarray
    generation: int
    lam: int
    mu: int
    weights: np.ndarray
    mu_eff: float
    c_sigma: float
    d_sigma: float
    c_c: float
    c_1: float
    c_mu: float
    chi_n: float
    domain: Region
    sigma0: float
    # eigendecomposition of cov made by the latest cma_check_stop that
    # could make one (the identity's before the first): cma_sample draws
    # from it and cma_update whitens the mean shift with it
    eig_basis: np.ndarray
    eig_scale: np.ndarray  # sqrt of eigenvalues
    best_history: deque = field(default_factory=deque)
    last_fit_range: float = float("inf")

    @property
    def dim(self) -> int:
        return self.mean.size


def cma_init(mean0: np.ndarray, sigma0: float, lam: int, domain: Region) -> CmaState:
    """Fresh strategy state: identity covariance, zero paths."""
    mean0 = np.asarray(mean0, dtype=float)
    dim = mean0.size
    if mean0.shape != (domain.dim,):
        raise ParameterError(f"initial mean must have shape ({domain.dim},), got {mean0.shape}")
    # written as a range so that NaN fails it too
    if not 0.0 < sigma0 < math.inf:
        raise ParameterError("sigma0 must be finite and positive")
    if lam < 2:
        raise ParameterError("population size must be >= 2")
    if not domain.contains(mean0):
        raise ParameterError("initial mean must lie inside the domain")

    mu = lam // 2
    raw = np.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    weights = raw / raw.sum()
    mu_eff = 1.0 / np.sum(weights ** 2)

    c_sigma = (mu_eff + 2.0) / (dim + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, math.sqrt((mu_eff - 1.0) / (dim + 1.0)) - 1.0) + c_sigma
    c_c = (4.0 + mu_eff / dim) / (dim + 4.0 + 2.0 * mu_eff / dim)
    c_1 = 2.0 / ((dim + 1.3) ** 2 + mu_eff)
    c_mu = min(1.0 - c_1, 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((dim + 2.0) ** 2 + mu_eff))
    chi_n = math.sqrt(dim) * (1.0 - 1.0 / (4.0 * dim) + 1.0 / (21.0 * dim ** 2))

    window = stagnation_window(dim, lam)
    return CmaState(
        mean=mean0.copy(),
        sigma=float(sigma0),
        cov=np.eye(dim),
        path_sigma=np.zeros(dim),
        path_c=np.zeros(dim),
        generation=0,
        lam=int(lam),
        mu=mu,
        weights=weights,
        mu_eff=float(mu_eff),
        c_sigma=c_sigma,
        d_sigma=d_sigma,
        c_c=c_c,
        c_1=c_1,
        c_mu=c_mu,
        chi_n=chi_n,
        domain=domain,
        sigma0=float(sigma0),
        eig_basis=np.eye(dim),
        eig_scale=np.ones(dim),
        best_history=deque(maxlen=window),
    )


def _decompose(state: CmaState) -> list[float] | None:
    """Ascending eigenvalues of ``state.cov`` from one ``eigh``, whose basis
    and square-rooted eigenvalues replace the state's; None, with the
    state's left as they were, when the matrix has a non-finite entry,
    ``eigh`` fails or an eigenvalue is not finite and positive."""
    if not np.isfinite(state.cov).all():
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
        if inside.all():
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
    there is no decomposition, ``eigvalsh`` decides. A covariance without a
    decomposition that ranks no earlier reason is NUMERICAL_ERROR, the last.
    """
    values = _decompose(state)
    if values is None or values[-1] > EIGH_TRUSTED_CONDITION * values[0]:
        eigvals = np.linalg.eigvalsh(state.cov)
        lowest = eigvals.min()
        if lowest <= 0 or eigvals.max() / lowest > COV_CONDITION_LIMIT:
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
    if state.sigma * math.sqrt(state.cov.diagonal().max()) < TOL_X_FACTOR * state.sigma0:
        return StopReason.TOL_X
    if values is None:
        return StopReason.NUMERICAL_ERROR
    return None


def cma_run(state: CmaState, evaluator, rng: np.random.Generator) -> StopReason:
    """Sample, evaluate and update until a stop fires; returns its reason.

    ``evaluator`` must be callable and expose ``remaining``, and the run
    is entered with budget left. Never raises on budget: the generation
    that spends the last evaluation, whole or cut to its first
    ``remaining`` rows, ends the run as BUDGET_EXHAUSTED before any update.
    Each generation decomposes the covariance once, in ``cma_check_stop``;
    ``cma_sample`` and ``cma_update`` read that decomposition.
    """
    while True:
        stop = cma_check_stop(state)
        if stop is not None:
            return stop
        candidates = cma_sample(state, rng)
        fits = np.array([evaluator(x) for x in candidates[:evaluator.remaining]])
        if evaluator.remaining == 0:
            return StopReason.BUDGET_EXHAUSTED
        cma_update(state, candidates, fits)
