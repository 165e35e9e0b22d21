"""Desk-scale objective suite with budget-counting evaluators.

These are classic box-constrained test functions (plus one hybrid and one
composition problem), NOT the official CEC 2013/2017 suites: those need
external data files and reference code. Shifts and rotations are generated
deterministically from a seed, with optima kept inside the central 80% of
the domain so no optimum sits on a boundary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bsp import Region
from .errors import BudgetExhaustedError, DomainError, ParameterError

# location and value of the maximum of x*sin(sqrt(x)), which the Schwefel
# function is built around
SCHWEFEL_X_STAR = 420.9687462275036
SCHWEFEL_OFFSET = 418.9828872724338


@dataclass
class Problem:
    name: str
    dim: int
    domain: Region
    f: Callable[[np.ndarray], float]
    f_opt: float | None
    category: str  # unimodal | multimodal | hybrid | composition
    x_opt: np.ndarray | None = None


class BudgetedEvaluator:
    """Counts objective calls, refuses to exceed the budget and records
    the best-so-far trace.

    ``trace`` holds (eval_index, value) at every strict improvement;
    ``best``, ``best_coords`` (a copy) and ``best_at`` describe the latest.
    A non-finite objective value (NaN or +-inf) is returned as +inf, so it
    ranks worst everywhere, and is counted in ``non_finite``.
    """

    def __init__(self, problem: Problem, budget: int):
        if budget < 1:
            raise ParameterError("budget must be at least 1")
        self.problem = problem
        self.budget = int(budget)
        self.used = 0
        self.trace = []
        self.best = float("inf")
        self.best_coords = None
        self.best_at = 0
        self.non_finite = 0

    @property
    def remaining(self) -> int:
        return self.budget - self.used

    def __call__(self, coords: np.ndarray) -> float:
        if self.used >= self.budget:
            raise BudgetExhaustedError(
                f"budget of {self.budget} evaluations exhausted on {self.problem.name}")
        coords = np.asarray(coords, dtype=float)
        # contains raises InputError on a wrong shape, so neither a bad shape
        # nor a point outside the box (NaN included) spends budget
        if not self.problem.domain.contains(coords):
            raise DomainError(f"evaluation outside the domain of {self.problem.name}")
        self.used += 1
        value = float(self.problem.f(coords))
        if not math.isfinite(value):
            self.non_finite += 1
            value = math.inf
        if value < self.best:
            self.best = value
            self.best_coords = coords.copy()
            self.best_at = self.used
            self.trace.append((self.used, value))
        return value


# -- base functions ----------------------------------------------------

def sphere(x):
    return float(np.dot(x, x))


def ellipsoid_weights(dim: int, axis_ratio: float) -> np.ndarray:
    """Quadratic coefficients giving the level sets an axis ratio of ``axis_ratio``.

    Axis lengths scale with 1/sqrt(coefficient), so the coefficients span
    axis_ratio**2 and the covariance a CMA-type optimizer learns on this
    function has condition number ~axis_ratio**2.
    """
    if dim == 1:
        return np.ones(1)
    exponents = 2.0 * np.arange(dim) / (dim - 1)
    return axis_ratio ** exponents


def rastrigin(x):
    return float(10.0 * x.size + (x * x - 10.0 * np.cos(2.0 * np.pi * x)).sum())


def ackley(x):
    n = x.size
    return float(
        -20.0 * np.exp(-0.2 * np.sqrt(np.dot(x, x) / n))
        - np.exp(np.cos(2.0 * np.pi * x).sum() / n)
        + 20.0 + np.e
    )


@functools.lru_cache(maxsize=None)
def _griewank_divisors(n: int) -> np.ndarray:
    """sqrt(1), ..., sqrt(n), built once per length and read-only."""
    divisors = np.sqrt(np.arange(1, n + 1))
    divisors.flags.writeable = False
    return divisors


def griewank(x):
    return float(np.dot(x, x) / 4000.0 - np.cos(x / _griewank_divisors(x.size)).prod() + 1.0)


def schwefel(x):
    return float(SCHWEFEL_OFFSET * x.size - (x * np.sin(np.sqrt(np.abs(x)))).sum())


def rosenbrock(x):
    return float((100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2).sum())


def random_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal matrix from the QR of a Gaussian sample, sign-fixed."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def make_ellipsoid_problem(dim: int, axis_ratio: float, rotation: np.ndarray | None = None,
                           bound: float = 100.0, name: str = "ellipsoid") -> Problem:
    w = ellipsoid_weights(dim, axis_ratio)
    if rotation is None:
        def f(x, w=w):
            return float(np.dot(w, x * x))
    else:
        def f(x, w=w, R=rotation):
            z = R @ x
            return float(np.dot(w, z * z))
    domain = Region(np.full(dim, -bound), np.full(dim, bound))
    return Problem(name, dim, domain, f, 0.0, "unimodal", np.zeros(dim))


# -- suite -------------------------------------------------------------

def make_suite(dim: int, seed: int) -> list[Problem]:
    """The ten desk-scale problems used by the comparison harness."""
    if dim not in (2, 10, 30):
        raise ParameterError(f"unsupported dimension {dim}; pick one of 2, 10, 30")
    rng = np.random.default_rng(seed)
    box = Region(np.full(dim, -100.0), np.full(dim, 100.0))
    schwefel_box = Region(np.full(dim, -500.0), np.full(dim, 500.0))
    problems = []

    problems.append(Problem("sphere", dim, box, sphere, 0.0, "unimodal", np.zeros(dim)))

    rot_elli = random_rotation(dim, rng)
    problems.append(make_ellipsoid_problem(dim, 1e6, rot_elli, name="rot_ellipsoid"))

    ros_opt = np.ones(dim)
    problems.append(Problem("rosenbrock", dim, box, rosenbrock, 0.0, "multimodal", ros_opt))

    problems.append(Problem("rastrigin", dim, box, rastrigin, 0.0, "multimodal", np.zeros(dim)))

    shift = rng.uniform(-80.0, 80.0, dim)
    rot_rast = random_rotation(dim, rng)

    def shifted_rotated_rastrigin(x, s=shift, R=rot_rast):
        return rastrigin(R @ (x - s))

    problems.append(Problem("sr_rastrigin", dim, box, shifted_rotated_rastrigin,
                            0.0, "multimodal", shift.copy()))

    problems.append(Problem("ackley", dim, box, ackley, 0.0, "multimodal", np.zeros(dim)))
    problems.append(Problem("griewank", dim, box, griewank, 0.0, "multimodal", np.zeros(dim)))
    problems.append(Problem("schwefel", dim, schwefel_box, schwefel, 0.0, "multimodal",
                            np.full(dim, SCHWEFEL_X_STAR)))

    problems.append(_make_hybrid(dim))
    problems.append(_make_composition(dim, rng))
    return problems


def _make_hybrid(dim: int) -> Problem:
    """Coordinate-partitioned mix: Rastrigin / ellipsoid / Schwefel groups.

    The Schwefel group lives on the same [-100, 100] box as the others;
    its coordinates are scaled by 5 so the basin structure matches the
    native [-500, 500] definition.
    """
    # np.array_split's three contiguous groups: the first dim % 3 groups
    # take one coordinate more
    n1, n2, n3 = (len(g) for g in np.array_split(np.arange(dim), 3))
    rast, elli, schw = slice(0, n1), slice(n1, n1 + n2), slice(n1 + n2, dim)
    w_elli = ellipsoid_weights(n2, 1e3) if n2 else np.zeros(0)

    def f(x, w=w_elli):
        total = 0.0
        if n1:
            total += rastrigin(x[rast])
        if n2:
            z = x[elli]
            total += float(np.dot(w, z * z))
        if n3:
            total += schwefel(5.0 * x[schw])
        return total

    x_opt = np.zeros(dim)
    x_opt[schw] = SCHWEFEL_X_STAR / 5.0
    box = Region(np.full(dim, -100.0), np.full(dim, 100.0))
    return Problem("hybrid", dim, box, f, 0.0, "hybrid", x_opt)


def _make_composition(dim: int, rng: np.random.Generator) -> Problem:
    """Min over three shifted basins (sphere, Rastrigin, Griewank) plus biases.

    The bias of the first basin is 0, so the global optimum is that
    basin's shift point with value 0; the other basins bottom out at
    their positive biases.
    """
    shifts = [rng.uniform(-80.0, 80.0, dim) for _ in range(3)]
    biases = (0.0, 100.0, 200.0)
    parts = (sphere, rastrigin, griewank)

    def f(x, shifts=shifts, biases=biases, parts=parts):
        return min(g(x - s) + b for g, s, b in zip(parts, shifts, biases))

    box = Region(np.full(dim, -100.0), np.full(dim, 100.0))
    return Problem("composition", dim, box, f, 0.0, "composition", shifts[0].copy())


def suite_manifest(problems: list[Problem]) -> list[dict]:
    """JSON-ready description of a suite (for the harness and docs)."""
    return [
        {
            "name": p.name,
            "dim": p.dim,
            "lower": p.domain.lower.tolist(),
            "upper": p.domain.upper.tolist(),
            "f_opt": p.f_opt,
            "category": p.category,
        }
        for p in problems
    ]
