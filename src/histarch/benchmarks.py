"""Desk-scale objective suite with budget-counting evaluators.

Every objective maps an array of shape (..., D) to shape (...): a vector
to a scalar, an (n, D) block to n values. Row i of a C-contiguous block
of finite coordinates evaluates bit for bit as the vector call on row i
does, so a batched caller sees the values a per-point caller would. The
forms that keep this are reductions along ``axis=-1``, ``np.vecdot`` for
each dot product (the same BLAS ``ddot`` per row as ``np.dot``),
rotations as ``np.matmul(R, x[..., None])`` (``R @ x`` per row) and
``np.minimum.reduce`` over the composition's basins; ``X @ R.T`` and
``einsum`` round differently.

These are classic box-constrained test functions (plus one hybrid and one
composition problem), NOT the official CEC 2013/2017 suites: those need
external data files and reference code. Shifts and rotations are generated
deterministically from a seed.

Only ``sr_rastrigin`` and ``composition`` are shifted, by draws from
[-80, 80]^D, so their optima lie inside the central 80% of the domain.
Sphere, rot_ellipsoid, Rastrigin, Ackley and Griewank have their optimum
at the centre of the domain, and Rosenbrock at (1, ..., 1). Two optima lie
outside the central 80%: Schwefel's, at 420.97 per coordinate on
[-500, 500], and the hybrid's on its Schwefel group, at 84.19 on
[-100, 100]; the hybrid's other two groups have theirs at 0. No optimum
sits on a boundary.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bsp import Region, _in_box, _shape_error
from .errors import BudgetExhaustedError, DomainError, InputError, ParameterError

# location and value of the maximum of x*sin(sqrt(x)), which the Schwefel
# function is built around
SCHWEFEL_X_STAR = 420.9687462275036
SCHWEFEL_OFFSET = 418.9828872724338
SUPPORTED_DIMS = (2, 10, 30)


@dataclass
class Problem:
    name: str
    domain: Region
    # maps (..., D) to (...); wrap a scalar-only objective g as
    # np.vectorize(g, otypes=[float], signature="(n)->()")
    f: Callable[[np.ndarray], np.ndarray]
    f_opt: float
    category: str  # unimodal | multimodal | hybrid | composition
    x_opt: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.domain.dim


class BudgetedEvaluator:
    """Counts evaluations, refuses to exceed the budget and records the
    best-so-far trace.

    ``trace`` holds (eval_index, value) at every strict improvement;
    ``best``, ``best_coords`` (a copy) and ``best_at`` describe the latest.
    A non-finite objective value (NaN or +-inf) is returned as +inf, so it
    ranks worst everywhere, and is counted in ``non_finite``. The domain is
    read once, when the evaluator is built; ``problem.f`` on every call.
    Calling the evaluator evaluates one point; ``evaluate_batch`` evaluates
    a block of points in one ``problem.f`` call and then accounts each row
    through ``__call__``, so every evaluation passes ``__call__`` once, in
    order. Each evaluates all it is handed, or raises and changes nothing.
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
        # a Region never changes, so its shape and bounds are read here: as
        # Python floats for one point, as read-only arrays for a block
        self._shape = problem.domain.lower.shape
        self._lower, self._upper = problem.domain.bounds
        self._box = (problem.domain.lower, problem.domain.upper)

    @property
    def remaining(self) -> int:
        return self.budget - self.used

    def __call__(self, coords: np.ndarray, *, value: float | None = None) -> float:
        """Evaluate ``coords`` and account it. ``value``, which only
        ``evaluate_batch`` passes, is the point's objective value for a
        point it has already shape- and box-tested. An objective that
        raises spends no budget."""
        if self.used >= self.budget:
            raise BudgetExhaustedError(
                f"budget of {self.budget} evaluations exhausted on {self.problem.name}")
        coords = np.asarray(coords, dtype=float)
        if value is None:
            # Region.contains's shape and box tests on this one conversion:
            # neither a wrong shape nor a point outside the box (NaN
            # included) spends budget
            if coords.shape != self._shape:
                raise _shape_error(len(self._lower), coords.shape)
            if not _in_box(self._lower, self._upper, coords.tolist()):
                raise DomainError(f"evaluation outside the domain of {self.problem.name}")
            value = float(self.problem.f(coords))
        self.used += 1
        if not math.isfinite(value):
            self.non_finite += 1
            value = math.inf
        if value < self.best:
            self.best = value
            self.best_coords = coords.copy()
            self.best_at = self.used
            self.trace.append((self.used, value))
        return value

    def evaluate_batch(self, block) -> np.ndarray:
        """Evaluate every row of an (n, D) block in one ``problem.f`` call,
        then account each, in order, through ``__call__``; returns their
        values as ``__call__`` returns them.

        A block is refused whole, before ``problem.f`` runs or anything is
        counted: a wrong shape raises InputError, more rows than
        ``remaining`` BudgetExhaustedError (``cma_run`` slices its last
        generation to ``remaining``), and a row outside the box, NaN and
        +-inf included, DomainError. The objective must map n rows to n
        values."""
        block = np.ascontiguousarray(block, dtype=float)
        if block.shape[1:] != self._shape:
            raise _shape_error(len(self._lower), block.shape)
        n = len(block)
        if n > self.remaining:
            raise BudgetExhaustedError(f"{n} rows exceed the {self.remaining} evaluations "
                                       f"left on {self.problem.name}")
        lower, upper = self._box
        # written as "inside" so that NaN rows count as outside
        inside = np.logical_and.reduce((block >= lower) & (block <= upper), axis=1)
        if not np.logical_and.reduce(inside):
            raise DomainError(f"row {int(inside.argmin())} of the block lies outside the "
                              f"domain of {self.problem.name}")
        values = np.asarray(self.problem.f(block), dtype=float) if n else np.empty(0)
        if values.shape != (n,):
            raise InputError(f"the objective of {self.problem.name} mapped {n} rows "
                             f"to shape {values.shape}, not ({n},)")
        return np.array([self(row, value=v) for row, v in zip(block, values.tolist())])


# -- base functions ----------------------------------------------------

def sphere(x):
    return np.vecdot(x, x)


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
    return 10.0 * x.shape[-1] + np.add.reduce(x * x - 10.0 * np.cos(2.0 * np.pi * x), axis=-1)


def ackley(x):
    n = x.shape[-1]
    return (
        -20.0 * np.exp(-0.2 * np.sqrt(np.vecdot(x, x) / n))
        - np.exp(np.add.reduce(np.cos(2.0 * np.pi * x), axis=-1) / n)
        + 20.0 + np.e
    )


@functools.lru_cache(maxsize=None)
def _griewank_divisors(n: int) -> np.ndarray:
    """sqrt(1), ..., sqrt(n), built once per length and read-only."""
    divisors = np.sqrt(np.arange(1, n + 1))
    divisors.flags.writeable = False
    return divisors


def griewank(x):
    product = np.multiply.reduce(np.cos(x / _griewank_divisors(x.shape[-1])), axis=-1)
    return np.vecdot(x, x) / 4000.0 - product + 1.0


def schwefel(x):
    return SCHWEFEL_OFFSET * x.shape[-1] - np.add.reduce(x * np.sin(np.sqrt(np.abs(x))), axis=-1)


def rosenbrock(x):
    head = x[..., :-1]
    return np.add.reduce(100.0 * (x[..., 1:] - head ** 2) ** 2 + (1.0 - head) ** 2, axis=-1)


def _rotate(R: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``R @ x`` for each vector along the last axis of ``x``, each rounded
    as the one-vector product is."""
    return np.matmul(R, x[..., None])[..., 0]


def random_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal matrix from the QR of a Gaussian sample, sign-fixed."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


# -- suite -------------------------------------------------------------

def make_suite(dim: int, seed: int) -> list[Problem]:
    """The ten desk-scale problems used by the comparison harness."""
    if dim not in SUPPORTED_DIMS:
        raise ParameterError(f"unsupported dimension {dim}; pick one of {SUPPORTED_DIMS}")
    rng = np.random.default_rng(seed)
    rot_elli = random_rotation(dim, rng)
    shift = rng.uniform(-80.0, 80.0, dim)
    rot_rast = random_rotation(dim, rng)

    def rotated_ellipsoid(x, w=ellipsoid_weights(dim, 1e6), R=rot_elli):
        z = _rotate(R, x)
        return np.vecdot(w, z * z)

    def shifted_rotated_rastrigin(x, s=shift, R=rot_rast):
        return rastrigin(_rotate(R, x - s))

    box = Region(np.full(dim, -100.0), np.full(dim, 100.0))
    # (name, f, category, x_opt) of the problems on ``box`` with optimum 0
    table = [
        ("sphere", sphere, "unimodal", np.zeros(dim)),
        ("rot_ellipsoid", rotated_ellipsoid, "unimodal", np.zeros(dim)),
        ("rosenbrock", rosenbrock, "multimodal", np.ones(dim)),
        ("rastrigin", rastrigin, "multimodal", np.zeros(dim)),
        ("sr_rastrigin", shifted_rotated_rastrigin, "multimodal", shift.copy()),
        ("ackley", ackley, "multimodal", np.zeros(dim)),
        ("griewank", griewank, "multimodal", np.zeros(dim)),
    ]
    return [
        *(Problem(name, box, f, 0.0, category, x_opt) for name, f, category, x_opt in table),
        Problem("schwefel", Region(np.full(dim, -500.0), np.full(dim, 500.0)), schwefel,
                0.0, "multimodal", np.full(dim, SCHWEFEL_X_STAR)),
        _make_hybrid(box),
        _make_composition(rng, box),
    ]


def _make_hybrid(box: Region) -> Problem:
    """Coordinate-partitioned mix: Rastrigin / ellipsoid / Schwefel groups.

    The Schwefel group lives on the same [-100, 100] box as the others;
    its coordinates are scaled by 5 so the basin structure matches the
    native [-500, 500] definition.
    """
    dim = box.dim
    # np.array_split's three contiguous groups: the first dim % 3 groups
    # take one coordinate more, so every supported dim fills the first two
    n1, n2, n3 = (len(g) for g in np.array_split(np.arange(dim), 3))
    rast, elli, schw = slice(0, n1), slice(n1, n1 + n2), slice(n1 + n2, dim)

    def f(x, w=ellipsoid_weights(n2, 1e3)):
        z = x[..., elli]
        total = rastrigin(x[..., rast]) + np.vecdot(w, z * z)
        if n3:
            total += schwefel(5.0 * x[..., schw])
        return total

    x_opt = np.zeros(dim)
    x_opt[schw] = SCHWEFEL_X_STAR / 5.0
    return Problem("hybrid", box, f, 0.0, "hybrid", x_opt)


def _make_composition(rng: np.random.Generator, box: Region) -> Problem:
    """Min over three shifted basins (sphere, Rastrigin, Griewank) plus biases.

    The bias of the first basin is 0, so the global optimum is that
    basin's shift point with value 0; the other basins bottom out at
    their positive biases.
    """
    shifts = [rng.uniform(-80.0, 80.0, box.dim) for _ in range(3)]
    biases = (0.0, 100.0, 200.0)
    parts = (sphere, rastrigin, griewank)

    def f(x, shifts=shifts, biases=biases, parts=parts):
        return np.minimum.reduce([g(x - s) + b for g, s, b in zip(parts, shifts, biases)])

    return Problem("composition", box, f, 0.0, "composition", shifts[0].copy())

