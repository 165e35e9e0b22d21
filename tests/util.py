"""Independent brute-force oracles and reference formulas shared by the
test modules.

The tree oracles deliberately re-derive tree geometry from parent links
and the domain box instead of trusting the cells the library hands out:
``walk_region`` gives a node's cell and ``subtree_of`` its whole
``Subtree``.
"""

import dataclasses
import gc
import hashlib
import json
import math

import numpy as np
from scipy.special import logsumexp

from histarch.benchmarks import (SCHWEFEL_OFFSET, BudgetedEvaluator, Problem,
                                 ellipsoid_weights, random_rotation)
from histarch.bsp import BspArchive, BspNode, Subtree, uniform_point
from histarch.cmaes import (COV_CONDITION_LIMIT, STAGNATION_TOL, TOL_FUN,
                            TOL_X_FACTOR, StopReason)
from histarch.cnrga import TOURNAMENT_SIZE, crossover_pair, maybe_prune
from histarch.errors import InputError


class LoggingProblem:
    """Wraps a problem so every evaluation is recorded in call order, each
    row of a block as one evaluation."""

    def __init__(self, problem):
        self.problem = problem
        self.log = []

    def build(self):
        def f(x, inner=self.problem.f, log=self.log):
            v = inner(x)
            x = np.array(x, dtype=float)
            log.extend(zip(x.reshape(-1, x.shape[-1]), np.reshape(v, -1).tolist()))
            return v
        return dataclasses.replace(self.problem, f=f)


def rowwise(f):
    """A scalar-only objective as one that maps (..., D) to (...): ``f``
    is called once per row, in row order."""
    return np.vectorize(f, otypes=[float], signature="(n)->()")


def budgeted(f, domain, budget):
    """The scalar-only ``f`` on ``domain`` behind the evaluator ``cma_run`` takes."""
    return BudgetedEvaluator(Problem("f", domain, rowwise(f), None, "unimodal"), budget)


def walk_region(archive, node):
    """Cell of a node computed by clipping the domain along each ancestor
    split (independent of the archive's own cell computation)."""
    chain = []
    cur = node
    while cur.parent is not None:
        chain.append(cur)
        cur = cur.parent
    lo = archive.domain.lower.copy()
    hi = archive.domain.upper.copy()
    for child in reversed(chain):
        parent = child.parent
        if parent.below is child:
            hi[parent.split_dim] = parent.split_value
        else:
            assert parent.above is child, "child not linked from its parent"
            lo[parent.split_dim] = parent.split_value
    return lo, hi


def subtree_of(archive, node):
    """``node``'s Subtree, built from the oracles: its ``walk_region`` cell,
    its ``depth_of`` depth and the archive's current epoch."""
    lo, hi = walk_region(archive, node)
    return Subtree(node, depth_of(node), tuple(lo.tolist()), tuple(hi.tolist()),
                   archive._epoch)


def leaf_cells(archive):
    """The stored leaves and the lower and upper bounds of their
    ``walk_region`` cells as (leaves, D) arrays, computed once for many
    ``locate_brute`` probes."""
    leaves = list(archive.iter_leaves())
    boxes = [walk_region(archive, leaf) for leaf in leaves]
    dim = archive.domain.dim
    return (leaves, np.array([lo for lo, _ in boxes]).reshape(-1, dim),
            np.array([hi for _, hi in boxes]).reshape(-1, dim))


def locate_brute(archive, x, cells=None):
    """The unique leaf whose cell contains x under the traversal
    convention: below-splits are half-open above, the outer domain
    boundary stays inclusive. ``cells`` are the archive's ``leaf_cells``,
    computed here when not given."""
    leaves, lows, highs = leaf_cells(archive) if cells is None else cells
    x = np.asarray(x, dtype=float)
    at_top = highs == archive.domain.upper
    inside = ((lows <= x) & ((x < highs) | (at_top & (x <= highs)))).all(axis=1)
    matches = np.flatnonzero(inside)
    assert len(matches) == 1, f"point in {len(matches)} cells"
    return leaves[matches[0]]


def tiling_relative_error(archive, cells=None):
    """|sum of leaf volumes / domain volume - 1|, summed in log space;
    ``cells`` are the archive's ``leaf_cells``, computed here when not given."""
    _, lows, highs = leaf_cells(archive) if cells is None else cells
    if not len(lows):
        return 0.0
    total = logsumexp(np.log(highs - lows).sum(axis=1))
    return abs(np.exp(total - np.log(archive.domain.upper - archive.domain.lower).sum()) - 1.0)


def interiors_disjoint(archive):
    """True when no two leaf cells overlap with positive volume."""
    boxes = [walk_region(archive, leaf) for leaf in archive.iter_leaves()]
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            lo = np.maximum(boxes[i][0], boxes[j][0])
            hi = np.minimum(boxes[i][1], boxes[j][1])
            if (lo < hi).all():
                return False
    return True


def depth_of(node):
    """Number of parent links from ``node`` up to its root."""
    depth = 0
    while node.parent is not None:
        depth += 1
        node = node.parent
    return depth


def max_leaf_depth(archive):
    return max(depth_of(leaf) for leaf in archive.iter_leaves())


def bsp_nodes_left_by(action):
    """The BspNodes made by ``action()`` that are still alive when it
    returns, run with the cyclic collector off so that only reference
    counting frees anything."""
    gc.collect()
    # held, so that no new node can reuse the id of an older one
    older = [o for o in gc.get_objects() if isinstance(o, BspNode)]
    old_ids = {id(o) for o in older}
    enabled = gc.isenabled()
    gc.disable()
    try:
        action()
        return [o for o in gc.get_objects()
                if isinstance(o, BspNode) and id(o) not in old_ids]
    finally:
        if enabled:
            gc.enable()


# -- reference formulas ------------------------------------------------
# The suite's objectives and one CMA-ES generation as first written: free
# numpy reductions (np.sum, np.prod, np.argsort, np.linalg.norm, np.outer),
# index arrays for the hybrid's coordinate groups and an eigvalsh in every
# stop check. The library must reproduce them bit for bit.

def ref_sphere(x):
    return float(np.dot(x, x))


def ref_rastrigin(x):
    return float(10.0 * x.size + np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x)))


def ref_ackley(x):
    n = x.size
    return float(
        -20.0 * np.exp(-0.2 * np.sqrt(np.dot(x, x) / n))
        - np.exp(np.sum(np.cos(2.0 * np.pi * x)) / n)
        + 20.0 + np.e
    )


def ref_griewank(x):
    i = np.arange(1, x.size + 1)
    return float(np.dot(x, x) / 4000.0 - np.prod(np.cos(x / np.sqrt(i))) + 1.0)


def ref_schwefel(x):
    return float(SCHWEFEL_OFFSET * x.size - np.sum(x * np.sin(np.sqrt(np.abs(x)))))


def ref_rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def ref_rotated_ellipsoid(w, R):
    def f(x):
        z = R @ x
        return float(np.dot(w, z * z))
    return f


def ref_hybrid(dim):
    g1, g2, g3 = np.array_split(np.arange(dim), 3)
    w = ellipsoid_weights(len(g2), 1e3) if len(g2) else np.zeros(0)

    def f(x):
        total = 0.0
        if g1.size:
            total += ref_rastrigin(x[g1])
        if g2.size:
            z = x[g2]
            total += float(np.dot(w, z * z))
        if g3.size:
            total += ref_schwefel(5.0 * x[g3])
        return total
    return f


def reference_suite(dim, seed):
    """Name -> reference objective for ``make_suite(dim, seed)``, drawing
    the shifts and rotations in the suite's order."""
    rng = np.random.default_rng(seed)
    rot_elli = random_rotation(dim, rng)
    shift = rng.uniform(-80.0, 80.0, dim)
    rot_rast = random_rotation(dim, rng)
    comp_shifts = [rng.uniform(-80.0, 80.0, dim) for _ in range(3)]
    parts = ((ref_sphere, 0.0), (ref_rastrigin, 100.0), (ref_griewank, 200.0))
    return {
        "sphere": ref_sphere,
        "rot_ellipsoid": ref_rotated_ellipsoid(ellipsoid_weights(dim, 1e6), rot_elli),
        "rosenbrock": ref_rosenbrock,
        "rastrigin": ref_rastrigin,
        "sr_rastrigin": lambda x: ref_rastrigin(rot_rast @ (x - shift)),
        "ackley": ref_ackley,
        "griewank": ref_griewank,
        "schwefel": ref_schwefel,
        "hybrid": ref_hybrid(dim),
        "composition": lambda x: min(g(x - s) + b for (g, b), s in zip(parts, comp_shifts)),
    }


def ref_refresh_eig(state):
    """The sampler's decomposition as first written; False, with the state
    untouched, where the sampler failed and the run ended as
    NUMERICAL_ERROR."""
    if not np.isfinite(state.cov).all():
        return False
    try:
        eigvals, basis = np.linalg.eigh(state.cov)
    except np.linalg.LinAlgError:
        return False
    if not np.isfinite(eigvals).all() or eigvals.min() <= 0:
        return False
    state.eig_basis = basis
    state.eig_scale = np.sqrt(eigvals)
    return True


def ref_cma_sample(state, rng):
    assert ref_refresh_eig(state), "covariance has no usable decomposition"
    basis, scale = state.eig_basis, state.eig_scale
    lower, upper = state.domain.lower, state.domain.upper

    def draw(n):
        z = rng.standard_normal((n, state.dim))
        return state.mean + state.sigma * ((z * scale) @ basis.T)

    candidates = draw(state.lam)
    for _ in range(99):
        outside = np.flatnonzero(~((candidates >= lower) & (candidates <= upper)).all(axis=1))
        if outside.size == 0:
            return candidates
        candidates[outside] = draw(outside.size)
    return np.clip(candidates, lower, upper)


def ref_cma_check_stop(state):
    """The stop check as first written: ``eigvalsh`` decides COV_CONDITION
    on every call. Where the first version raised, this one goes on to the
    other reasons: a ``LinAlgError`` from ``eigvalsh``, or the RuntimeWarning
    of inf / inf in numpy floats when every eigenvalue is +inf."""
    try:
        eigvals = np.linalg.eigvalsh(state.cov)
    except np.linalg.LinAlgError:
        eigvals = None
    if eigvals is not None:
        lowest = float(eigvals.min())
        if lowest <= 0 or float(eigvals.max()) / lowest > COV_CONDITION_LIMIT:
            return StopReason.COV_CONDITION
    window = state.best_history.maxlen
    if len(state.best_history) == window:
        hi, lo = max(state.best_history), min(state.best_history)
        if hi == lo or hi - lo <= STAGNATION_TOL:
            return StopReason.STAGNATION
    if state.generation >= window and state.last_fit_range <= TOL_FUN:
        return StopReason.TOL_FUN
    if state.sigma * math.sqrt(state.cov.diagonal().max()) < TOL_X_FACTOR * state.sigma0:
        return StopReason.TOL_X
    return None


def ref_generation_stop(state):
    """The stop one generation of the first loop made: ``ref_cma_check_stop``,
    then NUMERICAL_ERROR when the sampler's ``ref_refresh_eig`` fails."""
    stop = ref_cma_check_stop(state)
    if stop is None and not ref_refresh_eig(state):
        return StopReason.NUMERICAL_ERROR
    return stop


def ref_cma_update(state, candidates, fitnesses):
    fitnesses = np.asarray(fitnesses, dtype=float)
    if len(candidates) != state.lam or fitnesses.size != state.lam:
        raise InputError(f"expected exactly {state.lam} evaluated candidates")
    if np.isnan(fitnesses).any():
        raise InputError("fitness values must not be NaN")

    dim = state.dim
    order = np.argsort(fitnesses, kind="stable")
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
    ps_norm = float(np.linalg.norm(state.path_sigma))
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
        + state.c_1 * np.outer(state.path_c, state.path_c) \
        + state.c_mu * rank_mu
    state.cov = 0.5 * (cov + cov.T)

    state.sigma *= math.exp((c_s / state.d_sigma) * (ps_norm / state.chi_n - 1.0))

    state.mean = new_mean
    state.generation = gen1
    best, worst = float(fitnesses.min()), float(fitnesses.max())
    state.best_history.append(best)
    state.last_fit_range = 0.0 if worst == best else worst - best


# -- reference explorer primitives --------------------------------------
# The cNrGA explorer's per-candidate primitives as first written: one sized
# index draw per tournament, masked copies for crossover, numpy's bounded
# uniform draw and np.argmax over the coordinate gaps. The library must
# reproduce their outputs bit for bit and leave the generator in the same
# state.

def same_rng_state(rng_a, rng_b):
    return rng_a.bit_generator.state == rng_b.bit_generator.state


def ref_uniform_point(region, rng):
    return rng.uniform(region.lower, region.upper)


def uniform_array(region, rng):
    """``uniform_point`` from ``region``'s bounds, as an array."""
    return np.array(uniform_point(*region.bounds, rng))


def ref_tournament_pick(individuals, rng):
    idx = rng.integers(0, len(individuals), TOURNAMENT_SIZE)
    return min((individuals[i] for i in idx), key=lambda p: p.fitness)


def ref_crossover_pair(individuals, rate, rng):
    p1 = ref_tournament_pick(individuals, rng)
    p2 = ref_tournament_pick(individuals, rng)
    c1 = p1.coords.copy()
    c2 = p2.coords.copy()
    swap = rng.random(c1.size) < rate
    c1[swap] = p2.coords[swap]
    c2[swap] = p1.coords[swap]
    return c1, c2


class ScriptedRng:
    """Returns fixed unit-interval values from random() for the first n
    calls, then delegates to a real generator."""

    def __init__(self, fixed, n, seed=0):
        self.fixed = np.asarray(fixed, dtype=float)
        self.n = n
        self.inner = np.random.default_rng(seed)

    def random(self, size):
        if self.n > 0:
            self.n -= 1
            return self.fixed.copy()
        return self.inner.random(size)


class RootWalkArchive(BspArchive):
    """Reference archive: every insert walks from the root."""

    def insert(self, coords, within=None):
        return super().insert(coords)


def spy_on_parents(monkeypatch):
    """Record each population the GA breeds from, with its crossover count."""
    bred = []  # [population list, crossover_pair calls]

    def spy(individuals, rng):
        if not bred or bred[-1][0] is not individuals:
            bred.append([individuals, 0])
        bred[-1][1] += 1
        return crossover_pair(individuals, rng)

    monkeypatch.setattr("histarch.cnrga.crossover_pair", spy)
    return bred


def spy_on_prunes(monkeypatch):
    """Record each archive the run drivers hand to ``maybe_prune``, with its
    stored-point count after the call; the archive stays alive in the record."""
    prunes = []  # (archive, n_points after the call)

    def spy(archive):
        maybe_prune(archive)
        prunes.append((archive, archive.n_points))

    monkeypatch.setattr("histarch.hr.maybe_prune", spy)
    return prunes


def ref_split_dim(new_coords, old_coords):
    """Split dimension between a leaf's point and a new one: the first
    largest coordinate gap."""
    return int(np.argmax(np.abs(np.asarray(new_coords) - np.asarray(old_coords))))


# -- run digests ---------------------------------------------------------

def record_digest(record) -> str:
    """sha256 over everything a seeded run reports: budget use, the
    best-so-far trace, the phases, the final fields and the tree dump.
    Floats enter through ``repr``, so equal digests mean equal bits."""
    body = json.dumps([
        record.algo, record.problem, record.budget, record.evals_used,
        [[int(i), float(v)] for i, v in record.best_trace],
        [dataclasses.asdict(phase) for phase in record.phases],
        [float(c) for c in record.final_coords], float(record.final_fitness),
        record.final_eval_index, record.search_space_exhausted,
        record.non_finite_evals, record.tree_dump,
    ])
    return hashlib.sha256(body.encode()).hexdigest()
