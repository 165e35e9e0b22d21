import numpy as np
import pytest

from histarch import (BspArchive, GaConfig, GaPopulation, NewLeaf, ParameterError, Region,
                      SearchPoint, SearchSpaceExhaustedError, evaluate_via_archive, ga_step,
                      init_population, maybe_prune)
from histarch.benchmarks import BudgetedEvaluator, Problem, rastrigin, sphere
from histarch.cnrga import LRU_CAPACITY, crossover_pair, tournament_pick
from util import ref_crossover_pair, ref_tournament_pick, same_rng_state


def box_problem(dim=2, lo=0.0, hi=10.0, f=sphere, name="box"):
    return Problem(name, dim, Region(np.full(dim, lo), np.full(dim, hi)), f, 0.0,
                   "unimodal", np.zeros(dim))


def test_fresh_archive_single_evaluation():
    problem = box_problem()
    ev = BudgetedEvaluator(problem, 10)
    ar = BspArchive(problem.domain)
    rng = np.random.default_rng(0)
    leaf = evaluate_via_archive(np.array([3.0, 4.0]), ar, ev, rng)
    assert isinstance(leaf, NewLeaf) and leaf.node is ar.root and leaf.depth == 0
    point = leaf.node.point
    assert ev.used == 1
    assert point.fitness == 25.0
    assert np.array_equal(point.coords, [3.0, 4.0])


def test_duplicate_is_replaced_by_mutant_in_leaf_cell():
    problem = box_problem()
    ev = BudgetedEvaluator(problem, 10)
    ar = BspArchive(problem.domain)
    rng = np.random.default_rng(1)
    evaluate_via_archive(np.array([2.0, 5.0]), ar, ev, rng)
    evaluate_via_archive(np.array([8.0, 6.0]), ar, ev, rng)
    cell = ar.region_of(ar.root.below)  # leaf currently holding (2, 5)
    point = evaluate_via_archive(np.array([2.0, 5.0]), ar, ev, rng).node.point
    assert ev.used == 3  # one evaluation despite the revisit
    assert np.abs(point.coords - np.array([2.0, 5.0])).max() > 0
    assert cell.contains(point.coords)


def test_blocked_half_redirects_everything_right():
    problem = box_problem()
    ev = BudgetedEvaluator(problem, 20_000)
    ar = BspArchive(problem.domain)
    rng = np.random.default_rng(2)
    evaluate_via_archive(np.array([2.0, 5.0]), ar, ev, rng)
    evaluate_via_archive(np.array([8.0, 6.0]), ar, ev, rng)
    ar.block(ar.root.below)  # left half x < 5
    for _ in range(10_000):
        coords = np.array([rng.uniform(0.0, 5.0), rng.uniform(0.0, 10.0)])
        point = evaluate_via_archive(coords, ar, ev, rng).node.point
        assert point.coords[0] >= 5.0


def test_whole_domain_blocked_signals_exhaustion():
    problem = box_problem()
    ev = BudgetedEvaluator(problem, 10)
    ar = BspArchive(problem.domain)
    rng = np.random.default_rng(3)
    evaluate_via_archive(np.array([2.0, 5.0]), ar, ev, rng)
    ar.block(ar.root)
    with pytest.raises(SearchSpaceExhaustedError):
        evaluate_via_archive(np.array([1.0, 1.0]), ar, ev, rng)


class _ScriptedRng:
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


def test_revisit_cascade_falls_back_to_domain_sample():
    problem = box_problem()
    ev = BudgetedEvaluator(problem, 10)
    ar = BspArchive(problem.domain)
    real = np.random.default_rng(4)
    evaluate_via_archive(np.array([2.0, 5.0]), ar, ev, real)
    # every draw maps to 10 * (0.2, 0.5) == (2, 5) in the one-leaf cell [0, 10]^2
    rigged = _ScriptedRng([0.2, 0.5], n=150)
    point = evaluate_via_archive(np.array([2.0, 5.0]), ar, ev, rigged).node.point
    assert ev.used == 2
    assert np.abs(point.coords - np.array([2.0, 5.0])).max() > 0


# -- crossover -------------------------------------------------------------

def _toy_population(coords_list):
    pts = []
    for i, c in enumerate(coords_list):
        pts.append(SearchPoint(np.asarray(c, dtype=float), float(i), i))
    return GaPopulation(pts, 0)


def test_zero_crossover_rate_copies_parents():
    pop = _toy_population([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    cfg = GaConfig(pop_size=3, crossover_rate=0.0)
    rng = np.random.default_rng(5)
    for _ in range(20):
        c1, c2 = crossover_pair(pop, cfg, rng)
        assert any(np.array_equal(c1, p.coords) for p in pop.individuals)
        assert any(np.array_equal(c2, p.coords) for p in pop.individuals)


def test_full_crossover_rate_swaps_whole_genomes():
    pop = _toy_population([[1.0, 2.0], [3.0, 4.0]])
    cfg = GaConfig(pop_size=2, crossover_rate=1.0)
    rng = np.random.default_rng(6)
    c1, c2 = crossover_pair(pop, cfg, rng)
    mats = {tuple(c1), tuple(c2)}
    assert mats <= {(1.0, 2.0), (3.0, 4.0)}


def test_gene_conservation_under_crossover():
    rng = np.random.default_rng(7)
    pop = _toy_population(rng.uniform(0, 10, size=(6, 4)))
    cfg = GaConfig(pop_size=6, crossover_rate=0.5)
    for _ in range(50):
        c1, c2 = crossover_pair(pop, cfg, rng)
        pool = {(d, p.coords[d]) for p in pop.individuals for d in range(4)}
        for c in (c1, c2):
            for d in range(4):
                assert (d, c[d]) in pool


class _TiedPoints:
    """``n`` points built on demand; fitness repeats every five indices,
    so tournaments tie often at any population size."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        return SearchPoint(np.array([float(i), -0.5 * i]), float(i % 5), int(i))


@pytest.mark.parametrize("n", [2, 7, 100, 2**31])
def test_tournament_pick_matches_reference(n):
    pop = GaPopulation(_TiedPoints(n), 0)
    fast, ref = np.random.default_rng(n % 97), np.random.default_rng(n % 97)
    ties = 0
    for _ in range(300):
        probe = np.random.default_rng()
        probe.bit_generator.state = ref.bit_generator.state
        i, j = probe.integers(0, n, 2)
        ties += i != j and i % 5 == j % 5
        assert tournament_pick(pop, fast).eval_index == ref_tournament_pick(pop, ref).eval_index
        fast.random(3)  # draws of another width in between
        ref.random(3)
    assert same_rng_state(fast, ref)
    assert ties > 0 or n < 7


@pytest.mark.parametrize("rate", [0.0, 0.3, 1.0])
def test_crossover_pair_matches_reference(rate):
    rng = np.random.default_rng(8)
    pop = _toy_population(rng.uniform(-5.0, 5.0, size=(20, 10)))
    for point in pop.individuals:
        point.fitness = float(point.eval_index % 3)
    cfg = GaConfig(pop_size=20, crossover_rate=rate)
    fast, ref = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(300):
        for child, expected in zip(crossover_pair(pop, cfg, fast), ref_crossover_pair(pop, cfg, ref)):
            assert child.tobytes() == expected.tobytes()
    assert same_rng_state(fast, ref)


# -- generation loop ---------------------------------------------------------

def run_generations(problem, config, budget, seed, generations=None, lru=False):
    """Generations as ``run_cnrga`` drives them, ``maybe_prune`` after each
    one when ``lru``."""
    ev = BudgetedEvaluator(problem, budget)
    ar = BspArchive(problem.domain)
    rng = np.random.default_rng(seed)
    pop = init_population(config, ar, ev, rng)
    history = [pop.best().fitness]
    from histarch import BudgetExhaustedError
    try:
        while generations is None or pop.generation < generations:
            pop = ga_step(pop, config, ar, ev, rng)
            if lru:
                maybe_prune(ar)
            history.append(pop.best().fitness)
    except BudgetExhaustedError:
        pass
    return ev, ar, history


def rastr_problem(dim):
    return Problem("rastrigin", dim,
                   Region(np.full(dim, -5.12), np.full(dim, 5.12)),
                   rastrigin, 0.0, "multimodal", np.zeros(dim))


def test_no_duplicate_evaluations_over_run():
    ev, ar, _ = run_generations(rastr_problem(2), GaConfig(pop_size=50), 2000, seed=8)
    pts = np.array([leaf.point.coords for leaf in ar.iter_leaves()])
    assert len(pts) == ev.used
    diffs = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
    np.fill_diagonal(diffs, 1.0)
    assert diffs.min() > 0.0


def test_budget_exactness_and_elitism():
    ev, ar, history = run_generations(rastr_problem(2), GaConfig(pop_size=30), 900, seed=9)
    assert ev.used == 900
    assert ar.n_points == 900
    assert all(b <= a + 1e-15 for a, b in zip(history, history[1:]))


def test_pure_copy_generation_mutates_everything():
    problem = rastr_problem(2)
    config = GaConfig(pop_size=20, crossover_rate=0.0)
    ev = BudgetedEvaluator(problem, 500)
    ar = BspArchive(problem.domain)
    rng = np.random.default_rng(10)
    pop = init_population(config, ar, ev, rng)
    parents = {tuple(p.coords) for p in pop.individuals}
    nxt = ga_step(pop, config, ar, ev, rng)
    for child in nxt.individuals[1:]:  # skip the carried-over elite
        assert tuple(child.coords) not in parents
    assert ev.used == config.pop_size + (config.pop_size - 1)


# -- memory management ---------------------------------------------------------

def grow_archive(problem, n, seed=11):
    ev = BudgetedEvaluator(problem, n + 10)
    ar = BspArchive(problem.domain)
    rng = np.random.default_rng(seed)
    while ar.n_points < n:
        evaluate_via_archive(problem.domain.uniform_point(rng), ar, ev, rng)
    return ar


def test_maybe_prune_below_threshold_is_noop():
    problem = box_problem()
    ar = grow_archive(problem, LRU_CAPACITY - 1)
    maybe_prune(ar)
    assert ar.n_points == LRU_CAPACITY - 1


def test_maybe_prune_at_threshold_halves():
    problem = box_problem()
    ar = grow_archive(problem, LRU_CAPACITY)
    maybe_prune(ar)
    assert ar.n_points == LRU_CAPACITY // 2


def test_run_continues_cleanly_after_pruning(monkeypatch):
    from util import tiling_relative_error
    monkeypatch.setattr("histarch.cnrga.LRU_CAPACITY", 300)
    problem = box_problem()
    config = GaConfig(pop_size=40)
    ev, ar, _ = run_generations(problem, config, 1500, seed=12, lru=True)
    assert ev.used == 1500
    assert ar.n_points <= 300 + config.pop_size
    assert tiling_relative_error(ar) <= 1e-9


def test_config_validation():
    with pytest.raises(ParameterError):
        GaConfig(pop_size=1)
    with pytest.raises(ParameterError):
        GaConfig(crossover_rate=1.5)
