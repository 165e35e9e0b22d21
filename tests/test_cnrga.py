import numpy as np
import pytest

from histarch import (BspArchive, NewLeaf, Region, Revisit, SearchPoint,
                      evaluate_via_archive, generations, maybe_prune, run_algorithm)
from histarch.benchmarks import BudgetedEvaluator, Problem, rastrigin, sphere
from histarch.cnrga import (LRU_CAPACITY, MAX_BLOCKED_DRAWS, MAX_REVISIT_RETRIES, crossover_pair,
                            tournament_pick)
from histarch.hr import run_cnrga
from util import (LoggingProblem, RootWalkArchive, ScriptedRng, record_digest,
                  ref_crossover_pair, ref_tournament_pick, same_rng_state, spy_on_parents,
                  spy_on_prunes, subtree_of, tiling_relative_error, uniform_array,
                  walk_region)


def box_problem(dim=2, lo=0.0, hi=10.0, f=sphere, name="box"):
    return Problem(name, Region(np.full(dim, lo), np.full(dim, hi)), f, 0.0,
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
    cell = Region(*walk_region(ar, ar.root.below))  # leaf currently holding (2, 5)
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
    ar.block(subtree_of(ar, ar.root.below))  # left half x < 5
    for _ in range(10_000):
        coords = np.array([rng.uniform(0.0, 5.0), rng.uniform(0.0, 10.0)])
        point = evaluate_via_archive(coords, ar, ev, rng).node.point
        assert point.coords[0] >= 5.0


def _archive_state(ar, ev):
    return ar.n_points, ar._clock, ar.dump(), ev.used


def test_whole_domain_blocked_signals_exhaustion():
    problem = box_problem()
    ev = BudgetedEvaluator(problem, 10)
    ar = BspArchive(problem.domain)
    rng = np.random.default_rng(3)
    evaluate_via_archive(np.array([2.0, 5.0]), ar, ev, rng)
    ar.block(subtree_of(ar, ar.root))
    n_points, clock, dump, used = _archive_state(ar, ev)
    assert evaluate_via_archive(np.array([1.0, 1.0]), ar, ev, rng) is None
    # each of the 1 + MAX_REVISIT_RETRIES + MAX_BLOCKED_DRAWS inserts ticks
    # the LRU clock, as every walk stamps the node it ends at
    assert _archive_state(ar, ev) == (n_points, clock + 1 + MAX_REVISIT_RETRIES
                                      + MAX_BLOCKED_DRAWS, dump, used)


def test_no_budget_left_ends_before_any_insert():
    problem = box_problem()
    ev = BudgetedEvaluator(problem, 2)
    ar = BspArchive(problem.domain)
    rng = np.random.default_rng(3)
    evaluate_via_archive(np.array([2.0, 5.0]), ar, ev, rng)
    evaluate_via_archive(np.array([8.0, 6.0]), ar, ev, rng)
    before, state = rng.bit_generator.state, _archive_state(ar, ev)
    assert evaluate_via_archive(np.array([1.0, 1.0]), ar, ev, rng) is None
    assert _archive_state(ar, ev) == state and rng.bit_generator.state == before


def test_revisit_cascade_falls_back_to_domain_sample():
    problem = box_problem()
    ev = BudgetedEvaluator(problem, 10)
    ar = BspArchive(problem.domain)
    real = np.random.default_rng(4)
    evaluate_via_archive(np.array([2.0, 5.0]), ar, ev, real)
    # every draw maps to 10 * (0.2, 0.5) == (2, 5) in the one-leaf cell [0, 10]^2
    rigged = ScriptedRng([0.2, 0.5], n=150)
    point = evaluate_via_archive(np.array([2.0, 5.0]), ar, ev, rigged).node.point
    assert ev.used == 2
    assert np.abs(point.coords - np.array([2.0, 5.0])).max() > 0


# -- crossover -------------------------------------------------------------

def _toy_population(coords_list):
    pts = []
    for i, c in enumerate(coords_list):
        pts.append(SearchPoint(np.asarray(c, dtype=float), float(i), i))
    return pts


def test_zero_crossover_rate_copies_parents(monkeypatch):
    monkeypatch.setattr("histarch.cnrga.CROSSOVER_RATE", 0.0)
    pop = _toy_population([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    rng = np.random.default_rng(5)
    for _ in range(20):
        c1, c2 = crossover_pair(pop, rng)
        assert any(np.array_equal(c1, p.coords) for p in pop)
        assert any(np.array_equal(c2, p.coords) for p in pop)


def test_full_crossover_rate_swaps_whole_genomes(monkeypatch):
    monkeypatch.setattr("histarch.cnrga.CROSSOVER_RATE", 1.0)
    pop = _toy_population([[1.0, 2.0], [3.0, 4.0]])
    rng = np.random.default_rng(6)
    c1, c2 = crossover_pair(pop, rng)
    mats = {tuple(c1), tuple(c2)}
    assert mats <= {(1.0, 2.0), (3.0, 4.0)}


def test_gene_conservation_under_crossover():
    rng = np.random.default_rng(7)
    pop = _toy_population(rng.uniform(0, 10, size=(6, 4)))
    for _ in range(50):
        c1, c2 = crossover_pair(pop, rng)
        pool = {(d, p.coords[d]) for p in pop for d in range(4)}
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
    pop = _TiedPoints(n)
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
def test_crossover_pair_matches_reference(rate, monkeypatch):
    monkeypatch.setattr("histarch.cnrga.CROSSOVER_RATE", rate)
    rng = np.random.default_rng(8)
    pop = _toy_population(rng.uniform(-5.0, 5.0, size=(20, 10)))
    for point in pop:
        point.fitness = float(point.eval_index % 3)
    fast, ref = np.random.default_rng(9), np.random.default_rng(9)
    for _ in range(300):
        for child, expected in zip(crossover_pair(pop, fast), ref_crossover_pair(pop, rate, ref)):
            assert child.tobytes() == expected.tobytes()
    assert same_rng_state(fast, ref)


# -- generation loop ---------------------------------------------------------

def run_generations(problem, budget, seed):
    """Drain ``generations`` to the end of the budget; also returns the new
    points of each generation."""
    ev = BudgetedEvaluator(problem, budget)
    ar = BspArchive(problem.domain)
    rng = np.random.default_rng(seed)
    completed = [[leaf.node.point for leaf in leaves] for leaves in generations(ar, ev, rng)]
    return ev, ar, completed


def rastr_problem(dim):
    return Problem("rastrigin", Region(np.full(dim, -5.12), np.full(dim, 5.12)),
                   rastrigin, 0.0, "multimodal", np.zeros(dim))


def test_no_duplicate_evaluations_over_run(monkeypatch):
    monkeypatch.setattr("histarch.cnrga.POP_SIZE", 50)
    logger = LoggingProblem(rastr_problem(2))
    rec = run_algorithm(logger.build(), "cnrga", 2000, np.random.default_rng(8))
    pts = np.array([x for x, _ in logger.log])
    assert len(pts) == rec.evals_used == 2000
    diffs = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2)
    np.fill_diagonal(diffs, 1.0)
    assert diffs.min() > 0.0


def test_budget_exactness_and_elitism(monkeypatch):
    bred = spy_on_parents(monkeypatch)
    monkeypatch.setattr("histarch.cnrga.POP_SIZE", 30)
    ev, ar, completed = run_generations(rastr_problem(2), 900, seed=9)
    assert ev.used == 900
    assert ar.n_points == 900
    # 30 initial draws, then 30 generations of 29 children; the budget is
    # spent with the last of them, so no 31st generation draws a pair
    assert [len(new) for new in completed] == [30] + [29] * 30
    populations = [pop for pop, _ in bred]
    assert len(populations) == 30
    assert [id(p) for p in populations[0]] == [id(p) for p in completed[0]]
    # each population is the elite of the previous one, then its children
    for parents, pop, new in zip(populations, populations[1:], completed[1:]):
        assert pop[0] is min(parents, key=lambda p: p.fitness)
        assert [id(p) for p in pop[1:]] == [id(p) for p in new]
    history = [min(p.fitness for p in pop) for pop in populations]
    assert all(b <= a for a, b in zip(history, history[1:]))


def test_pure_copy_generation_mutates_everything(monkeypatch):
    monkeypatch.setattr("histarch.cnrga.POP_SIZE", 20)
    monkeypatch.setattr("histarch.cnrga.CROSSOVER_RATE", 0.0)
    problem = rastr_problem(2)
    ev = BudgetedEvaluator(problem, 500)
    ar = BspArchive(problem.domain)
    rng = np.random.default_rng(10)
    gens = generations(ar, ev, rng)
    parents = {tuple(leaf.node.point.coords) for leaf in next(gens)}
    children = [leaf.node.point for leaf in next(gens)]  # the elite is not yielded again
    assert len(children) == 19
    for child in children:
        assert tuple(child.coords) not in parents
    assert ev.used == 20 + 19


def test_unfinished_generation_is_bred_again(monkeypatch):
    bred = spy_on_parents(monkeypatch)
    monkeypatch.setattr("histarch.cnrga.POP_SIZE", 20)
    problem = rastr_problem(2)
    ev = BudgetedEvaluator(problem, 500)
    ar = BspArchive(problem.domain)
    gens = generations(ar, ev, np.random.default_rng(13))
    # an unfinished initial population is drawn again in full
    abandoned = [leaf.node.point for _, leaf in zip(range(7), next(gens))]
    initial = [leaf.node.point for leaf in next(gens)]
    assert len(abandoned) == 7 and len(initial) == 20
    assert ev.used == ar.n_points == 27
    # an unfinished crossover generation is bred again from the same parents
    for _, _ in zip(range(5), next(gens)):
        pass
    children = [leaf.node.point for leaf in next(gens)]
    assert len(children) == 19
    assert ev.used == ar.n_points == 27 + 5 + 19
    # a generation left after its last child, but not drained, is complete
    last = [leaf.node.point for _, leaf in zip(range(19), next(gens))]
    next(next(gens))
    assert [len(pop) for pop, _ in bred] == [20, 20, 20]
    assert [id(p) for p in bred[0][0]] == [id(p) for p in initial]
    assert bred[0][1] == 3 + 20 // 2  # three pairs for five children
    for (parents, _), (pop, _), new in zip(bred, bred[1:], (children, last)):
        assert pop[0] is min(parents, key=lambda p: p.fitness)
        assert [id(p) for p in pop[1:]] == [id(p) for p in new]


@pytest.mark.parametrize("algo", ["cnrga", "cnrga_lru", "hr"])
def test_children_from_parents_subtree_match_root_walks(algo, monkeypatch):
    # 4 000 evaluations store 4 000 points, so cnrga_lru's archive is
    # pruned several times and subtrees are taken across prunes. Both GA
    # children (from their parents' subtree) and revisit redraws (from the
    # revisited leaf) start below the root.
    monkeypatch.setattr("histarch.cnrga.LRU_CAPACITY", 1000)
    starts = []  # (depth, whether the walk redraws from the last Revisit's cell)
    last_cell = [None]
    insert = BspArchive.insert

    def spy(archive, coords, within=None):
        if within is not None:
            starts.append((within.depth, within is last_cell[0]))
        outcome = insert(archive, coords, within)
        last_cell[0] = outcome.cell if isinstance(outcome, Revisit) else None
        return outcome

    monkeypatch.setattr(BspArchive, "insert", spy)
    fast = run_algorithm(rastr_problem(10), algo, 4000, np.random.default_rng(3),
                         dump_tree=True)
    monkeypatch.setattr("histarch.hr.BspArchive", RootWalkArchive)
    n_started = len(starts)
    ref = run_algorithm(rastr_problem(10), algo, 4000, np.random.default_rng(3),
                        dump_tree=True)
    assert len(starts) == n_started  # the reference never used a subtree
    assert max(depth for depth, _ in starts) > 0
    assert {redraw for _, redraw in starts} == {True, False}
    assert fast.tree_dump is not None
    assert fast == ref
    assert record_digest(fast) == record_digest(ref)


@pytest.mark.parametrize("algo", ["cnrga", "hr"])
def test_inserts_given_a_subtree_start_at_its_node(algo, monkeypatch):
    # A point whose walk from the root passes through the subtree's node
    # lies in the subtree's box, so insert starts at that node. The only
    # points that walk from the root are revisit redraws that rounded onto
    # an upper face of the leaf's cell that a split set.
    starts = []  # (point's root walk passes the node, given the last Revisit's cell)
    last_cell = [None]
    insert = BspArchive.insert

    def spy(archive, coords, within=None):
        if within is not None:
            x = np.asarray(coords, dtype=float).tolist()
            node = archive.root
            while node is not within.node and node.below is not None:
                node = node.below if x[node.split_dim] < node.split_value else node.above
            passes, redraw = node is within.node, within is last_cell[0]
            in_box = all(lo <= v <= hi for lo, v, hi in zip(within.lower, x, within.box_upper))
            assert in_box == passes
            if not passes:
                assert redraw
                assert any(v == hi < top for v, hi, top in
                           zip(x, within.upper, archive.domain.bounds[1]))
            starts.append((passes, redraw))
        outcome = insert(archive, coords, within)
        last_cell[0] = outcome.cell if isinstance(outcome, Revisit) else None
        return outcome

    monkeypatch.setattr(BspArchive, "insert", spy)
    run_algorithm(rastr_problem(10), algo, 4000, np.random.default_rng(3))
    assert {redraw for _, redraw in starts} == {True, False}


# -- memory management ---------------------------------------------------------

def grow_archive(problem, n, seed=11):
    ev = BudgetedEvaluator(problem, n + 10)
    ar = BspArchive(problem.domain)
    rng = np.random.default_rng(seed)
    while ar.n_points < n:
        evaluate_via_archive(uniform_array(problem.domain, rng), ar, ev, rng)
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
    monkeypatch.setattr("histarch.cnrga.LRU_CAPACITY", 300)
    monkeypatch.setattr("histarch.cnrga.POP_SIZE", 40)
    prunes = spy_on_prunes(monkeypatch)
    rec = run_cnrga(box_problem(), 1500, np.random.default_rng(12), lru=True)
    assert rec.evals_used == 1500
    archive, _ = prunes[-1]
    assert all(n_points <= 300 for _, n_points in prunes)
    assert archive.n_points <= 300 + 40
    assert tiling_relative_error(archive) <= 1e-9
