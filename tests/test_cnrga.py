import itertools

import numpy as np
import pytest

from histarch import (BspArchive, NewLeaf, Region, Revisit, SearchPoint, generations,
                      maybe_prune, run_algorithm, store_via_archive, uniform_point)
from histarch.benchmarks import BudgetedEvaluator, Problem, rastrigin, sphere
from histarch.cmaes import cma_run
from histarch.cnrga import LRU_CAPACITY, crossover_pair, tournament_pick
from histarch.hr import run_cnrga
from util import (LoggingProblem, RootWalkArchive, ScriptedRng, record_digest,
                  ref_crossover_pair, ref_tournament_pick, same_rng_state, spy_on_parents,
                  spy_on_prunes, subtree_of, tiling_relative_error, uniform_array,
                  walk_region)


def box_problem(dim=2, lo=0.0, hi=10.0, f=sphere, name="box"):
    return Problem(name, Region(np.full(dim, lo), np.full(dim, hi)), f, 0.0,
                   "unimodal", np.zeros(dim))


def test_fresh_archive_stores_at_the_root_unevaluated():
    problem = box_problem()
    ar = BspArchive(problem.domain)
    rng = np.random.default_rng(0)
    leaf = store_via_archive(np.array([3.0, 4.0]), ar, rng)
    assert isinstance(leaf, NewLeaf) and leaf.node is ar.root and leaf.depth == 0
    point = leaf.node.point
    assert ar.n_points == 1
    assert np.isnan(point.fitness)
    assert np.array_equal(point.coords, [3.0, 4.0])


def test_duplicate_is_replaced_by_mutant_in_leaf_cell():
    problem = box_problem()
    ar = BspArchive(problem.domain)
    rng = np.random.default_rng(1)
    store_via_archive(np.array([2.0, 5.0]), ar, rng)
    store_via_archive(np.array([8.0, 6.0]), ar, rng)
    cell = Region(*walk_region(ar, ar.root.below))  # leaf currently holding (2, 5)
    point = store_via_archive(np.array([2.0, 5.0]), ar, rng).node.point
    assert ar.n_points == 3  # one stored point despite the revisit
    assert np.abs(point.coords - np.array([2.0, 5.0])).max() > 0
    assert cell.contains(point.coords)


def test_blocked_half_redirects_everything_right():
    problem = box_problem()
    ar = BspArchive(problem.domain)
    rng = np.random.default_rng(2)
    store_via_archive(np.array([2.0, 5.0]), ar, rng)
    store_via_archive(np.array([8.0, 6.0]), ar, rng)
    ar.block(subtree_of(ar, ar.root.below))  # left half x < 5
    for _ in range(10_000):
        coords = np.array([rng.uniform(0.0, 5.0), rng.uniform(0.0, 10.0)])
        point = store_via_archive(coords, ar, rng).node.point
        assert point.coords[0] >= 5.0


def _archive_state(ar):
    return ar.n_points, ar._clock, ar.dump()


def test_whole_domain_blocked_signals_exhaustion():
    problem = box_problem()
    ar = BspArchive(problem.domain)
    rng = np.random.default_rng(3)
    store_via_archive(np.array([2.0, 5.0]), ar, rng)
    ar.block(subtree_of(ar, ar.root))
    state = _archive_state(ar)
    assert store_via_archive(np.array([1.0, 1.0]), ar, rng) is None
    # none of the 1 + MAX_REVISIT_RETRIES + MAX_BLOCKED_DRAWS Blocked inserts
    # ticks the LRU clock or stamps a node
    assert _archive_state(ar) == state


ENDED = object()  # what ``LeaveAt.run`` returns when the GA ends instead of pausing


class LeaveAt:
    """A ``stop`` for ``generations`` that records the points the running
    generation stores, each still unevaluated, and ends that generation at
    its ``leave_at``-th leaf when ``leave_at`` is set."""

    def __init__(self):
        self.points, self.leave_at = [], None

    def __call__(self, leaf):
        assert np.isnan(leaf.node.point.fitness)
        self.points.append(leaf.node.point)
        return len(self.points) == self.leave_at

    def run(self, gens, leave_at=None):
        """Run ``gens`` to its next pause: what it yields, or ENDED when the
        GA ends instead, and the points of the generation that ran."""
        self.points, self.leave_at = [], leave_at
        return next(gens, ENDED), self.points


def test_no_budget_left_ends_before_any_insert(monkeypatch):
    monkeypatch.setattr("histarch.cnrga.POP_SIZE", 5)
    problem = box_problem()
    ev = BudgetedEvaluator(problem, 2)
    ar = BspArchive(problem.domain)
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    stop = LeaveAt()
    # the third candidate is drawn, meets the two stored points, which equal
    # the evaluations left, and ends the GA before its insert: it never pauses
    assert stop.run(generations(ar, ev, rng, stop))[0] is ENDED
    drawn = [uniform_point(*problem.domain.bounds, ref) for _ in range(3)]
    assert [p.coords.tolist() for p in stop.points] == drawn[:2]
    assert ev.used == ar.n_points == ar._clock == 2
    assert same_rng_state(rng, ref)


def test_revisit_cascade_falls_back_to_domain_sample():
    problem = box_problem()
    ar = BspArchive(problem.domain)
    real = np.random.default_rng(4)
    store_via_archive(np.array([2.0, 5.0]), ar, real)
    # every draw maps to 10 * (0.2, 0.5) == (2, 5) in the one-leaf cell [0, 10]^2
    rigged = ScriptedRng([0.2, 0.5], n=150)
    point = store_via_archive(np.array([2.0, 5.0]), ar, rigged).node.point
    assert ar.n_points == 2
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
    """Run ``generations`` to the end of the budget; also returns the new
    points of each generation."""
    ev = BudgetedEvaluator(problem, budget)
    ar = BspArchive(problem.domain)
    stop = LeaveAt()
    gens = generations(ar, ev, np.random.default_rng(seed), stop)
    completed = []
    while stop.run(gens)[0] is None:
        completed.append(stop.points)
    return ev, ar, completed + [stop.points]


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
    stop = LeaveAt()
    gens = generations(ar, ev, np.random.default_rng(10), stop)
    parents = {tuple(p.coords) for p in stop.run(gens)[1]}
    children = stop.run(gens)[1]  # the elite is not stored again
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
    stop = LeaveAt()
    gens = generations(ar, ev, np.random.default_rng(13), stop)
    # an unfinished initial population is drawn again in full; the GA
    # evaluates the points of the generation left before it pauses
    assert stop.run(gens, leave_at=7)[0] is True
    abandoned = stop.points
    assert ev.used == ar.n_points == 7
    assert not any(np.isnan(p.fitness) for p in abandoned)
    assert stop.run(gens)[0] is None
    initial = stop.points
    assert len(abandoned) == 7 and len(initial) == 20
    assert ev.used == ar.n_points == 27
    # an unfinished crossover generation is bred again from the same parents
    assert stop.run(gens, leave_at=5)[0] is True
    assert ev.used == ar.n_points == 27 + 5
    children = stop.run(gens)[1]
    assert len(children) == 19
    assert ev.used == ar.n_points == 27 + 5 + 19
    # a generation left at its last child is complete
    last = stop.run(gens, leave_at=19)[1]
    stop.run(gens, leave_at=1)
    assert [len(pop) for pop, _ in bred] == [20, 20, 20]
    assert [id(p) for p in bred[0][0]] == [id(p) for p in initial]
    assert bred[0][1] == 3 + 20 // 2  # three pairs for five children
    for (parents, _), (pop, _), new in zip(bred, bred[1:], (children, last)):
        assert pop[0] is min(parents, key=lambda p: p.fitness)
        assert [id(p) for p in pop[1:]] == [id(p) for p in new]


def unevaluated(archive):
    return sum(np.isnan(leaf.point.fitness) for leaf in archive.iter_leaves())


def test_each_generation_is_one_objective_call_in_insertion_order(monkeypatch):
    monkeypatch.setattr("histarch.cnrga.POP_SIZE", 10)
    blocks = []

    def f(x):
        blocks.append(np.array(x, dtype=float))
        return rastrigin(x)

    problem = Problem("counting", rastr_problem(2).domain, f, 0.0, "multimodal")
    ev, ar, completed = run_generations(problem, 95, seed=14)
    # 10 initial draws, nine generations of 9 children, and 4 of a tenth
    assert [len(block) for block in blocks] == [len(new) for new in completed]
    assert [len(new) for new in completed] == [10] + [9] * 9 + [4]
    for block, new in zip(blocks, completed):
        assert block.tobytes() == np.array([p.coords for p in new]).tobytes()
        assert [p.fitness for p in new] == rastrigin(block).tolist()
    assert ev.used == ar.n_points == 95


def test_generation_meeting_the_budget_stores_exactly_the_remaining_points(monkeypatch):
    monkeypatch.setattr("histarch.cnrga.POP_SIZE", 10)
    problem = rastr_problem(2)
    ev = BudgetedEvaluator(problem, 16)
    ar = BspArchive(problem.domain)
    stop = LeaveAt()
    gens = generations(ar, ev, np.random.default_rng(15), stop)
    assert len(stop.run(gens)[1]) == 10
    ev.evaluate_batch(np.zeros((3, 2)))  # spent elsewhere, as CMA-ES spends
    paused, children = stop.run(gens)
    assert len(children) == ev.budget - 10 - 3
    assert ev.remaining == 0 and ar.n_points == 13
    assert unevaluated(ar) == 0
    assert paused is ENDED


def test_every_generation_is_evaluated_before_the_next(monkeypatch):
    monkeypatch.setattr("histarch.cnrga.POP_SIZE", 10)
    problem = rastr_problem(2)
    ev = BudgetedEvaluator(problem, 300)
    ar = BspArchive(problem.domain)
    stop = LeaveAt()
    gens = generations(ar, ev, np.random.default_rng(16), stop)
    for i in itertools.count():
        # the generation ends at its (3 + i % 9)-th leaf or, with fewer
        # members, completes; either way it is evaluated before the pause
        paused, points = stop.run(gens, leave_at=3 + i % 9)
        if paused is ENDED:
            break
        assert paused is (True if len(points) == 3 + i % 9 else None)
        assert ev.used == ar.n_points and unevaluated(ar) == 0
    assert i > 30
    assert ev.used == ar.n_points == 300 and unevaluated(ar) == 0


def test_a_generation_left_full_is_evaluated_before_the_budget_test_and_the_elite(
        monkeypatch):
    bred = spy_on_parents(monkeypatch)
    monkeypatch.setattr("histarch.cnrga.POP_SIZE", 10)
    problem = rastr_problem(2)
    ev = BudgetedEvaluator(problem, 10 + 9 + 9)
    ar = BspArchive(problem.domain)
    stop = LeaveAt()
    gens = generations(ar, ev, np.random.default_rng(19), stop)
    # ``stop`` ends each generation at its last member; the last one spends
    # the budget, so the GA ends without a pause
    for size, paused in ((10, True), (9, True), (9, ENDED)):
        assert stop.run(gens, leave_at=size)[0] is paused
        assert len(stop.points) == size
    assert ev.used == ar.n_points == 28 and unevaluated(ar) == 0
    (initial, _), (second, _) = bred
    assert second[0] is min(initial, key=lambda p: p.fitness) is not initial[0]


def test_hr_evaluates_the_generation_it_leaves_before_cma_es(monkeypatch):
    archives, checked, exploited = [], [], [0]

    class Recorded(BspArchive):
        def __init__(self, domain):
            super().__init__(domain)
            archives.append(self)

    def spy(state, evaluator, rng):
        (ar,) = archives
        checked.append((evaluator.used - exploited[0], ar.n_points, unevaluated(ar)))
        used = evaluator.used
        reason = cma_run(state, evaluator, rng)
        exploited[0] += evaluator.used - used
        return reason

    monkeypatch.setattr("histarch.hr.BspArchive", Recorded)
    monkeypatch.setattr("histarch.hr.cma_run", spy)
    rec = run_algorithm(rastr_problem(10), "hr", 4000, np.random.default_rng(3))
    assert len(checked) == sum(p.kind == "exploit" for p in rec.phases) > 0
    assert all(explored == n_points and nan == 0 for explored, n_points, nan in checked)


def test_generation_filling_the_archive_is_evaluated_before_the_ga_ends(monkeypatch):
    monkeypatch.setattr("histarch.cnrga.POP_SIZE", 10)
    # [1e15, 1e15 + 1] holds 9 floats per axis, so few points fill the archive
    problem = box_problem(lo=1e15, hi=1e15 + 1.0)
    ev, ar, completed = run_generations(problem, 1000, seed=17)
    assert ev.remaining > 0
    assert 0 < len(completed[-1]) < 9  # ended mid-way, on a full archive
    assert ev.used == ar.n_points == sum(map(len, completed))
    assert unevaluated(ar) == 0


class _ObjectiveFailure(Exception):
    pass


def test_objective_that_raises_leaves_its_generation_stored_unevaluated(monkeypatch):
    monkeypatch.setattr("histarch.cnrga.POP_SIZE", 10)
    blocks = [0]

    def f(x):
        blocks[0] += 1
        if blocks[0] == 2:
            raise _ObjectiveFailure
        return rastrigin(x)

    problem = Problem("raising", rastr_problem(2).domain, f, 0.0, "multimodal")
    ev = BudgetedEvaluator(problem, 100)
    ar = BspArchive(problem.domain)
    with pytest.raises(_ObjectiveFailure):
        for _ in generations(ar, ev, np.random.default_rng(18)):
            pass
    # the second generation's 9 children stay stored, none of them counted
    assert ev.used == 10 and ar.n_points == 19
    assert unevaluated(ar) == 9


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
    # A point takes the subtree start exactly when it lies in the half-open
    # cell [lower, upper). A point whose root walk passes the node without
    # that lies on a top face of the domain; this run has none. The only
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
            in_cell = all(lo <= v < hi for lo, v, hi in zip(within.lower, x, within.upper))
            assert in_cell == passes
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
    ar = BspArchive(problem.domain)
    rng = np.random.default_rng(seed)
    while ar.n_points < n:
        store_via_archive(uniform_array(problem.domain, rng), ar, rng)
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
