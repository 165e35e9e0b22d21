"""Continuous non-revisiting genetic algorithm.

Exploration is driven purely by uniform gene-exchange crossover, which
never invents a new coordinate value, so duplicates are common; every
candidate is routed through the BSP archive, and a duplicate is replaced
by an adaptive mutation drawn from the revisited leaf's own cell instead
of being re-evaluated. Because crossover copies coordinates, every child
lies in the bounding box of its generation's parents, so each child is
inserted with the parents' subtree (``BspArchive.subtree``), and a
revisit's redraw with the revisited leaf's (``Revisit.cell``); the
archive starts each walk there or, for a point outside that subtree's
box, at the root. Domain redraws and the initial uniform population walk
from the root.
``generations`` is the GA's only loop and ends by itself where
``evaluate_via_archive`` returns None, on a spent budget or a full
archive: the cNrGA baselines drain every generation, and the hybrid
leaves one at the first leaf that fires the ROI query.
``maybe_prune`` halves the archive once it holds LRU_CAPACITY points;
only the cNrGA-LRU baseline's driver calls it, before each generation. The
hybrid's explorer and both cNrGA baselines run the same GA: POP_SIZE and
CROSSOVER_RATE are module constants.
"""

from __future__ import annotations

import numpy as np

from .bsp import BspArchive, Blocked, NewLeaf, SearchPoint, Subtree, uniform_point

MAX_REVISIT_RETRIES = 100
# MAX_REVISIT_RETRIES + MAX_BLOCKED_DRAWS redraws in a row that store
# nothing mean the archive cannot take another point
MAX_BLOCKED_DRAWS = 1000
TOURNAMENT_SIZE = 2
POP_SIZE = 100
# probability that crossover swaps a coordinate between the two offspring
CROSSOVER_RATE = 0.5
# stored-point count at which an LRU prune fires, and the share it removes
LRU_CAPACITY = 10_000
LRU_FRACTION = 0.5


def evaluate_via_archive(coords, archive: BspArchive, evaluator, rng,
                         within: Subtree | None = None) -> NewLeaf | None:
    """Insert, dodge revisits and blocked cells, evaluate exactly once.

    The first insert is given ``within`` (see ``BspArchive.insert``). A
    revisit is replaced by a uniform draw from the revisited leaf's cell,
    inserted with that cell (``Revisit.cell``); after MAX_REVISIT_RETRIES
    consecutive revisits, by a uniform domain draw, as is a blocked
    outcome. Returns the NewLeaf, whose ``node.point`` was evaluated, or
    None, having evaluated and stored nothing, when no evaluation is left
    or when MAX_REVISIT_RETRIES + MAX_BLOCKED_DRAWS redraws in a row
    stored nothing: blocked cells cover the domain, or every free cell is
    too small to split in floating point. ``evaluator`` must be callable
    and expose ``remaining``.
    """
    if evaluator.remaining <= 0:
        return None
    revisit_streak = 0
    for _ in range(MAX_REVISIT_RETRIES + MAX_BLOCKED_DRAWS + 1):
        outcome = archive.insert(coords, within)
        if isinstance(outcome, NewLeaf):
            point = outcome.node.point
            point.fitness = evaluator(point.coords)
            return outcome
        revisit_streak = 0 if isinstance(outcome, Blocked) else revisit_streak + 1
        if 0 < revisit_streak <= MAX_REVISIT_RETRIES:
            within = outcome.cell
            coords = uniform_point(within.lower, within.upper, rng)
        else:
            coords, within = uniform_point(*archive.domain.bounds, rng), None
    return None


def tournament_pick(individuals, rng) -> SearchPoint:
    """Fittest of TOURNAMENT_SIZE draws with replacement; the first drawn
    wins a tie. Scalar draws give the indices and generator state of one
    sized draw (the bit generator buffers 32-bit halves) at lower cost."""
    n = len(individuals)
    best = individuals[rng.integers(0, n)]
    for _ in range(TOURNAMENT_SIZE - 1):
        other = individuals[rng.integers(0, n)]
        if other.fitness < best.fitness:
            best = other
    return best


def crossover_pair(individuals, rng):
    """Two offspring coordinate vectors from tournament parents.

    Each coordinate is swapped between the offspring with probability
    CROSSOVER_RATE, so every gene comes verbatim from one of the parents.
    """
    p1 = tournament_pick(individuals, rng)
    p2 = tournament_pick(individuals, rng)
    swap = rng.random(p1.coords.size) < CROSSOVER_RATE
    return np.where(swap, p2.coords, p1.coords), np.where(swap, p1.coords, p2.coords)


def generations(archive: BspArchive, evaluator, rng):
    """The GA as one lazy iterator of NewLeafs per generation, until it ends.

    The first generation is POP_SIZE uniform domain draws; each later
    one is POP_SIZE - 1 crossover children of the population, whose
    best individual completes the next. Each pair's crossover is drawn
    before either child is evaluated, so a short last pair still consumes
    the RNG for its discarded second child. The population is replaced
    once a generation has all its members: one the caller leaves before
    that is bred again from the same parents (the initial one is drawn
    again), and the points it evaluated stay in the archive.
    The GA ends where ``evaluate_via_archive`` returns None for a drawn
    candidate, on a spent budget or a full archive: no generation follows.
    Children are routed from the subtree of their parents' bounding box,
    taken when the generation is first iterated, so after whatever the
    caller did to the archive between generations.
    """
    ended = False  # a candidate found no budget left or the archive full

    def evaluated(candidates, population, parents):
        nonlocal ended
        within = None
        if parents:
            genes = np.array([p.coords for p in parents])
            within = archive.subtree(genes.min(axis=0), genes.max(axis=0))
        for coords in candidates:
            leaf = evaluate_via_archive(coords, archive, evaluator, rng, within)
            if leaf is None:
                ended = True
                return
            population.append(leaf.node.point)
            yield leaf

    def children_of(parents):
        for left in range(POP_SIZE - 1, 0, -2):
            yield from crossover_pair(parents, rng)[:left]

    parents = []
    # the budget test ends the GA after a generation that completed on the
    # last evaluation and so saw no None: the LRU driver would prune at another
    while evaluator.remaining and not ended:
        if parents:
            population = [min(parents, key=lambda p: p.fitness)]
            candidates = children_of(parents)
        else:
            population = []
            candidates = (uniform_point(*archive.domain.bounds, rng) for _ in range(POP_SIZE))
        yield evaluated(candidates, population, parents)
        if len(population) == POP_SIZE:
            parents = population


def maybe_prune(archive: BspArchive):
    """LRU-prune once the stored-point count reaches LRU_CAPACITY."""
    if archive.n_points >= LRU_CAPACITY:
        archive.prune_lru(LRU_FRACTION)
