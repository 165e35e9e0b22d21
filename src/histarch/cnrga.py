"""Continuous non-revisiting genetic algorithm.

Exploration is driven purely by uniform gene-exchange crossover, which
never invents a new coordinate value, so duplicates are common; every
candidate is routed through the BSP archive, and a duplicate is replaced
by an adaptive mutation drawn from the revisited leaf's own cell instead
of being re-evaluated. ``generations`` is the GA's only loop: the cNrGA
baselines drain every generation, and the hybrid leaves one at the first
leaf that fires the ROI query. ``maybe_prune`` halves the archive once it
holds LRU_CAPACITY points; only the cNrGA-LRU baseline's driver calls it,
between generations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsp import BspArchive, Blocked, NewLeaf, SearchPoint
from .errors import BudgetExhaustedError, ParameterError, SearchSpaceExhaustedError

MAX_REVISIT_RETRIES = 100
# MAX_REVISIT_RETRIES + MAX_BLOCKED_DRAWS redraws in a row that store
# nothing mean the archive cannot take another point
MAX_BLOCKED_DRAWS = 1000
TOURNAMENT_SIZE = 2
# stored-point count at which an LRU prune fires, and the share it removes
LRU_CAPACITY = 10_000
LRU_FRACTION = 0.5


@dataclass
class GaConfig:
    pop_size: int = 100
    crossover_rate: float = 0.5

    def __post_init__(self):
        if self.pop_size < 2:
            raise ParameterError("pop_size must be >= 2")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ParameterError("crossover_rate must lie in [0, 1]")


def evaluate_via_archive(coords, archive: BspArchive, evaluator, rng) -> NewLeaf:
    """Insert, dodge revisits and blocked cells, evaluate exactly once.

    A revisit is replaced by a uniform draw from the revisited leaf's
    cell (after MAX_REVISIT_RETRIES consecutive revisits, a uniform domain
    draw). A blocked outcome is replaced by a uniform domain draw, which
    goes back through the archive. A streak of MAX_REVISIT_RETRIES +
    MAX_BLOCKED_DRAWS redraws that store nothing means the archive cannot
    take another point (blocked cells cover the domain, or every free cell
    is too small to split in floating point), which aborts the search.
    ``evaluator`` must be callable and expose ``remaining``. Returns the
    NewLeaf; the evaluated point is ``leaf.node.point``.
    """
    if evaluator.remaining <= 0:
        raise BudgetExhaustedError("no evaluations left")
    coords = np.asarray(coords, dtype=float)
    revisit_streak = 0
    for _ in range(MAX_REVISIT_RETRIES + MAX_BLOCKED_DRAWS + 1):
        outcome = archive.insert(coords)
        if isinstance(outcome, NewLeaf):
            point = outcome.node.point
            point.fitness = evaluator(point.coords)
            return outcome
        if isinstance(outcome, Blocked):
            revisit_streak = 0
            coords = archive.domain.uniform_point(rng)
            continue
        revisit_streak += 1
        if revisit_streak > MAX_REVISIT_RETRIES:
            coords = archive.domain.uniform_point(rng)
        else:
            coords = archive.mutation_region(outcome.leaf).uniform_point(rng)
    raise SearchSpaceExhaustedError(
        f"{MAX_REVISIT_RETRIES + MAX_BLOCKED_DRAWS} consecutive redraws stored no point")


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


def crossover_pair(individuals, config: GaConfig, rng):
    """Two offspring coordinate vectors from tournament parents.

    Each coordinate is swapped between the offspring with probability
    crossover_rate, so every gene comes verbatim from one of the parents.
    """
    p1 = tournament_pick(individuals, rng)
    p2 = tournament_pick(individuals, rng)
    swap = rng.random(p1.coords.size) < config.crossover_rate
    return np.where(swap, p2.coords, p1.coords), np.where(swap, p1.coords, p2.coords)


def generations(config: GaConfig, archive: BspArchive, evaluator, rng):
    """The GA as one lazy iterator of NewLeafs per generation, forever.

    The first generation is ``pop_size`` uniform domain draws; each later
    one is ``pop_size - 1`` crossover children of the population, whose
    best individual completes the next. Each pair's crossover is drawn
    before either child is evaluated, so a short last pair still consumes
    the RNG for its discarded second child. The population is replaced
    once a generation has all its members: one the caller leaves before
    that is bred again from the same parents (the initial one is drawn
    again), and the points it evaluated stay in the archive.
    ``BudgetExhaustedError`` ends the GA.
    """
    def evaluated(candidates, population):
        for coords in candidates:
            leaf = evaluate_via_archive(coords, archive, evaluator, rng)
            population.append(leaf.node.point)
            yield leaf

    def children_of(parents):
        for left in range(config.pop_size - 1, 0, -2):
            yield from crossover_pair(parents, config, rng)[:left]

    parents = []
    while True:
        if parents:
            population = [min(parents, key=lambda p: p.fitness)]
            candidates = children_of(parents)
        else:
            population = []
            candidates = (archive.domain.uniform_point(rng) for _ in range(config.pop_size))
        yield evaluated(candidates, population)
        if len(population) == config.pop_size:
            parents = population


def maybe_prune(archive: BspArchive):
    """LRU-prune once the stored-point count reaches LRU_CAPACITY."""
    if archive.n_points >= LRU_CAPACITY:
        archive.prune_lru(LRU_FRACTION)
