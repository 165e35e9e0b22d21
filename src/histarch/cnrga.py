"""Continuous non-revisiting genetic algorithm.

Exploration is driven purely by uniform gene-exchange crossover, which
never invents a new coordinate value, so duplicates are common; every
candidate is routed through the BSP archive, and a duplicate is replaced
by an adaptive mutation drawn from the revisited leaf's own cell instead
of being re-evaluated. ``maybe_prune`` halves the archive once it holds
LRU_CAPACITY points; only the cNrGA-LRU baseline's driver calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsp import BspArchive, Blocked, NewLeaf, SearchPoint
from .errors import BudgetExhaustedError, ParameterError, SearchSpaceExhaustedError

MAX_REVISIT_RETRIES = 100
# consecutive blocked domain draws that count as a fully blocked domain
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


@dataclass
class GaPopulation:
    individuals: list[SearchPoint]
    generation: int = 0

    def best(self) -> SearchPoint:
        return min(self.individuals, key=lambda p: p.fitness)


def evaluate_via_archive(coords, archive: BspArchive, evaluator, rng) -> NewLeaf:
    """Insert, dodge revisits and blocked cells, evaluate exactly once.

    A revisit is replaced by a uniform draw from the revisited leaf's
    cell (after MAX_REVISIT_RETRIES consecutive revisits, a uniform domain
    draw). A blocked outcome is replaced by a uniform domain draw, which
    goes back through the archive; MAX_BLOCKED_DRAWS consecutive blocked
    draws mean the blocked cells cover the domain, which aborts the
    search. ``evaluator`` must be callable and expose ``remaining``. Returns
    the NewLeaf; the evaluated point is ``leaf.node.point``.
    """
    if evaluator.remaining <= 0:
        raise BudgetExhaustedError("no evaluations left")
    coords = np.asarray(coords, dtype=float)
    revisit_streak = blocked_streak = 0
    while True:
        outcome = archive.insert(coords)
        if isinstance(outcome, NewLeaf):
            point = outcome.node.point
            point.fitness = evaluator(point.coords)
            return outcome
        if isinstance(outcome, Blocked):
            # a streak opens with one blocked point; the rest are domain draws
            blocked_streak += 1
            if blocked_streak > MAX_BLOCKED_DRAWS:
                raise SearchSpaceExhaustedError(
                    f"{MAX_BLOCKED_DRAWS} consecutive draws landed in blocked regions")
            revisit_streak = 0
            coords = archive.domain.uniform_point(rng)
            continue
        blocked_streak = 0
        revisit_streak += 1
        if revisit_streak > MAX_REVISIT_RETRIES:
            coords = archive.domain.uniform_point(rng)
        else:
            coords = archive.mutation_region(outcome.leaf).uniform_point(rng)


def tournament_pick(pop: GaPopulation, rng) -> SearchPoint:
    """Fittest of TOURNAMENT_SIZE draws with replacement; the first drawn
    wins a tie. Scalar draws give the indices and generator state of one
    sized draw (the bit generator buffers 32-bit halves) at lower cost."""
    individuals = pop.individuals
    n = len(individuals)
    best = individuals[rng.integers(0, n)]
    for _ in range(TOURNAMENT_SIZE - 1):
        other = individuals[rng.integers(0, n)]
        if other.fitness < best.fitness:
            best = other
    return best


def crossover_pair(pop: GaPopulation, config: GaConfig, rng):
    """Two offspring coordinate vectors from tournament parents.

    Each coordinate is swapped between the offspring with probability
    crossover_rate, so every gene comes verbatim from one of the parents.
    """
    p1 = tournament_pick(pop, rng)
    p2 = tournament_pick(pop, rng)
    swap = rng.random(p1.coords.size) < config.crossover_rate
    return np.where(swap, p2.coords, p1.coords), np.where(swap, p1.coords, p2.coords)


def initial_leaves(config: GaConfig, archive: BspArchive, evaluator, rng):
    """``pop_size`` uniform domain draws routed through the archive, lazily."""
    for _ in range(config.pop_size):
        yield evaluate_via_archive(archive.domain.uniform_point(rng), archive, evaluator, rng)


def init_population(config: GaConfig, archive: BspArchive, evaluator, rng) -> GaPopulation:
    leaves = initial_leaves(config, archive, evaluator, rng)
    return GaPopulation([leaf.node.point for leaf in leaves], 0)


def offspring(pop: GaPopulation, config: GaConfig, archive: BspArchive,
              evaluator, rng):
    """One generation's ``pop_size - 1`` crossover children as NewLeafs,
    lazily; the elite ``pop.best()`` completes the generation.

    Each pair's crossover is drawn before either child is evaluated, so a
    short last pair still consumes the RNG for its discarded second child.
    A caller that stops iterating early evaluates nothing further.
    """
    left = config.pop_size - 1
    while left > 0:
        for coords in crossover_pair(pop, config, rng)[:left]:
            yield evaluate_via_archive(coords, archive, evaluator, rng)
        left -= 2


def ga_step(pop: GaPopulation, config: GaConfig, archive: BspArchive,
            evaluator, rng) -> GaPopulation:
    """Next generation: tournament parents, gene-exchange crossover,
    archive-routed evaluation, generational replacement with 1-elitism."""
    children = [pop.best()]
    children.extend(leaf.node.point for leaf in offspring(pop, config, archive, evaluator, rng))
    return GaPopulation(children, pop.generation + 1)


def maybe_prune(archive: BspArchive):
    """LRU-prune once the stored-point count reaches LRU_CAPACITY."""
    if archive.n_points >= LRU_CAPACITY:
        archive.prune_lru(LRU_FRACTION)
