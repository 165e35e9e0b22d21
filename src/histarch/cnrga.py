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
half-open cell, at the root. Domain redraws and the initial uniform
population walk from the root. ``offspring`` breeds all of a crossover
generation's children from one block of draws when it starts, before
any child is stored.
``store_via_archive`` stores a candidate and evaluates nothing; a
generation evaluates the points it stored in one
``BudgetedEvaluator.evaluate_batch`` call, in insertion order, when it
ends, and so evaluates each stored point exactly once.
``generations`` is the GA's only loop and pauses between generations,
after each one is evaluated; it ends by itself on a spent budget or a
full archive. Its ``stop`` query, asked after each stored leaf, ends a
generation early: the hybrid passes its ROI query, and the cNrGA
baselines pass none. ``maybe_prune`` halves the archive once it holds
LRU_CAPACITY points; only the cNrGA-LRU baseline's driver calls it,
between generations. The hybrid's explorer and both cNrGA baselines run
the same GA: POP_SIZE and CROSSOVER_RATE are module constants.
"""

from __future__ import annotations

import numpy as np

from .bsp import BspArchive, Blocked, NewLeaf, Subtree, uniform_point

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


def store_via_archive(coords, archive: BspArchive, rng,
                      within: Subtree | None = None) -> NewLeaf | None:
    """Insert, dodge revisits and blocked cells, store exactly once.

    The first insert is given ``within`` (see ``BspArchive.insert``). A
    revisit is replaced by a uniform draw from the revisited leaf's cell,
    inserted with that cell (``Revisit.cell``); after MAX_REVISIT_RETRIES
    consecutive revisits, by a uniform domain draw, as is a blocked
    outcome. Returns the NewLeaf, whose ``node.point`` is stored with a
    NaN fitness and is not evaluated, or None, having stored nothing, when
    MAX_REVISIT_RETRIES + MAX_BLOCKED_DRAWS redraws in a row stored
    nothing: blocked cells cover the domain, or every free cell is too
    small to split in floating point.
    """
    revisit_streak = 0
    for _ in range(MAX_REVISIT_RETRIES + MAX_BLOCKED_DRAWS + 1):
        outcome = archive.insert(coords, within)
        if isinstance(outcome, NewLeaf):
            return outcome
        revisit_streak = 0 if isinstance(outcome, Blocked) else revisit_streak + 1
        if 0 < revisit_streak <= MAX_REVISIT_RETRIES:
            within = outcome.cell
            coords = uniform_point(within.lower, within.upper, rng)
        else:
            coords, within = uniform_point(*archive.domain.bounds, rng), None
    return None


def offspring(parents, genes, rng) -> np.ndarray:
    """The POP_SIZE - 1 crossover children of ``parents``, whose
    coordinates are the rows of ``genes``, as one array. Pair k's parents
    win tournaments of TOURNAMENT_SIZE draws with replacement, all drawn
    in one block; the first draw wins a tie. Its children, rows 2k and
    2k + 1, swap each coordinate with probability CROSSOVER_RATE, so every
    gene comes verbatim from a parent; an even population's last row is
    cut."""
    pairs = POP_SIZE // 2
    fitness = np.array([p.fitness for p in parents])
    drawn = rng.integers(0, len(parents), (pairs, 2, TOURNAMENT_SIZE))
    winners = drawn[..., 0]
    for t in range(1, TOURNAMENT_SIZE):
        winners = np.where(fitness[drawn[..., t]] < fitness[winners], drawn[..., t], winners)
    swap = rng.random((pairs, genes.shape[1])) < CROSSOVER_RATE
    p1, p2 = genes[winners[:, 0]], genes[winners[:, 1]]
    children = np.empty((2 * pairs, genes.shape[1]))
    children[0::2] = np.where(swap, p2, p1)
    children[1::2] = np.where(swap, p1, p2)
    return children[:POP_SIZE - 1]


def generations(archive: BspArchive, evaluator, rng, stop=lambda leaf: None):
    """The GA as one flat loop that pauses between generations.

    The first generation is POP_SIZE uniform domain draws; each later
    one is POP_SIZE - 1 crossover children of the population, whose
    best individual completes the next; ``offspring`` draws them all
    when the generation starts. A generation stores its candidates one
    at a time and calls ``stop(leaf)`` after each stored leaf, whose
    point's fitness is still NaN; a truthy result ends the generation
    at that leaf. It then evaluates every point it stored in
    one ``evaluate_batch`` call, in insertion order, and sets each
    point's fitness. Between generations it yields the truthy result
    that ended the generation just evaluated, or None, but only when
    another generation can follow: budget is left and the archive took
    every candidate it was offered. The population is replaced once a
    generation has all its members: one that ``stop`` ends before that
    is bred again from the same parents (the initial one is drawn
    again), and the points it stored stay in the archive, evaluated.
    The GA ends before a candidate when the points a generation stored
    equal the evaluations left, or when ``store_via_archive`` returns
    None for it on a full archive.
    An objective that raises leaves the points its generation stored in
    the archive with a NaN fitness, and ``evaluator.used`` counts none of
    them; nothing is rolled back. The error ends the run, which the
    harness records as failed.
    Children are routed from the subtree of their parents' bounding box,
    taken when their generation starts, so after whatever the caller did
    to the archive between generations.
    """
    parents = []
    while True:
        if parents:
            population = [min(parents, key=lambda p: p.fitness)]
            genes = np.array([p.coords for p in parents])
            within = archive.subtree(genes.min(axis=0), genes.max(axis=0))
            candidates = offspring(parents, genes, rng)
        else:
            population, within = [], None
            candidates = (uniform_point(*archive.domain.bounds, rng) for _ in range(POP_SIZE))
        start, leaf, signal = len(population), None, None
        for coords in candidates:
            # the budget gate: once the points stored take every
            # evaluation left, the GA ends before this candidate
            leaf = None
            if len(population) - start < evaluator.remaining:
                leaf = store_via_archive(coords, archive, rng, within)
            if leaf is None:
                break
            population.append(leaf.node.point)
            signal = stop(leaf)
            if signal:
                break
        stored = population[start:]
        if stored:
            values = evaluator.evaluate_batch([p.coords for p in stored])
            for point, value in zip(stored, values.tolist()):
                point.fitness = value
        if leaf is None or not evaluator.remaining:
            return
        yield signal or None
        if len(population) == POP_SIZE:
            parents = population


def maybe_prune(archive: BspArchive):
    """LRU-prune once the stored-point count reaches LRU_CAPACITY; the
    cNrGA-LRU driver calls it between generations."""
    if archive.n_points >= LRU_CAPACITY:
        archive.prune_lru(LRU_FRACTION)
