"""The non-revisiting GA never evaluates the same point twice.

Runs the crossover-only GA on 2-D Rastrigin, then proves by a pairwise
scan that all evaluated points are distinct, even though uniform
gene-exchange crossover constantly proposes duplicates. The GA is the one
the hybrid explores with and the cNrGA baselines run: a population of
POP_SIZE and crossover rate CROSSOVER_RATE, both constants of
``histarch.cnrga``.
"""

import numpy as np

from histarch import BspArchive, generations
from histarch.benchmarks import BudgetedEvaluator, make_suite
from histarch.cnrga import CROSSOVER_RATE, POP_SIZE

problem = next(p for p in make_suite(2, seed=1) if p.name == "rastrigin")
budget = 2000
print(f"population {POP_SIZE}, crossover rate {CROSSOVER_RATE}, budget {budget}")

evaluator = BudgetedEvaluator(problem, budget)
archive = BspArchive(problem.domain)
rng = np.random.default_rng(0)

# one lazy iterator of new leaves per generation, until the budget is spent;
# generation 0 is the initial population, and the elite keeps the best point
# in every later one
for generation, leaves in enumerate(generations(archive, evaluator, rng)):
    for _ in leaves:
        pass
    if generation and generation % 5 == 0:
        print(f"gen {generation:3d}  evals {evaluator.used:5d}  "
              f"best {evaluator.best:.6g}")

points = np.array([leaf.point.coords for leaf in archive.iter_leaves()])
print(f"\nevaluations used: {evaluator.used}, stored points: {len(points)}")

diffs = np.abs(points[:, None, :] - points[None, :, :]).max(axis=2)
np.fill_diagonal(diffs, np.inf)
print(f"smallest pairwise max-abs distance: {diffs.min():.3e}  (> 0: no revisit)")
