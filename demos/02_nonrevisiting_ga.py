"""The non-revisiting GA never evaluates the same point twice.

Runs the crossover-only GA on 2-D Rastrigin, then proves by a pairwise
scan that all evaluated points are distinct, even though uniform
gene-exchange crossover constantly proposes duplicates.
"""

import numpy as np

from histarch import (BspArchive, BudgetExhaustedError, GaConfig, ga_step,
                      init_population)
from histarch.benchmarks import BudgetedEvaluator, make_suite

problem = next(p for p in make_suite(2, seed=1) if p.name == "rastrigin")
config = GaConfig(pop_size=50)
budget = 2000

evaluator = BudgetedEvaluator(problem, budget)
archive = BspArchive(problem.domain)
rng = np.random.default_rng(0)

pop = init_population(config, archive, evaluator, rng)
try:
    while True:
        pop = ga_step(pop, config, archive, evaluator, rng)
        if pop.generation % 10 == 0:
            print(f"gen {pop.generation:3d}  evals {evaluator.used:5d}  "
                  f"best {pop.best().fitness:.6g}")
except BudgetExhaustedError:
    pass

points = np.array([leaf.point.coords for leaf in archive.iter_leaves()])
print(f"\nevaluations used: {evaluator.used}, stored points: {len(points)}")

diffs = np.abs(points[:, None, :] - points[None, :, :]).max(axis=2)
np.fill_diagonal(diffs, np.inf)
print(f"smallest pairwise max-abs distance: {diffs.min():.3e}  (> 0: no revisit)")
