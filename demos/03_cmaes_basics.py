"""CMA-ES in isolation: convergence and the restart-relevant stops.

Minimises the 10-D sphere, then shows the two stopping criteria that
matter for restarting: stagnation on a flat objective and the covariance
condition limit on an extremely ill-conditioned ellipsoid. Each run is one
``cma_run``, the loop the hybrid's exploit phases and the restarting
baseline use, behind a budget-counting evaluator.
"""

import numpy as np

from histarch import BudgetedEvaluator, Problem, Region, cma_init, cma_run, default_lambda
from histarch.benchmarks import ellipsoid_weights

dim = 10
domain = Region(np.full(dim, -100.0), np.full(dim, 100.0))
lam = default_lambda(dim)
print(f"recommended population size for D={dim}: {lam}")


def evaluator(f, budget):
    # cma_run evaluates a generation as one (lambda, D) block; vectorize
    # calls the scalar f once per row
    f = np.vectorize(f, otypes=[float], signature="(n)->()")
    return BudgetedEvaluator(Problem("demo", domain, f, None, "unimodal"), budget)


print("\n== sphere, m0=(3,...,3), sigma0=0.5 ==")
state = cma_init(np.full(dim, 3.0), 0.5, lam, domain)
sphere = evaluator(lambda x: float(x @ x), 10_000)
stop = cma_run(state, sphere, np.random.default_rng(0))
print(f"best {sphere.best:.3e} after {sphere.used} evaluations, stop: {stop.value}")

print("\n== constant objective stalls into the stagnation stop ==")
state = cma_init(np.zeros(dim), 1.0, lam, domain)
window = state.best_history.maxlen
stop = cma_run(state, evaluator(lambda x: 1.0, 10 ** 9), np.random.default_rng(1))
print(f"stop: {stop.value} at generation {state.generation} "
      f"(window 10+ceil(30D/lambda) = {window})")

print("\n== ill-conditioned ellipsoid trips the condition-number stop ==")
w = ellipsoid_weights(dim, 1e8)
state = cma_init(np.full(dim, 3.0), 0.5, lam, domain)
ellipsoid = evaluator(lambda x: float(w @ (x * x)), 50_000)
stop = cma_run(state, ellipsoid, np.random.default_rng(2))
cond = np.linalg.cond(state.cov)
print(f"stop: {stop.value} after {ellipsoid.used} evaluations, cond(C) = {cond:.3e}")
