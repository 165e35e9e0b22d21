"""One full history-assisted restart run, phase by phase.

The explorer fills the archive until a cell is sampled densely enough to
fire the trigger; CMA-ES then exploits the suggested region out of the
same budget, the region is blocked, and exploration resumes elsewhere.
"""

import numpy as np

from histarch import default_lambda, derive_depth_params, hr_run
from histarch.benchmarks import make_suite

problem = next(p for p in make_suite(2, seed=1) if p.name == "rastrigin")
budget = 6000
# the thresholds hr_run derives for itself, printed for reference
lam = default_lambda(problem.dim)
lv, k = derive_depth_params(budget, lam)
print(f"budget {budget}, lv={lv}, k={k}, lambda={lam}")

record = hr_run(problem, budget, np.random.default_rng(3))

print(f"\n{'phase':8s} {'evals':>12s}  detail")
for ph in record.phases:
    span = f"{ph.start_eval}-{ph.end_eval}"
    if ph.kind == "exploit":
        side = max(u - l for l, u in zip(ph.roi_lower, ph.roi_upper))
        detail = f"stop={ph.stop_reason}, roi max side {side:.3g}"
    else:
        detail = ""
    print(f"{ph.kind:8s} {span:>12s}  {detail}")

print(f"\nevaluations used: {record.evals_used} of {record.budget}")
print(f"final best: {record.final_fitness:.6e} at evaluation {record.final_eval_index}")
print("best-so-far trace (last 5 improvements):")
for eval_idx, value in record.best_trace[-5:]:
    print(f"  eval {eval_idx:5d}: {value:.6e}")
