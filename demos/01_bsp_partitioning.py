"""How the BSP archive partitions a 2-D box as points arrive.

Walks through the classic two-point split, a revisit with its adaptive
mutation cell, a deep chain whose newest leaf the region-of-interest
trigger reports on, and blocking.
"""

import numpy as np

from histarch import BspArchive, NewLeaf, Region, Revisit

domain = Region(np.array([0.0, 0.0]), np.array([10.0, 10.0]))
archive = BspArchive(domain)
LV, K = 3, 2  # depth thresholds of the ROI query; the hybrid derives them

print("== two points split the box on their largest-difference dimension ==")
archive.insert(np.array([2.0, 5.0]))
archive.insert(np.array([8.0, 6.0]))
print(archive.dump())
# depth 0 is the root split at x0=5; the two leaves tile the box

print("== a duplicate is a revisit; its mutation cell is the leaf's box ==")
outcome = archive.insert(np.array([2.0, 5.0]))
assert isinstance(outcome, Revisit)
lower, upper = outcome.cell.cell_bounds
print(f"mutation cell: {lower} .. {upper}")
rng = np.random.default_rng(0)
mutant = outcome.cell.uniform_point(rng)
print(f"mutant drawn inside it: {mutant} -> {type(archive.insert(mutant)).__name__}")

print()
print("== nested points deepen one path until the ROI trigger fires ==")
# the archive keeps no ROI state: the caller asks about each new leaf
value = 8.0
roi = None
while roi is None:
    out = archive.insert(np.array([value, 1.0]))
    if isinstance(out, NewLeaf):
        print(f"  inserted x0={value:<8.4g} -> leaf depth {out.depth}")
        roi = archive.roi_trigger(out.node, out.depth, LV, K)
    value /= 2.0
print(f"trigger at depth >= lv+k = {LV + K}")
print(f"suggested sub-root depth {LV} (lv), "
      f"region {roi.region.lower} .. {roi.region.upper}, {len(roi.seeds)} seeds")

print()
print("== blocking the sub-root closes its cell to the explorer ==")
archive.block(roi.subroot)
inside = 0.5 * (roi.region.lower + roi.region.upper)
print(f"insert at its centre -> {type(archive.insert(inside)).__name__}")
outside = np.array([2.0, 9.5])
print(f"insert outside       -> {type(archive.insert(outside)).__name__}")
