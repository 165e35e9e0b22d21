"""How the BSP archive partitions a 2-D box as points arrive.

Walks through the classic two-point split, a revisit with its adaptive
mutation cell, a deep chain whose newest leaf the region-of-interest
trigger reports on, and blocking.
"""

import numpy as np

from histarch import BspArchive, NewLeaf, Region, Revisit, uniform_point

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
cell = outcome.cell
print(f"mutation cell: {cell.lower} .. {cell.upper}")
rng = np.random.default_rng(0)
# the one uniform draw takes any box's float bounds, a cell's or the domain's
mutant = uniform_point(cell.lower, cell.upper, rng)
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
        roi = archive.roi_trigger(out, LV, K)
    value /= 2.0
print(f"trigger at depth >= lv+k = {LV + K}")
print(f"suggested cell at depth {roi.cell.depth} (lv), "
      f"{roi.cell.lower} .. {roi.cell.upper}, {len(roi.seeds)} seeds")

print()
print("== blocking the ROI's cell closes it to the explorer ==")
archive.block(roi.cell)
inside = 0.5 * (np.array(roi.cell.lower) + np.array(roi.cell.upper))
print(f"insert at its centre -> {type(archive.insert(inside)).__name__}")
outside = np.array([2.0, 9.5])
print(f"insert outside       -> {type(archive.insert(outside)).__name__}")
