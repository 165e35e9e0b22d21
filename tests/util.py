"""Independent brute-force oracles shared by the test modules.

These deliberately re-derive tree geometry from parent links and the
domain box instead of trusting the library's own ``region_of``.
"""

import numpy as np
from scipy.special import logsumexp


def walk_region(archive, node):
    """Region of a node computed by clipping the domain along each
    ancestor split (independent of ``BspArchive.region_of``)."""
    chain = []
    cur = node
    while cur.parent is not None:
        chain.append(cur)
        cur = cur.parent
    lo = archive.domain.lower.copy()
    hi = archive.domain.upper.copy()
    for child in reversed(chain):
        parent = child.parent
        if parent.below is child:
            hi[parent.split_dim] = parent.split_value
        else:
            assert parent.above is child, "child not linked from its parent"
            lo[parent.split_dim] = parent.split_value
    return lo, hi


def contains_halfopen(lo, hi, dom_lo, dom_hi, x):
    """Membership under the traversal convention: below-splits are
    half-open above, the outer domain boundary stays inclusive."""
    for d in range(len(x)):
        if x[d] < lo[d]:
            return False
        if x[d] > hi[d]:
            return False
        if x[d] == hi[d] and hi[d] != dom_hi[d]:
            return False
    return True


def locate_brute(archive, x):
    """The unique leaf whose half-open cell contains x."""
    matches = []
    for leaf in archive.iter_leaves():
        lo, hi = walk_region(archive, leaf)
        if contains_halfopen(lo, hi, archive.domain.lower, archive.domain.upper, x):
            matches.append(leaf)
    assert len(matches) == 1, f"point in {len(matches)} cells"
    return matches[0]


def tiling_relative_error(archive):
    """|sum of leaf volumes / domain volume - 1|, summed in log space."""
    logs = []
    for leaf in archive.iter_leaves():
        lo, hi = walk_region(archive, leaf)
        logs.append(np.log(hi - lo).sum())
    if not logs:
        return 0.0
    total = logsumexp(logs)
    return abs(np.exp(total - archive.domain.log_volume()) - 1.0)


def interiors_disjoint(archive):
    """True when no two leaf cells overlap with positive volume."""
    boxes = [walk_region(archive, leaf) for leaf in archive.iter_leaves()]
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            lo = np.maximum(boxes[i][0], boxes[j][0])
            hi = np.minimum(boxes[i][1], boxes[j][1])
            if (lo < hi).all():
                return False
    return True


def max_leaf_depth(archive):
    return max(leaf.depth for leaf in archive.iter_leaves())
