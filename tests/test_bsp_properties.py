"""Archive invariants under random sequences of insert, prune and block.

Cell bounds and depth are derived on demand by the library; these checks
compare them after every operation with the parent-link oracles in
``util``, including after pruning has moved subtrees up.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histarch import Blocked, BspArchive, NewLeaf, Region, Revisit, StructuralError
from util import locate_brute, tiling_relative_error, walk_region

LV, K = 2, 1

# grid coordinates force exact duplicates, shared faces and points on the
# domain's upper boundary; floats exercise general position
grid_coord = st.integers(0, 8).map(lambda i: 1.25 * i)
any_coord = st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False)
coordinate = st.one_of(grid_coord, any_coord)

point = st.lists(coordinate, min_size=3, max_size=3)
# rounds of inserts, each followed by at most one prune or block, so trees
# grow deep enough to fire the ROI trigger between structural changes
after_inserts = st.one_of(
    st.none(),
    st.tuples(st.just("prune"), st.sampled_from([0.25, 0.5, 0.75])),
    st.tuples(st.just("block"), st.integers(0, 1000)),
)
rounds = st.lists(st.tuples(st.lists(point, min_size=1, max_size=15), after_inserts),
                  min_size=2, max_size=8)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def preorder(ar):
    """Nodes in ``dump()`` order: pre-order, below before above."""
    if ar.n_points == 1 and not ar.root.is_internal and ar.root.point is None:
        return [ar.root, next(ar.iter_leaves())]
    nodes, stack = [], [ar.root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if node.is_internal:
            stack.append(node.above)
            stack.append(node.below)
    return nodes


def walk_to_leaf(ar, x):
    if ar.n_points == 1:
        return next(ar.iter_leaves())
    node = ar.root
    while node.is_internal:
        node = node.below if x[node.split_dim] < node.split_value else node.above
    return node


def check_roi(ar):
    roi = ar.pending_roi
    if roi is None:
        return
    assert roi.subroot.depth == LV == roi.subroot_depth
    lo, hi = walk_region(ar, roi.subroot)
    assert same_bits(roi.region.lower, lo) and same_bits(roi.region.upper, hi)
    for seed in roi.seeds:
        assert roi.region.contains(seed.coords)
    ar.pending_roi = None  # let the trigger fire again later in the sequence


def check_invariants(ar, fresh_blocks, rng):
    leaves = list(ar.iter_leaves())
    assert len(leaves) == ar.n_points
    for leaf in leaves:
        lo, hi = walk_region(ar, leaf)
        reg = ar.region_of(leaf)
        assert same_bits(reg.lower, lo) and same_bits(reg.upper, hi)
    if leaves:
        assert tiling_relative_error(ar) <= 1e-9
        probes = [leaf.point.coords for leaf in leaves]
        probes += [ar.domain.uniform_point(rng) for _ in range(10)]
        for x in probes:
            assert locate_brute(ar, x) is walk_to_leaf(ar, x)
    depths = [int(line.split(" ", 1)[0]) for line in ar.dump().splitlines()]
    assert depths == [node.depth for node in preorder(ar)]
    for subroot, box in fresh_blocks:
        lo, hi = walk_region(ar, subroot)
        assert same_bits(box.lower, lo) and same_bits(box.upper, hi)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(dim=st.sampled_from([2, 3]), plan=rounds)
def test_archive_invariants_under_random_operations(dim, plan):
    domain = Region(np.zeros(dim), np.full(dim, 10.0))
    ar = BspArchive(domain, lv=LV, k=K)
    rng = np.random.default_rng(0)
    # blocked subroots with the box captured for them; a prune can move a
    # subroot's cell, after which its box keeps the cell it had when blocked
    fresh_blocks = []
    for points, step in plan:
        for coords in points:
            outcome = ar.insert(np.array(coords[:dim]))
            assert isinstance(outcome, (NewLeaf, Revisit, Blocked))
            if isinstance(outcome, NewLeaf):
                assert outcome.depth == outcome.node.depth
            check_roi(ar)
            check_invariants(ar, fresh_blocks, rng)
        if step is None:
            continue
        kind, arg = step
        if kind == "prune":
            n_before = ar.n_points
            before = list(ar.iter_leaves())
            ar.prune_lru(arg)
            assert ar.n_points == n_before - int(np.floor(arg * n_before))
            kept = {id(leaf) for leaf in ar.iter_leaves()}
            for leaf in before:
                if id(leaf) not in kept:
                    with pytest.raises(StructuralError):
                        ar.region_of(leaf)
            fresh_blocks = []
        else:
            candidates = preorder(ar)[1:]
            if not candidates:
                continue
            subroot = candidates[arg % len(candidates)]
            ar.block(subroot)
            fresh_blocks.append((subroot, ar.blocked_regions[-1]))
        check_invariants(ar, fresh_blocks, rng)
