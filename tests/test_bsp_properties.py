"""Archive invariants under random sequences of insert, prune and block.

Cell bounds and depth are derived on demand by the library; these checks
compare them after every operation with the parent-link oracles in
``util``, including after pruning has moved subtrees up. A block must
outlive every pruning step that leaves a point stored under it.
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


def preorder(top):
    """Nodes under ``top`` in ``dump()`` order: pre-order, below before above."""
    nodes, stack = [], [top]
    while stack:
        node = stack.pop()
        nodes.append(node)
        if node.is_internal:
            stack.append(node.above)
            stack.append(node.below)
    return nodes


def walk_to_leaf(ar, x):
    node = ar.root
    while node.is_internal:
        node = node.below if x[node.split_dim] < node.split_value else node.above
    return node


def check_roi(ar, new_leaf):
    roi = ar.roi_trigger(new_leaf.node, new_leaf.depth, LV, K)
    if roi is None:
        return
    assert roi.subroot.depth == LV
    lo, hi = walk_region(ar, roi.subroot)
    assert same_bits(roi.region.lower, lo) and same_bits(roi.region.upper, hi)
    for seed in roi.seeds:
        assert roi.region.contains(seed.coords)


def check_invariants(ar, blocked_points, rng):
    leaves = list(ar.iter_leaves())
    assert len(leaves) == ar.n_points
    assert all(node.point is None for node in preorder(ar.root) if node.is_internal)
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
    assert depths == [node.depth for node in preorder(ar.root)]
    # a stored point is blocked exactly when it was under a blocked node at
    # the time of the block; a Blocked insert only refreshes recency
    for leaf in leaves:
        outcome = ar.insert(leaf.point.coords)
        if id(leaf.point) in blocked_points:
            assert isinstance(outcome, Blocked)
        else:
            assert isinstance(outcome, Revisit) and outcome.leaf is leaf


@settings(derandomize=True, deadline=None, max_examples=60)
@given(dim=st.sampled_from([2, 3]), plan=rounds)
def test_archive_invariants_under_random_operations(dim, plan):
    domain = Region(np.zeros(dim), np.full(dim, 10.0))
    ar = BspArchive(domain)
    rng = np.random.default_rng(0)
    # points stored under a node when it was blocked, by id; holding the
    # points keeps their ids from being reused by later ones
    blocked_points = {}
    for points, step in plan:
        for coords in points:
            outcome = ar.insert(np.array(coords[:dim]))
            assert isinstance(outcome, (NewLeaf, Revisit, Blocked))
            if isinstance(outcome, NewLeaf):
                assert outcome.depth == outcome.node.depth
                check_roi(ar, outcome)
            check_invariants(ar, blocked_points, rng)
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
        else:
            candidates = preorder(ar.root)[1:]
            if not candidates:
                continue
            subroot = candidates[arg % len(candidates)]
            ar.block(subroot)
            blocked_points.update((id(n.point), n.point) for n in preorder(subroot) if n.is_leaf)
        check_invariants(ar, blocked_points, rng)
