"""Archive invariants under random sequences of insert, prune and block.

Cell bounds and depth are derived on demand by the library; these checks
compare them after every operation with the parent-link oracles in
``util``, including after pruning has moved subtrees up. A block must
outlive every pruning step that leaves a point stored under it. Leaf
recency stamps, and so the leaves a prune removes, must match an oracle
that stamps every node on each insert's walk.

Each round's points are inserted from the subtree of their bounding box,
and a twin archive takes the same operations with every walk from the
root: both must agree on every outcome, tree and stamp. A subtree taken
before a prune or block must be refused afterwards, and a point outside
its box must be refused without storing anything.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histarch import (Blocked, BspArchive, DomainError, NewLeaf, Region, Revisit,
                      StructuralError)
from util import depth_of, locate_brute, tiling_relative_error, walk_region

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


class WalkStamps:
    """LRU stamps as first written: each insert stamps every node on its
    walk from the root, and a split stamps both new leaves. Prune reads
    leaf stamps only, so on leaves they must equal the archive's.

    Every insert is repeated on ``twin``, a second archive that always
    walks from the root, and must end the same way there."""

    def __init__(self, archive):
        self.archive = archive
        self.twin = BspArchive(archive.domain)
        self.clock = 0
        self.stamps = {}  # id(node) -> (node, clock); holding the node keeps ids unique

    def _stamp(self, node):
        self.stamps[id(node)] = (node, self.clock)

    def stamp_of(self, node):
        return self.stamps[id(node)][1]

    def insert(self, coords, within=None):
        self.clock += 1
        node = self.archive.root
        self._stamp(node)
        while not node.blocked and node.is_internal:
            node = node.below if coords[node.split_dim] < node.split_value else node.above
            self._stamp(node)
        outcome = self.archive.insert(np.asarray(coords, dtype=float), within=within)
        if isinstance(outcome, NewLeaf) and outcome.depth > 0:
            parent = outcome.node.parent
            for child in (parent.below, parent.above):
                self._stamp(child)
        twin_outcome = self.twin.insert(np.asarray(coords, dtype=float))
        assert type(twin_outcome) is type(outcome)
        if isinstance(outcome, NewLeaf):
            assert twin_outcome.depth == outcome.depth
            assert twin_outcome.node.point.eval_index == outcome.node.point.eval_index
        elif isinstance(outcome, Revisit):
            assert twin_outcome.leaf.point.eval_index == outcome.leaf.point.eval_index
        return outcome


def check_roi(ar, new_leaf):
    roi = ar.roi_trigger(new_leaf.node, new_leaf.depth, LV, K)
    if roi is None:
        return
    assert depth_of(roi.subroot) == LV
    lo, hi = walk_region(ar, roi.subroot)
    assert same_bits(roi.region.lower, lo) and same_bits(roi.region.upper, hi)
    for seed in roi.seeds:
        assert roi.region.contains(seed.coords)


def check_invariants(ar, oracle, blocked_points, rng):
    twin = oracle.twin
    assert ar.dump() == twin.dump()
    assert [leaf.last_touch for leaf in ar.iter_leaves()] == \
        [leaf.last_touch for leaf in twin.iter_leaves()]
    leaves = list(ar.iter_leaves())
    assert len(leaves) == ar.n_points
    assert all(leaf.last_touch == oracle.stamp_of(leaf) for leaf in leaves)
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
    assert depths == [depth_of(node) for node in preorder(ar.root)]
    # a stored point is blocked exactly when it was under a blocked node at
    # the time of the block; a Blocked insert only refreshes recency
    for leaf in leaves:
        outcome = oracle.insert(leaf.point.coords)
        if id(leaf.point) in blocked_points:
            assert isinstance(outcome, Blocked)
        else:
            assert isinstance(outcome, Revisit) and outcome.leaf is leaf


@settings(derandomize=True, deadline=None, max_examples=60)
@given(dim=st.sampled_from([2, 3]), plan=rounds)
def test_archive_invariants_under_random_operations(dim, plan):
    domain = Region(np.zeros(dim), np.full(dim, 10.0))
    ar = BspArchive(domain)
    oracle = WalkStamps(ar)
    rng = np.random.default_rng(0)
    # points stored under a node when it was blocked, by id; holding the
    # points keeps their ids from being reused by later ones
    blocked_points = {}
    for points, step in plan:
        # the round's bounding box, whose faces its extreme points lie on
        points = np.array(points)[:, :dim]
        lo, hi = points.min(axis=0), points.max(axis=0)
        within = ar.subtree(lo, hi)
        for coords in points.tolist():
            outcome = oracle.insert(coords, within)
            assert isinstance(outcome, (NewLeaf, Revisit, Blocked))
            if isinstance(outcome, NewLeaf):
                assert outcome.depth == depth_of(outcome.node)
                check_roi(ar, outcome)
            check_invariants(ar, oracle, blocked_points, rng)
        # a point just outside the box, past either face, stores nothing
        for face, toward in ((lo, -np.inf), (hi, np.inf)):
            outside = face.copy()
            outside[0] = np.nextafter(face[0], toward)
            n_points, clock, dump = ar.n_points, ar._clock, ar.dump()
            with pytest.raises(DomainError):
                ar.insert(outside, within=within)
            assert (ar.n_points, ar._clock, ar.dump()) == (n_points, clock, dump)
        if step is None:
            continue
        kind, arg = step
        twin = oracle.twin
        if kind == "prune":
            n_before = ar.n_points
            before = list(ar.iter_leaves())
            n_remove = int(np.floor(arg * n_before))
            oldest = sorted(before, key=lambda leaf: (oracle.stamp_of(leaf), leaf.point.eval_index))
            ar.prune_lru(arg)
            twin.prune_lru(arg)
            assert ar.n_points == n_before - n_remove
            kept = {id(leaf) for leaf in ar.iter_leaves()}
            assert {id(leaf) for leaf in before if id(leaf) not in kept} == \
                {id(leaf) for leaf in oldest[:n_remove]}
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
            twin.block(preorder(twin.root)[1:][arg % len(candidates)])
            blocked_points.update((id(n.point), n.point) for n in preorder(subroot)
                                  if n.point is not None)
        # the structural change made the round's subtree stale
        n_points, clock = ar.n_points, ar._clock
        with pytest.raises(StructuralError):
            ar.insert(points[0], within=within)
        assert (ar.n_points, ar._clock) == (n_points, clock)
        check_invariants(ar, oracle, blocked_points, rng)
