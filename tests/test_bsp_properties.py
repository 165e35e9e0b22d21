"""Archive invariants under random sequences of insert, prune and block.

Cell bounds and depth are derived on demand by the library; these checks
compare them after every operation with the parent-link oracles in
``util``, including after pruning has moved subtrees up. A block must
outlive every pruning step that leaves a point stored under it. Leaf
recency stamps, and so the leaves a prune removes, must match an oracle
that stamps every node on the walk of each insert that is not Blocked.

Each round's points are inserted with the subtree of their bounding box,
and a twin archive takes the same operations with every walk from the
root: both must agree on every outcome, tree and stamp. The query box
must lie in the subtree's cell, below each upper face a split set, and
the subtree's node must be the deepest that holds it. A subtree taken
before a prune or block must be refused afterwards by ``insert`` and by
``block``, with nothing changed; a point outside its half-open cell but
in the domain is stored as a root walk stores it, and a point outside
the domain is refused without storing anything. Every subtree's cell,
the cell every Revisit carries and the cell of every ROI must equal the
parent-link oracle's bit for bit. A block closes a uniformly chosen
non-root node, through a Subtree the oracles build. After a revisit in a round, the round's points in the revisited
leaf's closed cell, the cell's corners, points on each of its faces and
points one float outside each face are inserted with that cell.

The three domain tests agree on a small box: ``Region.contains``,
``_in_box`` on the region's bounds, the evaluator's refusal and the
archive's. Each coordinate lies on a face, one float outside it, strictly
inside, at +-0, or is NaN or +-inf.

The examples come from a fixed seed, so an edit to the test body does
not swap the whole example set.
"""

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from histarch import (Blocked, BspArchive, DomainError, InputError, NewLeaf, Problem, Region,
                      Revisit, StructuralError, store_via_archive)
from histarch.benchmarks import BudgetedEvaluator, sphere
from histarch.bsp import _in_box
from util import (RootWalkArchive, ScriptedRng, depth_of, leaf_cells, locate_brute,
                  subtree_of, tiling_relative_error, uniform_array, walk_region)

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
        if node.below is not None:
            stack.append(node.above)
            stack.append(node.below)
    return nodes


def walk_to_leaf(ar, x):
    return root_walk(ar, x)[-1]


def root_walk(ar, x):
    """The nodes a walk from the root passes, down to a leaf."""
    path = [ar.root]
    while path[-1].below is not None:
        node = path[-1]
        path.append(node.below if x[node.split_dim] < node.split_value else node.above)
    return path


def check_cell(ar, cell):
    """A Subtree's cell and depth equal the parent-link oracle's."""
    lo, hi = walk_region(ar, cell.node)
    assert same_bits(cell.lower, lo) and same_bits(cell.upper, hi)
    assert cell.depth == depth_of(cell.node)


def check_query_box(ar, within, lo, hi):
    """``subtree(lo, hi)``'s cell holds the query box, which lies below
    each upper face a split set, and its node is the deepest whose cell
    holds it: a leaf, a blocked node or a split the query box straddles."""
    check_cell(ar, within)
    assert (np.array(within.lower) <= lo).all()
    assert all(h < u or h == u == top for h, u, top in zip(hi, within.upper, ar.domain.upper))
    node = within.node
    if node.below is not None and not node.blocked:
        assert lo[node.split_dim] < node.split_value <= hi[node.split_dim]


class WalkStamps:
    """LRU stamps as first written: each insert that is not Blocked ticks
    the clock and stamps every node on its walk from the root, and a split
    stamps both new leaves; a Blocked one ticks and stamps nothing. Prune
    reads leaf stamps only, so on leaves they must equal the archive's.

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
        path = [self.archive.root]
        while not path[-1].blocked and path[-1].below is not None:
            node = path[-1]
            path.append(node.below if coords[node.split_dim] < node.split_value else node.above)
        outcome = self.archive.insert(np.asarray(coords, dtype=float), within=within)
        assert isinstance(outcome, Blocked) == path[-1].blocked
        if not path[-1].blocked:
            self.clock += 1
            for node in path:
                self._stamp(node)
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
            leaf, twin_leaf = outcome.cell.node, twin_outcome.cell.node
            assert twin_leaf.point.eval_index == leaf.point.eval_index
            assert leaf.below is None and twin_leaf.below is None
            check_cell(self.archive, outcome.cell)
            check_cell(self.twin, twin_outcome.cell)
            assert (twin_outcome.cell.lower, twin_outcome.cell.upper) == \
                (outcome.cell.lower, outcome.cell.upper)
        return outcome


def insert_near(oracle, within, points):
    """Insert each of ``points`` with ``within``, as the twin inserts it
    from the root; one outside the domain is refused and stores nothing."""
    ar = oracle.archive
    for x in points:
        if ar.domain.contains(x):
            oracle.insert(x, within)
            continue
        n_points, clock, dump = ar.n_points, ar._clock, ar.dump()
        with pytest.raises(DomainError):
            ar.insert(x, within=within)
        assert (ar.n_points, ar._clock, ar.dump()) == (n_points, clock, dump)


def insert_in_cell(oracle, cell, points):
    """Insert with a Revisit's ``cell`` every point of ``points`` in its
    closed cell, the cell's two corners, the revisited point moved onto
    each face, and one float past each face. A point on an upper face a
    split set lies outside the half-open cell, and a root walk sends it
    past the cell's node."""
    ar = oracle.archive
    lo, hi = cell.lower, cell.upper
    stored = cell.node.point.coords.tolist()
    moved = [stored[:d] + [v] + stored[d + 1:]
             for d in range(len(stored))
             for v in (lo[d], hi[d], np.nextafter(lo[d], -np.inf), np.nextafter(hi[d], np.inf))]
    in_cell = [x for x in points if all(a <= v <= b for a, v, b in zip(lo, x, hi))]
    near = in_cell + [list(lo), list(hi)] + moved
    for x in near:
        if any(v == b < top for v, b, top in zip(x, hi, ar.domain.upper)):
            assert cell.node not in root_walk(ar, x)
    insert_near(oracle, cell, near)


def check_roi(ar, new_leaf):
    roi = ar.roi_trigger(new_leaf, LV, K)
    if roi is None:
        return
    assert roi.cell.depth == LV and roi.cell.epoch is ar._epoch
    check_cell(ar, roi.cell)
    cell = Region(roi.cell.lower, roi.cell.upper)
    for stored in roi.seeds:
        assert cell.contains(stored.coords)


def check_invariants(ar, oracle, blocked_points, rng):
    twin = oracle.twin
    dump = ar.dump()
    assert dump == twin.dump()
    assert [leaf.last_touch for leaf in ar.iter_leaves()] == \
        [leaf.last_touch for leaf in twin.iter_leaves()]
    leaves = list(ar.iter_leaves())
    assert len(leaves) == ar.n_points
    assert all(leaf.last_touch == oracle.stamp_of(leaf) for leaf in leaves)
    assert all(node.point is None for node in preorder(ar.root) if node.below is not None)
    cells = leaf_cells(ar)
    if leaves:
        assert tiling_relative_error(ar, cells) <= 1e-9
        probes = [leaf.point.coords for leaf in leaves]
        probes += [uniform_array(ar.domain, rng) for _ in range(10)]
        for x in probes:
            assert locate_brute(ar, x, cells) is walk_to_leaf(ar, x)
    depths = [int(line.split(" ", 1)[0]) for line in dump.splitlines()]
    assert depths == [depth_of(node) for node in preorder(ar.root)]
    # a stored point is blocked exactly when it was under a blocked node at
    # the time of the block; a Blocked insert changes nothing
    for leaf in leaves:
        outcome = oracle.insert(leaf.point.coords)
        if id(leaf.point) in blocked_points:
            assert isinstance(outcome, Blocked)
        else:
            assert isinstance(outcome, Revisit) and outcome.cell.node is leaf


@seed(2019)
@settings(derandomize=True, deadline=None, max_examples=60)
@given(dim=st.sampled_from([2, 3]), plan=rounds)
# the second round's query box ends on the split x1 = 5 of the first
@example(dim=2, plan=[([[0.0, 0.0, 0.0]], None), ([[0.0, 5.0, 0.0]], None)])
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
        check_query_box(ar, within, lo, hi)
        for coords in points.tolist():
            outcome = oracle.insert(coords, within)
            assert isinstance(outcome, (NewLeaf, Revisit, Blocked))
            if isinstance(outcome, NewLeaf):
                assert outcome.depth == depth_of(outcome.node)
                check_roi(ar, outcome)
            elif isinstance(outcome, Revisit):
                insert_in_cell(oracle, outcome.cell, points.tolist())
            check_invariants(ar, oracle, blocked_points, rng)
        # one revisit per round at least: the round's first point again
        outcome = oracle.insert(points[0].tolist(), within)
        if isinstance(outcome, Revisit):
            insert_in_cell(oracle, outcome.cell, points.tolist())
            check_invariants(ar, oracle, blocked_points, rng)
        # points one float past either face of the query box
        outside = []
        for face, toward in ((lo, -np.inf), (hi, np.inf)):
            x = face.copy()
            x[0] = np.nextafter(face[0], toward)
            outside.append(x.tolist())
        insert_near(oracle, within, outside)
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
        else:
            candidates = preorder(ar.root)[1:]
            if not candidates:
                continue
            subroot = candidates[arg % len(candidates)]
            ar.block(subtree_of(ar, subroot))
            twin.block(subtree_of(twin, preorder(twin.root)[1:][arg % len(candidates)]))
            blocked_points.update((id(n.point), n.point) for n in preorder(subroot)
                                  if n.point is not None)
        # the structural change made the round's subtree stale: neither
        # insert nor block takes it, and nothing changes
        state = [node.blocked for node in preorder(ar.root)], ar.dump(), ar._clock
        with pytest.raises(StructuralError):
            ar.insert(points[0], within=within)
        with pytest.raises(StructuralError):
            ar.block(within)
        assert ([node.blocked for node in preorder(ar.root)], ar.dump(), ar._clock) == state
        check_invariants(ar, oracle, blocked_points, rng)


def test_cell_draw_on_a_split_face_walks_from_the_root():
    # (2, 5) and (8, 6) split x0 at 5; (4.5, 5) then splits (2, 5)'s cell at
    # x0 = 3.25, so the revisited leaf (4.5, 5) has the cell [3.25, 5] x [0, 10]
    # and its upper face x0 = 5 is a split's. The largest unit draw takes
    # 3.25 + 1.75 * (1 - 2**-53) to exactly 5.0, which a root walk sends
    # above the split, into (8, 6)'s cell.
    domain = Region(np.zeros(2), np.full(2, 10.0))
    archives, points = [], []
    for archive in (BspArchive(domain), RootWalkArchive(domain)):
        rng = np.random.default_rng(0)
        for coords in ([2.0, 5.0], [8.0, 6.0], [4.5, 5.0]):
            store_via_archive(np.array(coords), archive, rng)
        rigged = ScriptedRng([np.nextafter(1.0, 0.0), 0.5], n=1)
        points.append(store_via_archive(np.array([4.5, 5.0]), archive, rigged))
        archives.append(archive)
    fast, ref = points
    assert fast.node.point.coords.tolist() == [5.0, 5.0]
    assert fast.node.parent is archives[0].root.above  # (8, 6)'s former leaf
    assert fast.depth == ref.depth == 2
    assert archives[0].dump() == archives[1].dump()


# +-0 lie on faces of the first two dimensions and outside the third
SMALL_BOX = Region(np.array([-1.0, -0.0, 0.5]), np.array([0.0, 0.75, 3.0]))


def on_face_or_beyond(lo, hi):
    edges = [lo, hi, 0.0, -0.0, np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf),
             np.nan, np.inf, -np.inf]
    return st.one_of(st.sampled_from(edges), st.floats(lo, hi))


@seed(2019)
@settings(derandomize=True, deadline=None, max_examples=200)
@given(coords=st.tuples(*map(on_face_or_beyond, *SMALL_BOX.bounds)))
@example(coords=SMALL_BOX.bounds[0])
@example(coords=SMALL_BOX.bounds[1])
def test_domain_tests_agree(coords):
    box = SMALL_BOX
    x = np.array(coords)
    inside = box.contains(x)
    # the closed box by numpy's elementwise comparisons, false for NaN
    assert inside == bool(np.all((box.lower <= x) & (x <= box.upper)))
    assert inside == _in_box(*box.bounds, list(coords))
    ev = BudgetedEvaluator(Problem("sphere", box, sphere, 0.0, "unimodal"), 1)
    archive = BspArchive(box)
    if inside:
        assert ev(x) == sphere(x) and ev.used == 1
        assert isinstance(archive.insert(x), NewLeaf) and archive.n_points == 1
        assert same_bits(archive.root.point.coords, x)
        return
    with pytest.raises(DomainError):
        ev(x)
    assert ev.used == 0
    with pytest.raises(DomainError if np.isfinite(x).all() else InputError):
        archive.insert(x)
    assert archive.n_points == 0
