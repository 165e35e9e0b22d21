import numpy as np
import pytest

from histarch import (Blocked, BspArchive, DomainError, InputError, NewLeaf,
                      ParameterError, Region, Revisit, StructuralError, Subtree, uniform_point)
from util import (bsp_nodes_left_by, depth_of, interiors_disjoint, locate_brute,
                  max_leaf_depth, ref_split_dim, ref_uniform_point, same_rng_state,
                  subtree_of, tiling_relative_error, uniform_array, walk_region)


def box(lo, hi, dim=2):
    return Region(np.full(dim, float(lo)), np.full(dim, float(hi)))


def fresh(dim=2, lo=0.0, hi=10.0):
    return BspArchive(box(lo, hi, dim))


def fill_random(archive, n, rng):
    for _ in range(n):
        archive.insert(uniform_array(archive.domain, rng))
    return archive


# -- region ---------------------------------------------------------------

def test_region_contains_closed_box():
    region = Region(np.array([0.0, -1.0, 2.0]), np.array([1.0, 1.0, 3.0]))
    assert region.contains(region.lower) and region.contains(region.upper)
    assert region.contains(np.array([0.5, 0.0, 2.5]))
    assert not region.contains(np.array([np.nextafter(0.0, -1.0), 0.0, 2.5]))
    assert not region.contains(np.array([0.5, 0.0, np.nextafter(3.0, 4.0)]))
    assert not region.contains(np.array([0.5, np.nan, 2.5]))
    assert not region.contains(np.array([0.5, 0.0, np.inf]))


@pytest.mark.parametrize("coords", [np.zeros(2), np.zeros(4), np.zeros((1, 3)), 0.5],
                         ids=["short", "long", "row", "scalar"])
def test_region_contains_rejects_wrong_shape(coords):
    region = Region(np.full(3, -1.0), np.ones(3))
    with pytest.raises(InputError):
        region.contains(coords)


def test_region_rejects_empty_non_finite_and_overflowing_sides():
    with pytest.raises(ParameterError):
        Region(np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(InputError):
        Region(np.array([0.0, np.nan]), np.ones(2))
    with pytest.raises(InputError):  # a non-finite bound outranks an empty side
        Region(np.array([5.0, 0.0]), np.array([1.0, np.inf]))
    with pytest.raises(ParameterError):
        Region(np.full(2, -1e308), np.full(2, 1e308))
    with pytest.raises(ParameterError):
        Region(np.array([0.0, -1.7e308]), np.array([1.0, 1.7e308]))
    with pytest.raises(InputError):  # a box with no dimension
        Region([], [])
    widest = Region(np.full(2, -8e307), np.full(2, 8e307))  # 1.6e308 is finite
    assert np.isfinite(uniform_point(*widest.bounds, np.random.default_rng(0))).all()


def test_region_owns_read_only_bounds():
    lo = np.zeros(2)
    region = Region(lo, np.ones(2))
    lo[0] = 5.0
    assert np.array_equal(region.lower, [0.0, 0.0])
    assert region.contains(np.array([0.5, 0.5]))
    for view in (region.lower, region.upper):
        with pytest.raises(ValueError):
            view[0] = 1.0
    assert region.contains(np.array([0.5, 0.5]))


def test_regions_compare_and_hash_by_identity():
    a, b = Region(np.zeros(2), np.ones(2)), Region([0.0, 0.0], [1.0, 1.0])
    assert a == a and a != b  # no ambiguous ndarray comparison
    assert len({a, b, a}) == 2
    assert a.bounds == b.bounds


def assert_same_uniform_draws(region, seed, n=200):
    """``uniform_point``, from the region's bounds and from a cell with
    the region's bounds, draws what numpy's bounded uniform draws, as a
    list of Python floats."""
    cell = Subtree(None, 0, *region.bounds, region.bounds[1], None)
    fast, ref, via_cell = (np.random.default_rng(seed) for _ in range(3))
    for _ in range(n):
        drawn = uniform_point(*region.bounds, fast)
        assert type(drawn) is list and all(type(v) is float for v in drawn)
        point = np.array(drawn)
        assert point.tobytes() == ref_uniform_point(region, ref).tobytes()
        assert np.array(uniform_point(cell.lower, cell.upper, via_cell)).tobytes() == point.tobytes()
        assert region.contains(point)
    assert same_rng_state(fast, ref) and same_rng_state(via_cell, ref)


@pytest.mark.parametrize("dim", [2, 10, 30])
def test_uniform_point_matches_reference_draw(dim):
    rng = np.random.default_rng(dim)
    for seed in range(20):
        # bounds and widths from 1e-300 to 1e3 in size: some sides are
        # 1e-300 wide, some only a few ulps of their bounds
        lower = rng.uniform(-1.0, 1.0, dim) * 10.0 ** rng.uniform(-300.0, 3.0, dim)
        upper = lower + 10.0 ** rng.uniform(-300.0, 3.0, dim)
        upper = np.maximum(upper, np.nextafter(lower, np.inf))
        assert_same_uniform_draws(Region(lower, upper), seed)


def test_uniform_point_matches_reference_draw_in_deep_cell():
    ar = fresh(dim=3)
    rng = np.random.default_rng(11)
    centre = np.array([3.0, 7.0, 5.0])
    for k in range(1, 60):  # points closing in on centre
        ar.insert(centre + 2.0 ** -k * rng.uniform(-1.0, 1.0, 3))
    deepest = max(ar.iter_leaves(), key=depth_of)
    assert depth_of(deepest) >= 40
    assert_same_uniform_draws(Region(*walk_region(ar, deepest)), seed=12)


# -- insert ---------------------------------------------------------------

def test_first_insert_is_depth_zero_leaf():
    ar = fresh()
    out = ar.insert(np.array([2.0, 5.0]))
    assert isinstance(out, NewLeaf)
    assert out.depth == 0
    assert out.node is ar.root and ar.root.below is None and ar.root.point is not None
    assert ar.n_points == 1
    assert list(ar.iter_leaves()) == [ar.root]


def test_first_insert_and_prune_to_one_point_give_same_tree():
    first = fresh()
    first.insert(np.array([8.0, 6.0]))
    pruned = fresh()
    pruned.insert(np.array([2.0, 5.0]))
    pruned.insert(np.array([8.0, 6.0]))
    pruned.insert(np.array([8.0, 6.0]))  # revisit: the (2, 5) leaf is now older
    pruned.prune_lru(0.5)
    assert pruned.dump() == first.dump() == "0 leaf - - 0 8.0 6.0\n"


def test_second_insert_splits_root_on_max_difference_dim():
    ar = fresh()
    ar.insert(np.array([2.0, 5.0]))
    out = ar.insert(np.array([8.0, 6.0]))
    assert isinstance(out, NewLeaf)
    assert out.depth == 1
    assert ar.root.split_dim == 0
    assert ar.root.split_value == 5.0
    leaves = list(ar.iter_leaves())
    assert sorted(depth_of(leaf) for leaf in leaves) == [1, 1]


def test_exact_duplicate_is_revisit():
    ar = fresh()
    first = ar.insert(np.array([2.0, 5.0]))
    out = ar.insert(np.array([2.0, 5.0]))
    assert isinstance(out, Revisit)
    assert out.cell.node is first.node
    assert ar.n_points == 1


def test_tie_break_picks_lowest_dimension():
    ar = fresh()
    ar.insert(np.array([2.0, 2.0]))
    ar.insert(np.array([6.0, 6.0]))  # equal differences on both dims
    assert ar.root.split_dim == 0


@pytest.mark.parametrize("dim", [2, 4])
def test_split_dim_matches_argmax_reference(dim):
    # grid coordinates make tied gaps common
    rng = np.random.default_rng(dim)
    ar = fresh(dim=dim)
    splits = 0
    for _ in range(400):
        coords = 1.25 * rng.integers(0, 9, dim)
        outcome = ar.insert(coords)
        if not isinstance(outcome, NewLeaf) or outcome.depth == 0:
            continue
        parent = outcome.node.parent
        old = (parent.above if parent.below is outcome.node else parent.below).point
        assert parent.split_dim == ref_split_dim(coords, old.coords)
        assert parent.split_value == 0.5 * (old.coords[parent.split_dim] + coords[parent.split_dim])
        splits += 1
    assert splits >= 40


def test_insert_outside_domain_raises():
    ar = fresh()
    with pytest.raises(DomainError):
        ar.insert(np.array([11.0, 5.0]))


def test_insert_non_finite_raises():
    ar = fresh()
    with pytest.raises(InputError):
        ar.insert(np.array([np.nan, 5.0]))


def test_subtree_rejects_bad_boxes_and_foreign_archives():
    ar = fill_random(fresh(), 50, np.random.default_rng(5))
    with pytest.raises(InputError):
        ar.subtree([1.0], [2.0])
    with pytest.raises(InputError):
        ar.subtree([np.nan, 1.0], [2.0, 2.0])
    with pytest.raises(DomainError):
        ar.subtree([1.0, 1.0], [11.0, 2.0])
    with pytest.raises(ParameterError):
        ar.subtree([3.0, 1.0], [2.0, 2.0])
    within = ar.subtree([1.0, 1.0], [2.0, 2.0])
    assert within.depth == depth_of(within.node) > 0
    for bad in ([1.5], [np.nan, 1.5]):
        with pytest.raises(InputError):
            ar.insert(bad, within=within)
    # an archive with an equal tree must still refuse another's subtree
    twin = fill_random(fresh(), 50, np.random.default_rng(5))
    with pytest.raises(StructuralError):
        twin.insert([1.5, 1.5], within=within)
    assert ar.n_points == twin.n_points == 50


def test_subtree_of_a_box_ending_on_a_split_is_above_that_split():
    # a point on the split value x0 = 5 routes above it, so a box whose
    # upper face lies on the split straddles it
    ar = fresh()
    ar.insert(np.array([2.0, 5.0]))
    ar.insert(np.array([8.0, 6.0]))
    within = ar.subtree([1.0, 1.0], [5.0, 2.0])
    assert within.node is ar.root and within.box_upper == (10.0, 10.0)
    assert ar.subtree([5.0, 1.0], [5.0, 2.0]).node is ar.root.above
    below = ar.subtree([1.0, 1.0], [np.nextafter(5.0, 0.0), 2.0])
    assert below.node is ar.root.below and below.box_upper == (np.nextafter(5.0, 0.0), 10.0)


def test_split_leaf_hands_its_point_to_a_child():
    ar = fresh()
    ar.insert(np.array([2.0, 5.0]))
    ar.insert(np.array([8.0, 6.0]))
    ar.insert(np.array([1.0, 1.0]))  # splits the (2,5) leaf
    internal = ar.root.below
    assert internal.below is not None
    assert internal.point is None
    assert ar.root.point is None
    leaf_coords = sorted(tuple(l.point.coords) for l in ar.iter_leaves())
    assert (2.0, 5.0) in leaf_coords and (1.0, 1.0) in leaf_coords


# -- cells / revisit cells -------------------------------------------------

def test_every_leaf_point_inside_its_region_random_tree():
    rng = np.random.default_rng(7)
    ar = fill_random(fresh(dim=3), 200, rng)
    for leaf in ar.iter_leaves():
        lo, hi = walk_region(ar, leaf)
        assert (leaf.point.coords >= lo).all() and (leaf.point.coords <= hi).all()


def test_split_value_strictly_between_creating_points():
    rng = np.random.default_rng(8)
    ar = fresh(dim=2)
    pts = [uniform_array(ar.domain, rng) for _ in range(100)]
    for p in pts:
        ar.insert(p)
    stack = [ar.root]
    while stack:
        node = stack.pop()
        if node.below is not None:
            lo, hi = walk_region(ar, node)
            assert lo[node.split_dim] < node.split_value < hi[node.split_dim]
            stack.extend((node.below, node.above))


def test_mutation_region_is_revisited_leaf_cell():
    ar = fresh()
    ar.insert(np.array([2.0, 5.0]))
    ar.insert(np.array([8.0, 6.0]))
    out = ar.insert(np.array([2.0, 5.0]))
    cell = out.cell
    assert cell.node is ar.root.below and cell.depth == 1
    assert (cell.lower, cell.upper) == ((0.0, 0.0), (5.0, 10.0))
    # the split at x0 = 5 sends x0 == 5 above, so the box ends one float
    # below it; the domain's face x1 = 10 stays closed
    assert cell.box_upper == (np.nextafter(5.0, 0.0), 10.0)


def test_deep_mutation_region_shrinks():
    rng = np.random.default_rng(9)
    ar = fill_random(fresh(), 300, rng)
    deepest = max(ar.iter_leaves(), key=depth_of)
    cell = ar.insert(deepest.point.coords).cell
    lower, upper = cell.lower, cell.upper
    assert np.log(np.subtract(upper, lower)).sum() < np.log(ar.domain.upper - ar.domain.lower).sum()


def test_mutation_region_resample_never_revisits():
    rng = np.random.default_rng(10)
    ar = fresh()
    ar.insert(np.array([2.0, 5.0]))
    ar.insert(np.array([8.0, 6.0]))
    out = ar.insert(np.array([2.0, 5.0]))
    revisits = 0
    for _ in range(1000):
        sample = uniform_point(out.cell.lower, out.cell.upper, rng)
        if not isinstance(ar.insert(sample, out.cell), NewLeaf):
            revisits += 1
    assert revisits == 0


# -- tiling / structure ----------------------------------------------------

def test_tiling_holds_during_growth():
    rng = np.random.default_rng(11)
    ar = fresh(dim=3)
    for chunk in range(5):
        fill_random(ar, 100, rng)
        assert tiling_relative_error(ar) <= 1e-9


def test_leaf_interiors_pairwise_disjoint():
    rng = np.random.default_rng(12)
    ar = fill_random(fresh(), 100, rng)
    assert interiors_disjoint(ar)


def test_point_location_matches_brute_force():
    rng = np.random.default_rng(13)
    ar = fill_random(fresh(dim=3), 250, rng)
    for _ in range(200):
        x = uniform_array(ar.domain, rng)
        node = ar.root
        while node.below is not None:
            node = node.below if x[node.split_dim] < node.split_value else node.above
        assert node.point is not None
        assert locate_brute(ar, x) is node


def test_same_sequence_gives_identical_tree():
    rng = np.random.default_rng(14)
    pts = [np.random.default_rng(99).uniform(0, 10, 2) for _ in range(150)]
    a, b = fresh(), fresh()
    for p in pts:
        a.insert(p.copy())
        b.insert(p.copy())
    assert a.dump() == b.dump()


def test_max_depth_never_decreases_without_pruning():
    rng = np.random.default_rng(15)
    ar = fresh()
    prev = 0
    for _ in range(300):
        ar.insert(uniform_array(ar.domain, rng))
        depth = max_leaf_depth(ar)
        assert depth >= prev
        prev = depth


def test_n_points_counts_new_leaf_outcomes():
    rng = np.random.default_rng(16)
    ar = fresh()
    new_leaves = 0
    for _ in range(100):
        coords = np.round(uniform_array(ar.domain, rng))  # force some duplicates
        if isinstance(ar.insert(coords), NewLeaf):
            new_leaves += 1
    assert ar.n_points == new_leaves
    assert len(list(ar.iter_leaves())) == new_leaves


# -- roi trigger -----------------------------------------------------------

def chain_insert(ar, n, dim=2):
    """n nested points along dimension 0, deepening one path each time;
    returns the n NewLeafs in insert order."""
    value = 8.0
    coords = np.full(dim, 5.0)
    leaves = []
    for _ in range(n):
        coords = coords.copy()
        coords[0] = value
        leaves.append(ar.insert(coords))
        value /= 2.0
    assert all(isinstance(leaf, NewLeaf) for leaf in leaves)
    return leaves


def first_roi(ar, leaves, lv, k):
    """The first ROI the trigger reports over ``leaves``, in insert order."""
    for leaf in leaves:
        roi = ar.roi_trigger(leaf, lv, k)
        if roi is not None:
            return roi
    return None


def test_roi_trigger_quiet_below_threshold():
    ar = fresh()
    leaves = chain_insert(ar, 21)  # deepest leaf at depth 20
    assert max_leaf_depth(ar) == 20
    assert first_roi(ar, leaves, 17, 4) is None


def test_roi_trigger_fires_at_lv_plus_k():
    ar = fresh()
    leaves = chain_insert(ar, 22)  # deepest leaf now at depth 21
    assert max_leaf_depth(ar) == 21
    roi = first_roi(ar, leaves, 17, 4)
    assert roi is not None
    assert roi.cell.depth == depth_of(roi.cell.node) == 17
    # the cell and box are the oracle's, bit for bit, under the current epoch
    assert roi.cell == subtree_of(ar, roi.cell.node)
    cell = Region(roi.cell.lower, roi.cell.upper)
    for seed in roi.seeds:
        assert cell.contains(seed.coords)


def test_roi_chain_has_k_plus_one_seeds():
    k = 4
    ar = fresh()
    roi = first_roi(ar, chain_insert(ar, k + 1), 0, k)
    assert roi is not None
    assert roi.cell.node is ar.root
    assert (roi.cell.lower, roi.cell.upper) == ar.domain.bounds
    assert len(roi.seeds) == k + 1


def test_roi_seeds_are_leaves_and_distinct():
    ar = fresh()
    rng = np.random.default_rng(17)
    roi = None
    while roi is None:
        outcome = ar.insert(uniform_array(ar.domain, rng) / 4.0)  # cluster to deepen fast
        if isinstance(outcome, NewLeaf):
            roi = ar.roi_trigger(outcome, 2, 3)
    seeds = roi.seeds
    coords = np.array([s.coords for s in seeds])
    for i in range(len(coords)):
        for j in range(i + 1, len(coords)):
            assert np.abs(coords[i] - coords[j]).max() > 0


# -- blocking ---------------------------------------------------------------

def test_block_root_blocks_everything():
    rng = np.random.default_rng(18)
    ar = fill_random(fresh(), 10, rng)
    ar.block(subtree_of(ar, ar.root))
    for _ in range(20):
        assert isinstance(ar.insert(uniform_array(ar.domain, rng)), Blocked)


def test_blocked_subroot_rejects_its_own_centroid():
    ar = fresh()
    chain_insert(ar, 4)
    cell = subtree_of(ar, ar.root.below)  # a proper subtree, not the root
    ar.block(cell)
    centroid = 0.5 * (np.array(cell.lower) + np.array(cell.upper))
    assert isinstance(ar.insert(centroid), Blocked)


def test_blocking_matches_box_membership_oracle():
    rng = np.random.default_rng(19)
    ar = fill_random(fresh(), 60, rng)
    subroot = next(n for n in _internal_nodes(ar) if depth_of(n) == 2)
    ar.block(subtree_of(ar, subroot))
    lo, hi = walk_region(ar, subroot)
    for _ in range(1000):
        x = uniform_array(ar.domain, rng)
        inside = bool((x >= lo).all() and (x <= hi).all())
        outcome = ar.insert(x)
        if inside:
            assert isinstance(outcome, Blocked)
        else:
            assert not isinstance(outcome, Blocked)


def _flags_dump_clock(ar):
    flags = [n.blocked for n in _internal_nodes(ar)] + [n.blocked for n in ar.iter_leaves()]
    return flags, ar.dump(), ar._clock


def test_block_refuses_a_foreign_or_stale_subtree():
    ar, twin = fresh(), fresh()
    for archive in (ar, twin):
        fill_random(archive, 40, np.random.default_rng(20))
    before = _flags_dump_clock(ar)
    foreign = subtree_of(twin, twin.root.below)
    with pytest.raises(StructuralError):
        ar.block(foreign)
    assert _flags_dump_clock(ar) == before and not ar.root.below.blocked
    for change in (lambda: ar.block(subtree_of(ar, ar.root.above)),
                   lambda: ar.prune_lru(0.25)):
        stale = subtree_of(ar, ar.root.below)
        change()
        before = _flags_dump_clock(ar)
        with pytest.raises(StructuralError):
            ar.block(stale)
        assert _flags_dump_clock(ar) == before
    assert not ar.root.below.blocked


def test_roi_cell_outlives_inserts_and_blocks_its_node():
    ar = fresh()
    roi = first_roi(ar, chain_insert(ar, 6), 2, 3)
    assert roi is not None and roi.cell.depth == 2
    # (9, 9) lands outside the cell; inserts only split leaves, so the
    # cell stays valid
    assert isinstance(ar.insert(np.array([9.0, 9.0])), NewLeaf)
    ar.block(roi.cell)
    assert roi.cell.node.blocked
    centre = 0.5 * (np.array(roi.cell.lower) + np.array(roi.cell.upper))
    assert isinstance(ar.insert(centre), Blocked)


def _internal_nodes(ar):
    stack = [ar.root]
    while stack:
        node = stack.pop()
        if node.below is not None:
            yield node
            stack.extend((node.below, node.above))


# -- pruning -----------------------------------------------------------------

def test_prune_floor_to_zero_is_noop():
    ar = fresh()
    ar.insert(np.array([2.0, 5.0]))
    ar.insert(np.array([8.0, 6.0]))
    before = ar.dump()
    ar.prune_lru(0.499)
    assert ar.dump() == before


def test_prune_fraction_out_of_range():
    ar = fresh()
    ar.insert(np.array([2.0, 5.0]))
    with pytest.raises(ParameterError):
        ar.prune_lru(0.0)
    with pytest.raises(ParameterError):
        ar.prune_lru(1.0)


def test_prune_four_leaf_tree_drops_two_oldest():
    # a, b first; then c splits a's cell, d splits b's cell. The a-side
    # leaves (a and c) were last touched before the b-side ones.
    ar = fresh()
    ar.insert(np.array([2.0, 5.0]))   # a
    ar.insert(np.array([8.0, 6.0]))   # b
    ar.insert(np.array([1.0, 1.0]))   # c, splits a's leaf
    ar.insert(np.array([9.0, 9.0]))   # d, splits b's leaf
    assert ar.n_points == 4
    ar.prune_lru(0.5)
    assert ar.n_points == 2
    remaining = sorted(tuple(l.point.coords) for l in ar.iter_leaves())
    assert remaining == [(8.0, 6.0), (9.0, 9.0)]
    assert tiling_relative_error(ar) <= 1e-9


def test_prune_preserves_tiling_and_allows_more_inserts():
    rng = np.random.default_rng(20)
    ar = fill_random(fresh(dim=3), 300, rng)
    ar.prune_lru(0.5)
    assert ar.n_points == 150
    assert tiling_relative_error(ar) <= 1e-9
    fill_random(ar, 100, rng)
    assert tiling_relative_error(ar) <= 1e-9
    assert interiors_disjoint_fast(ar, rng)


def interiors_disjoint_fast(ar, rng, probes=300):
    for _ in range(probes):
        x = uniform_array(ar.domain, rng)
        locate_brute(ar, x)  # asserts uniqueness internally
    return True


def test_prune_to_single_leaf_then_insert():
    ar = fresh()
    ar.insert(np.array([2.0, 5.0]))
    ar.insert(np.array([8.0, 6.0]))
    ar.prune_lru(0.5)
    assert ar.n_points == 1
    assert tiling_relative_error(ar) <= 1e-9
    out = ar.insert(np.array([1.0, 1.0]))
    assert isinstance(out, NewLeaf)
    assert ar.n_points == 2
    assert tiling_relative_error(ar) <= 1e-9


def test_lru_recency_updated_by_failed_inserts():
    ar = fresh()
    ar.insert(np.array([2.0, 5.0]))
    ar.insert(np.array([8.0, 6.0]))
    left = ar.root.below
    clock_before = left.last_touch
    ar.insert(np.array([2.0, 5.0]))  # revisit traverses the left leaf
    assert left.last_touch > clock_before


# -- lifetime -----------------------------------------------------------------

def test_dropped_archive_leaves_no_tree_for_the_cyclic_collector():
    def grow_prune_block_drop():
        ar = fresh()
        rng = np.random.default_rng(23)
        # the first point stays the root's below leaf and is the oldest,
        # so pruning removes it and the above subtree becomes the root
        ar.insert(np.array([0.5, 5.0]))
        for _ in range(200):
            ar.insert(rng.uniform([9.0, 0.0], [10.0, 10.0]))
        old_root = ar.root
        ar.prune_lru(0.5)
        assert ar.root is not old_root and ar.n_points == 101
        cell = subtree_of(ar, ar.root.below)
        ar.block(cell)
        assert isinstance(ar.insert(uniform_point(cell.lower, cell.upper, rng)), Blocked)
    assert len(bsp_nodes_left_by(grow_prune_block_drop)) == 0


def test_node_kept_after_its_archive_is_dropped_has_no_parent():
    ar = fill_random(fresh(), 20, np.random.default_rng(25))
    leaf = next(ar.iter_leaves())
    assert leaf.parent is not None
    del ar
    assert leaf.parent is None


# -- dump ---------------------------------------------------------------------

def test_dump_format_fields():
    ar = fresh()
    ar.insert(np.array([2.0, 5.0]))
    ar.insert(np.array([8.0, 6.0]))
    lines = ar.dump().strip().split("\n")
    assert len(lines) == 3
    root_fields = lines[0].split(" ")
    assert len(root_fields) == 5  # no coordinates on internal lines
    assert root_fields[0] == "0"
    assert root_fields[1] == "internal"
    assert root_fields[2] == "0"
    assert float(root_fields[3]) == 5.0
    leaf_fields = lines[1].split(" ")
    assert leaf_fields[1] == "leaf"
    assert leaf_fields[2] == "-" and leaf_fields[3] == "-"
    assert [float(c) for c in leaf_fields[5:]] == [2.0, 5.0]
