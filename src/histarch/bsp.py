"""Binary space partitioning archive over a box-shaped search domain.

Every evaluated solution is a leaf of the tree; the leaf cells tile the
domain exactly. The archive detects revisits (a candidate landing on an
already-stored point) and reports each with the revisited leaf's cell,
answers whether a new leaf's depth-``lv`` ancestor is a region of
interest, and can block exploited cells against further insertion.

A node stores only its split, its links, its point and the two flags the
policies need (``blocked``, ``last_touch``); only leaves hold points, and a
blocked cell is known by its flag alone. Cell bounds and depth are
derived: ``insert`` counts depth on its walk down the tree, and a cell is
the cell of an ancestor clipped by the splits between the two: the
domain for ``subtree`` and ``roi_trigger``, the cell of the node the walk
started at for a revisit. Nothing cached has to be rebuilt when pruning
moves a subtree up, so ``prune_lru`` costs one sort plus O(1) per removed
leaf.

The archive hands out a tree position in one form, a ``Subtree``: a node
at a known depth, its cell, and its box, the points whose walk from the
root passes through the node. The box is the cell with every upper face
that a split set moved one float down, as a walk sends a point on a split
value above the split. ``subtree`` gives the deepest node through which
every point of a closed query box routes, a ``Revisit`` carries the
revisited leaf's and an ``RoiSuggestion`` the region of interest's.
``insert(x, within=...)`` starts at ``within``'s node when ``x`` lies in
its box and at the root otherwise, with the same outcome, the same tree
and the same stamps either way; ``block`` closes a ``Subtree``'s cell.
Inserts only split leaves, so they keep a ``Subtree`` valid; ``block`` and
``prune_lru`` change the tree above leaves and make every ``Subtree``
taken before them stale, and ``insert`` and ``block`` reject a stale one.
``uniform_point`` is the one uniform draw from a box, the domain's
(``Region.bounds``) and a ``Subtree``'s cell alike.

Each child links back to its parent, so a tree is one reference cycle.
An archive breaks every parent link of its current tree when it is
released, so the tree is freed by reference counting at that moment and
never waits for the cyclic garbage collector. A node a caller keeps after
dropping its archive therefore has ``parent is None``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InputError, ParameterError, StructuralError


@dataclass(slots=True)
class SearchPoint:
    """One evaluated solution: coordinates, objective value, insertion age."""

    coords: np.ndarray
    fitness: float = float("nan")
    eval_index: int = 0


def _in_box(lower, upper, x) -> bool:
    """Whether ``x`` lies in the closed box [lower, upper]; all three are
    sequences of Python floats, which at these sizes compare faster than
    numpy arrays. A NaN coordinate never lies in a box."""
    for lo, v, hi in zip(lower, x, upper):
        if not lo <= v <= hi:
            return False
    return True


def _shape_error(dim: int, shape: tuple) -> InputError:
    """The error for coordinates of ``shape`` where a vector of ``dim`` values belongs."""
    return InputError(f"expected {dim} coordinates, got shape {shape}")


def uniform_point(lower, upper, rng: np.random.Generator) -> list:
    """A uniform draw from the box [lower, upper], given and returned as
    Python floats: the values and generator state of ``rng.uniform(lower,
    upper)`` at a fraction of its cost. It can round onto an upper face,
    and so fall outside a ``Subtree``'s box."""
    return [lo + (hi - lo) * u for lo, hi, u in
            zip(lower, upper, rng.random(len(lower)).tolist())]


@dataclass(frozen=True, eq=False)
class Region:
    """Immutable axis-aligned box with positive, finite extent per dimension.

    ``lower`` and ``upper`` are read-only arrays that no caller shares;
    ``bounds`` is ``(lower, upper)`` as tuples of Python floats. Regions
    compare and hash by identity; compare ``bounds`` for equal boxes.
    """

    lower: np.ndarray
    upper: np.ndarray
    bounds: tuple = field(init=False, repr=False)

    def __post_init__(self):
        lo = np.array(self.lower, dtype=float)
        hi = np.array(self.upper, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
            raise InputError("region bounds must be non-empty 1-D vectors of equal length")
        los, his = tuple(lo.tolist()), tuple(hi.tolist())
        for l, h in zip(los, his):
            # a Python float difference overflows to inf without a warning
            if not 0.0 < h - l < math.inf:
                if not all(map(math.isfinite, los + his)):
                    raise InputError("region bounds must be finite")
                raise ParameterError("region must have positive, finite extent in every dimension")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "bounds", (los, his))

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, coords: np.ndarray) -> bool:
        """Whether ``coords`` lies in the closed box; a NaN coordinate never does.

        Raises InputError unless ``coords`` is a vector of ``dim`` values.
        Kept for its two readers, which test one point once, so that each
        need not convert and shape-check it by hand: ``CmaState``'s check of
        its initial mean, and the benchmark's output check of a run's final
        coordinates (``perfbench/run.py``, ``check_run``). The evaluator's
        per-point and per-block tests run on bounds it reads once.
        """
        coords = np.asarray(coords, dtype=float)
        if coords.shape != self.lower.shape:
            raise _shape_error(self.dim, coords.shape)
        return _in_box(*self.bounds, coords.tolist())


class BspNode:
    """Tree node; a leaf holds a point, an internal node holds a split.

    Only the root of an empty archive holds neither. A node stores no
    bounds and no depth: ``insert`` reports a new leaf's depth and a
    revisited leaf's cell, and a ``Subtree`` carries a node's depth and
    cell.
    ``last_touch`` is the clock of the last insert that ended at the node.
    ``parent`` is ``None`` at the root, on a node ``prune_lru`` removed,
    and on every node once its archive has been released.
    """

    __slots__ = (
        "point",
        "split_dim",
        "split_value",
        "below",
        "above",
        "parent",
        "blocked",
        "last_touch",
    )

    def __init__(self, parent):
        self.point = None
        self.split_dim = -1
        self.split_value = 0.0
        self.below = None
        self.above = None
        self.parent = parent
        self.blocked = False
        self.last_touch = 0


@dataclass(slots=True)
class NewLeaf:
    """Insert created a fresh leaf for the coordinates at depth ``depth``."""

    node: BspNode
    depth: int


@dataclass(slots=True)
class Revisit:
    """The coordinates equal a stored point's, or are too close to it to
    split between them in floating point; ``cell`` is the Subtree of the
    revisited leaf, ``cell.node``."""

    cell: Subtree


@dataclass(slots=True)
class Blocked:
    """The insert path crossed a blocked sub-region; nothing was stored."""


@dataclass(frozen=True, slots=True)
class Subtree:
    """Where a walk may start: ``node`` at ``depth``, its cell [lower, upper]
    and its box [lower, box_upper], the points whose walk from the root
    passes through ``node``. ``box_upper`` is ``upper`` with every face a
    split set moved one float down; all three bounds are tuples of Python
    floats. Made by ``BspArchive.subtree`` and ``BspArchive.roi_trigger``
    or carried by a ``Revisit``, and valid for that archive until its next
    ``block`` or ``prune_lru``, which replace the archive's ``epoch``.
    """

    node: BspNode
    depth: int
    lower: tuple
    upper: tuple
    box_upper: tuple
    epoch: object


@dataclass(slots=True)
class RoiSuggestion:
    """A densely sampled cell, the Subtree ``cell``, plus the solutions
    stored inside it."""

    cell: Subtree
    seeds: list[SearchPoint]


def _preorder(node):
    """Each node under ``node`` in pre-order: a node, its below subtree, its
    above subtree. It yields bare nodes, as a full scan's cost is mostly
    per-node allocation; ``dump`` derives depths from parent links."""
    stack = [node]
    while stack:
        n = stack.pop()
        yield n
        if n.below is not None:
            stack.append(n.above)
            stack.append(n.below)


class BspArchive:
    """On-line search history stored as a BSP tree over ``domain``."""

    def __init__(self, domain: Region):
        self.domain = domain
        self.root = BspNode(None)
        self.n_points = 0
        self._clock = 0
        # replaced by every change above the leaves; a Subtree holds the
        # token it was taken under, so a stale or foreign one never matches
        self._epoch = object()

    # -- insertion ---------------------------------------------------

    def insert(self, coords: np.ndarray, within: Subtree | None = None):
        """Route ``coords`` to its leaf cell and grow the tree.

        Returns NewLeaf, Revisit or Blocked. The walk starts at
        ``within.node`` when ``coords`` lies in ``within``'s box, and at the
        root otherwise; both give the same outcome, tree and stamps. A
        Revisit's cell is clipped from the cell of the node the walk
        started at, so only the levels this walk went down are climbed
        again. The node where the walk ends (the blocked node, the
        revisited leaf or both new leaves) is stamped with the current
        clock. The LRU pruning policy reads the stamps of leaves only,
        and a walk that reaches a leaf ends there.

        Raises InputError for a wrong shape or a non-finite coordinate,
        DomainError for a point outside the domain and StructuralError
        for a ``within`` taken from another archive or before this
        archive's last block or prune. On any error nothing is stored and
        the clock does not advance.
        """
        if within is not None and within.epoch is not self._epoch:
            raise StructuralError("subtree is stale or from another archive")
        coords = np.asarray(coords, dtype=float)
        if coords.shape != self.domain.lower.shape:
            raise _shape_error(self.domain.dim, coords.shape)
        x = coords.tolist()
        if within is not None and _in_box(within.lower, within.box_upper, x):
            node, depth, cell = within.node, within.depth, (within.lower, within.upper)
        elif _in_box(*self.domain.bounds, x):
            node, depth, cell = self.root, 0, self.domain.bounds
        elif not all(map(math.isfinite, x)):
            raise InputError("coordinates must be finite")
        else:
            raise DomainError("coordinates outside the search domain")
        start = depth

        self._clock += 1
        clock = self._clock
        # the walk is the hot loop: plain attribute tests and Python
        # floats cost less per level than properties and numpy scalars
        while not node.blocked and node.below is not None:
            node = node.below if x[node.split_dim] < node.split_value else node.above
            depth += 1
        node.last_touch = clock
        if node.blocked:
            return Blocked()

        # empty archive: the root takes the first point as a depth-0 leaf
        if self.n_points == 0:
            node.point = SearchPoint(coords.copy(), eval_index=clock)
            self.n_points = 1
            return NewLeaf(node, 0)

        old = node.point
        y = old.coords.tolist()
        # split along the first largest coordinate gap, as np.argmax picks it
        gaps = [abs(p - q) for p, q in zip(x, y)]
        split_dim = gaps.index(max(gaps))
        a, b = y[split_dim], x[split_dim]
        split_value = 0.5 * (a + b)
        if not (min(a, b) < split_value < max(a, b)):
            # identical, or too close to separate in float
            return Revisit(self._subtree(node, depth, depth - start, cell))
        # the leaf becomes a split whose two leaf children hold the old
        # and the new point
        node.split_dim = split_dim
        node.split_value = split_value
        below = BspNode(node)
        above = BspNode(node)
        below.last_touch = clock
        above.last_touch = clock
        new_point = SearchPoint(coords.copy(), eval_index=clock)
        if a < split_value:
            below.point, above.point = old, new_point
            new_leaf = above
        else:
            below.point, above.point = new_point, old
            new_leaf = below
        node.below = below
        node.above = above
        node.point = None
        self.n_points += 1
        return NewLeaf(new_leaf, depth + 1)

    # -- queries -----------------------------------------------------

    def subtree(self, lower, upper) -> Subtree:
        """Subtree of the deepest node whose cell holds the closed box
        [lower, upper].

        Walks once from the root. At a split on dimension d at value s it
        goes below when upper[d] < s and above when lower[d] >= s; it stops
        at a split the box straddles, at a leaf or at a blocked node. Every
        point of the query box therefore routes through the returned node,
        and so lies in its box. Raises InputError unless the bounds are
        finite vectors of the domain's dimension, ParameterError when a
        lower bound exceeds its upper bound and DomainError when the box
        does not lie in the domain.
        """
        lo = np.asarray(lower, dtype=float)
        hi = np.asarray(upper, dtype=float)
        if lo.shape != self.domain.lower.shape or hi.shape != lo.shape:
            raise InputError(f"box bounds must be vectors of {self.domain.dim} values")
        los, his = lo.tolist(), hi.tolist()
        if not (_in_box(*self.domain.bounds, los) and _in_box(*self.domain.bounds, his)):
            if not all(map(math.isfinite, los + his)):
                raise InputError("box bounds must be finite")
            raise DomainError("box outside the search domain")
        if not all(l <= h for l, h in zip(los, his)):
            raise ParameterError("box lower bound exceeds its upper bound")
        node = self.root
        depth = 0
        while not node.blocked and node.below is not None:
            if his[node.split_dim] < node.split_value:
                node = node.below
            elif los[node.split_dim] >= node.split_value:
                node = node.above
            else:
                break
            depth += 1
        return self._subtree(node, depth, depth, self.domain.bounds)

    def _subtree(self, node, depth, levels, bounds) -> Subtree:
        """The Subtree of ``node`` at ``depth``. Its cell is ``bounds``, the
        cell of its ancestor ``levels`` up, clipped by every split in
        between, deepest last. Bounds are copied from split values, never
        computed, so a cell shares its faces bit for bit with its
        neighbours. An upper face below the domain's was set by a split,
        so the box moves it one float down."""
        lower, upper = map(list, bounds)
        path, ancestor = [], node
        for _ in range(levels):
            path.append(ancestor)
            ancestor = ancestor.parent
        for child in reversed(path):
            parent = child.parent
            if parent.below is child:
                upper[parent.split_dim] = parent.split_value
            else:
                lower[parent.split_dim] = parent.split_value
        nextafter, inf = math.nextafter, math.inf
        box_upper = tuple([hi if hi == top else nextafter(hi, -inf)
                           for hi, top in zip(upper, self.domain.bounds[1])])
        return Subtree(node, depth, tuple(lower), tuple(upper), box_upper, self._epoch)

    def roi_trigger(self, leaf: NewLeaf, lv: int, k: int) -> RoiSuggestion | None:
        """Region-of-interest query for a leaf just returned by insert.

        ``lv`` and ``k`` are the caller's non-negative depth thresholds.
        Fires when the leaf's depth is >= lv + k; the suggestion's cell is
        the Subtree of the leaf's ancestor at depth lv, and its seeds are
        every leaf point stored underneath that ancestor at the time of
        the query. Reads the tree and changes nothing.
        """
        if leaf.depth < lv + k:
            return None
        node = leaf.node
        for _ in range(leaf.depth - lv):
            node = node.parent
        seeds = [n.point for n in self._leaves(node)]
        return RoiSuggestion(self._subtree(node, lv, lv, self.domain.bounds), seeds)

    def block(self, cell: Subtree):
        """Close ``cell`` to future insertion.

        The flag is the only record of the block: ``insert`` returns
        Blocked for every point routed through ``cell.node``. Raises
        StructuralError, and changes nothing, for a ``cell`` taken from
        another archive or before this archive's last block or prune.
        """
        if cell.epoch is not self._epoch:
            raise StructuralError("subtree is stale or from another archive")
        cell.node.blocked = True
        self._epoch = object()

    @property
    def n_leaves(self) -> int:
        """``n_points`` under the name the benchmark script reads."""
        return self.n_points

    def iter_leaves(self):
        return iter(self._leaves(self.root))

    def _leaves(self, node):
        """The leaves under ``node`` that hold a point, in pre-order."""
        return [n for n in _preorder(node) if n.below is None and n.point is not None]

    # -- memory management --------------------------------------------

    def prune_lru(self, fraction: float):
        """Drop the least recently traversed leaves, merging siblings up.

        Removes floor(fraction * n_points) leaves in order of oldest
        last_touch (ties: older stored point first). Each removal splices
        the removed leaf's sibling into the parent slot, so the surviving
        cells still tile the domain. Costs one sort plus O(1) per removed
        leaf.
        """
        if not (0.0 < fraction < 1.0):
            raise ParameterError("prune fraction must lie in (0, 1)")
        if self.n_points == 0:
            raise ParameterError("cannot prune an empty archive")
        self._epoch = object()
        n_remove = int(np.floor(fraction * self.n_points))
        if n_remove == 0:
            return
        victims = sorted(
            self._leaves(self.root),
            key=lambda leaf: (leaf.last_touch, leaf.point.eval_index),
        )[:n_remove]
        for leaf in victims:
            self._remove_leaf(leaf)

    def _remove_leaf(self, leaf):
        parent = leaf.parent
        if parent is None:
            raise StructuralError("cannot remove the last remaining cell")
        sibling = parent.above if leaf is parent.below else parent.below
        grand = parent.parent
        # sibling takes over the parent's slot and (wider) cell, and with
        # it any block on that cell: a block is forgotten only together
        # with the last point stored under it
        sibling.parent = grand
        sibling.blocked = sibling.blocked or parent.blocked
        if grand is None:
            self.root = sibling
        elif grand.below is parent:
            grand.below = sibling
        else:
            grand.above = sibling
        # the removed leaf and its parent link each other, a reference
        # cycle: breaking it frees both by reference counting
        leaf.parent = parent.parent = None
        self.n_points -= 1

    def __del__(self):
        # see the module docstring: the released tree must hold no cycle
        for node in _preorder(self.root):
            node.parent = None

    # -- debug dump ----------------------------------------------------

    def dump(self) -> str:
        """Pre-order text dump, one node per line.

        Internal lines read ``depth internal split_dim split_value blocked``;
        leaf lines read ``depth leaf - - blocked`` followed by the point's
        coordinates.
        """
        lines = []
        depths = {None: -1}  # the root's parent; then each internal node's depth
        for n in _preorder(self.root):
            depth = depths[n.parent] + 1
            if n.below is not None:
                depths[n] = depth
                lines.append(f"{depth} internal {n.split_dim} {float(n.split_value)!r} "
                             f"{int(n.blocked)}")
            elif n.point is not None:
                coords = " ".join(repr(float(c)) for c in n.point.coords)
                lines.append(f"{depth} leaf - - {int(n.blocked)} {coords}")
        return "".join(line + "\n" for line in lines)
