"""Binary space partitioning archive over a box-shaped search domain.

Every evaluated solution is a leaf of the tree; the leaf cells tile the
domain exactly. The archive detects revisits (a candidate landing on an
already-stored point), hands out per-leaf mutation boxes, answers whether
a new leaf's sub-region counts as a region of interest, and can block
exploited sub-regions against further insertion.

A node stores only its split, its links, its point and the two flags the
policies need (``blocked``, ``last_touch``); only leaves hold points, and a
blocked cell is known by its flag alone. Cell bounds and depth are
derived: ``insert`` counts depth on its walk down from the root, and
``region_of`` clips the domain along the ancestor path. Nothing cached
has to be rebuilt when pruning moves a subtree up, so ``prune_lru`` costs
one sort plus O(1) per removed leaf.
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


@dataclass(frozen=True, eq=False)
class Region:
    """Immutable axis-aligned box with positive, finite extent per dimension.

    ``lower``, ``upper`` and ``span = upper - lower`` are read-only arrays
    that no caller shares; ``bounds`` is ``(lower, upper)`` as tuples of
    Python floats. Regions compare and hash by identity; compare
    ``bounds`` for equal boxes.
    """

    lower: np.ndarray
    upper: np.ndarray
    span: np.ndarray = field(init=False, repr=False)
    bounds: tuple = field(init=False, repr=False)

    def __post_init__(self):
        lo = np.array(self.lower, dtype=float)
        hi = np.array(self.upper, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise InputError("region bounds must be 1-D vectors of equal length")
        los, his = tuple(lo.tolist()), tuple(hi.tolist())
        for l, h in zip(los, his):
            # a Python float difference overflows to inf without a warning
            if not 0.0 < h - l < math.inf:
                if not all(map(math.isfinite, los + his)):
                    raise InputError("region bounds must be finite")
                raise ParameterError("region must have positive, finite extent in every dimension")
        span = hi - lo
        lo.setflags(write=False)
        hi.setflags(write=False)
        span.setflags(write=False)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "span", span)
        object.__setattr__(self, "bounds", (los, his))

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, coords: np.ndarray) -> bool:
        """Whether ``coords`` lies in the closed box; a NaN coordinate never does.

        Raises InputError unless ``coords`` is a vector of ``dim`` values.
        The bounds are compared as Python floats, which at these sizes is
        cheaper than numpy comparisons and reductions.
        """
        coords = np.asarray(coords, dtype=float)
        if coords.shape != self.lower.shape:
            raise InputError(f"expected {self.dim} coordinates, got shape {coords.shape}")
        los, his = self.bounds
        for lo, x, hi in zip(los, coords.tolist(), his):
            if not lo <= x <= hi:
                return False
        return True

    def log_volume(self) -> float:
        # summed in log space so thin 30-D cells do not underflow
        return float(np.log(self.span).sum())

    def uniform_point(self, rng: np.random.Generator) -> np.ndarray:
        # the values and generator state of rng.uniform(lower, upper), at a
        # fifth of its cost
        return self.lower + self.span * rng.random(self.lower.size)


class BspNode:
    """Tree node; a leaf holds a point, an internal node holds a split.

    Only the root of an empty archive holds neither. A node stores no
    bounds and no depth: its cell is ``BspArchive.region_of(node)``, and
    ``insert`` reports a new leaf's depth. ``last_touch`` is the clock of
    the last insert that ended at the node.
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

    def __init__(self, parent, point=None):
        self.point = point
        self.split_dim = -1
        self.split_value = 0.0
        self.below = None
        self.above = None
        self.parent = parent
        self.blocked = False
        self.last_touch = 0

    @property
    def is_internal(self) -> bool:
        return self.below is not None


@dataclass(slots=True)
class NewLeaf:
    """Insert created a fresh leaf for the coordinates at depth ``depth``."""

    node: BspNode
    depth: int


@dataclass(slots=True)
class Revisit:
    """The coordinates equal a stored point's, or are too close to it to
    split between them in floating point."""

    leaf: BspNode


@dataclass(slots=True)
class Blocked:
    """The insert path crossed a blocked sub-region; nothing was stored."""


@dataclass
class RoiSuggestion:
    """A densely sampled sub-region plus the solutions found inside it."""

    subroot: BspNode
    region: Region
    seeds: list[SearchPoint]


class BspArchive:
    """On-line search history stored as a BSP tree over ``domain``."""

    def __init__(self, domain: Region):
        self.domain = domain
        self.root = BspNode(None)
        self.n_points = 0
        self._clock = 0

    # -- insertion ---------------------------------------------------

    def insert(self, coords: np.ndarray):
        """Route ``coords`` to its leaf cell and grow the tree.

        Returns NewLeaf, Revisit or Blocked. The node where the walk ends
        (the blocked node, the revisited leaf or both new leaves) is
        stamped with the current clock. The LRU pruning policy reads the
        stamps of leaves only, and a walk that reaches a leaf ends there.
        """
        coords = np.asarray(coords, dtype=float)
        if not self.domain.contains(coords):  # also rejects a wrong shape
            if not np.isfinite(coords).all():
                raise InputError("coordinates must be finite")
            raise DomainError("coordinates outside the search domain")

        self._clock += 1
        clock = self._clock
        node = self.root
        depth = 0
        x = coords.tolist()
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
            return Revisit(node)  # identical, or too close to separate in float
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

    def region_of(self, node: BspNode) -> Region:
        """Cell of ``node``: the domain clipped by every ancestor split.

        Bounds are copied from split values, never computed, so a cell
        shares its faces bit for bit with its neighbours.
        """
        path = []
        top = node
        while top.parent is not None:
            path.append(top)
            top = top.parent
        if top is not self.root:
            raise StructuralError("node does not belong to this archive")
        lower, upper = map(list, self.domain.bounds)
        for child in reversed(path):
            parent = child.parent
            if parent.below is child:
                upper[parent.split_dim] = parent.split_value
            else:
                lower[parent.split_dim] = parent.split_value
        return Region(lower, upper)

    def mutation_region(self, revisited_leaf: BspNode) -> Region:
        if revisited_leaf.below is not None or revisited_leaf.point is None:
            raise StructuralError("mutation region is defined for leaves only")
        return self.region_of(revisited_leaf)

    def roi_trigger(self, new_leaf: BspNode, depth: int, lv: int,
                    k: int) -> RoiSuggestion | None:
        """Region-of-interest query for a leaf just returned by insert.

        ``depth`` is the leaf's depth as counted by insert; ``lv`` and
        ``k`` are the caller's non-negative depth thresholds. Fires when
        ``depth`` is >= lv + k; the suggestion is rooted at the leaf's
        ancestor at depth lv and carries every leaf point stored
        underneath it at the time of the query. Reads the tree and
        changes nothing.
        """
        if depth < lv + k:
            return None
        node = new_leaf
        for _ in range(depth - lv):
            node = node.parent
        seeds = [leaf.point for leaf in self._iter_leaves(node)]
        return RoiSuggestion(node, self.region_of(node), seeds)

    def block(self, subroot: BspNode):
        """Close ``subroot``'s cell to future insertion.

        The flag is the only record of the block: ``insert`` returns
        Blocked for every point routed through ``subroot``.
        """
        self.region_of(subroot)  # rejects nodes of other archives
        subroot.blocked = True

    @property
    def n_leaves(self) -> int:
        return self.n_points

    def iter_leaves(self):
        return self._iter_leaves(self.root)

    def _iter_leaves(self, node):
        stack = [node]
        while stack:
            n = stack.pop()
            if n.is_internal:
                stack.append(n.above)
                stack.append(n.below)
            elif n.point is not None:
                yield n

    # -- memory management --------------------------------------------

    def prune_lru(self, fraction: float):
        """Drop the least recently traversed leaves, merging siblings up.

        Removes floor(fraction * n_leaves) leaves in order of oldest
        last_touch (ties: older stored point first). Each removal splices
        the removed leaf's sibling into the parent slot, so the surviving
        cells still tile the domain. Costs one sort plus O(1) per removed
        leaf.
        """
        if not (0.0 < fraction < 1.0):
            raise ParameterError("prune fraction must lie in (0, 1)")
        if self.n_points == 0:
            raise ParameterError("cannot prune an empty archive")
        n_remove = int(np.floor(fraction * self.n_leaves))
        if n_remove == 0:
            return
        victims = sorted(
            self.iter_leaves(),
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
        # detach the removed nodes so region_of rejects them
        leaf.parent = parent.parent = None
        self.n_points -= 1

    # -- debug dump ----------------------------------------------------

    def dump(self) -> str:
        """Pre-order text dump, one node per line.

        Internal lines read ``depth internal split_dim split_value blocked``;
        leaf lines read ``depth leaf - - blocked`` followed by the point's
        coordinates.
        """
        lines = []
        stack = [(0, self.root)]
        while stack:
            depth, n = stack.pop()
            if n.is_internal:
                lines.append(f"{depth} internal {n.split_dim} {float(n.split_value)!r} "
                             f"{int(n.blocked)}")
                stack.append((depth + 1, n.above))
                stack.append((depth + 1, n.below))
            elif n.point is not None:
                coords = " ".join(repr(float(c)) for c in n.point.coords)
                lines.append(f"{depth} leaf - - {int(n.blocked)} {coords}")
        return "".join(line + "\n" for line in lines)
