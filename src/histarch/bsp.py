"""Binary space partitioning archive over a box-shaped search domain.

Every evaluated solution is a leaf of the tree; the leaf cells tile the
domain exactly. The archive detects revisits (a candidate landing on an
already-stored point), hands out per-leaf mutation boxes, reports when a
sub-region has been sampled densely enough to count as a region of
interest, and can block exploited sub-regions against further insertion.

A node stores only its split, its links, its point and the two flags the
policies need (``blocked``, ``last_touch``). Cell bounds and depth are
derived: ``insert`` counts depth on its walk down from the root, and
``region_of`` clips the domain along the ancestor path. Nothing cached
has to be rebuilt when pruning moves a subtree up, so ``prune_lru`` costs
one sort plus O(1) per removed leaf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InputError, ParameterError, StructuralError


@dataclass
class SearchPoint:
    """One evaluated solution: coordinates, objective value, insertion age."""

    coords: np.ndarray
    fitness: float = float("nan")
    eval_index: int = 0


@dataclass(frozen=True)
class Region:
    """Axis-aligned box with strictly positive extent per dimension."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise InputError("region bounds must be 1-D vectors of equal length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise InputError("region bounds must be finite")
        if not (lo < hi).all():
            raise ParameterError("region must have positive extent in every dimension")

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, coords: np.ndarray) -> bool:
        return bool((coords >= self.lower).all() and (coords <= self.upper).all())

    def side_lengths(self) -> np.ndarray:
        return self.upper - self.lower

    def log_volume(self) -> float:
        # summed in log space so thin 30-D cells do not underflow
        return float(np.log(self.upper - self.lower).sum())

    def uniform_point(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lower, self.upper)


class BspNode:
    """Tree node; a leaf holds a point, an internal node holds a split.

    An internal node may also retain the point it held before it was
    split (the virtual-holder role); that point always duplicates a leaf
    somewhere below it. A node stores no bounds and no depth: its cell is
    ``BspArchive.region_of(node)`` and ``depth`` counts parent links.
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
    def depth(self) -> int:
        """Number of parent links up to the root, walked on every read."""
        depth = 0
        node = self.parent
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    @property
    def is_leaf(self) -> bool:
        return self.below is None and self.point is not None

    @property
    def is_internal(self) -> bool:
        return self.below is not None

    @property
    def kind(self) -> str:
        return "internal" if self.is_internal else "leaf"

    def children(self):
        return (self.below, self.above) if self.below is not None else ()


class NewLeaf:
    """Insert created a fresh leaf for the coordinates."""

    __slots__ = ("node", "depth")

    def __init__(self, node: BspNode, depth: int):
        self.node = node
        self.depth = depth


class Revisit:
    """The coordinates coincide (within epsilon) with a stored point."""

    __slots__ = ("leaf",)

    def __init__(self, leaf: BspNode):
        self.leaf = leaf


class Blocked:
    """The insert path crossed a blocked sub-region; nothing was stored."""

    __slots__ = ()


@dataclass
class RoiSuggestion:
    """A densely sampled sub-region plus the solutions found inside it."""

    subroot: BspNode
    region: Region
    seeds: list[SearchPoint]
    subroot_depth: int


class BspArchive:
    """On-line search history stored as a BSP tree over ``domain``.

    ``lv`` and ``k`` are the depth thresholds for the region-of-interest
    trigger: a leaf landing at depth >= lv + k flags the cell of its
    depth-lv ancestor as worth exploiting.
    """

    def __init__(self, domain: Region, lv: int, k: int, revisit_epsilon: float = 0.0):
        if lv < 0 or k < 0:
            raise ParameterError("lv and k must be non-negative")
        if revisit_epsilon < 0:
            raise ParameterError("revisit_epsilon must be >= 0")
        self.domain = domain
        self.lv = int(lv)
        self.k = int(k)
        self.revisit_epsilon = float(revisit_epsilon)
        self.root = BspNode(None)
        # single-child state for the very first point; None once split
        self._only_child: BspNode | None = None
        self.n_points = 0
        self._clock = 0
        self.blocked_regions: list[Region] = []
        self.pending_roi: RoiSuggestion | None = None

    # -- insertion ---------------------------------------------------

    def insert(self, coords: np.ndarray):
        """Route ``coords`` to its leaf cell and grow the tree.

        Returns NewLeaf, Revisit or Blocked. The traversal stamps every
        visited node with the current clock, which is what the LRU
        pruning policy later reads back.
        """
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.domain.dim,):
            raise InputError(f"expected {self.domain.dim} coordinates, got {coords.shape}")
        if not np.isfinite(coords).all():
            raise InputError("coordinates must be finite")
        if not self.domain.contains(coords):
            raise DomainError("coordinates outside the search domain")

        self._clock += 1
        clock = self._clock
        node = self.root
        node.last_touch = clock
        if node.blocked:
            return Blocked()

        # empty tree: first point becomes a single leaf at depth 1
        if self.n_points == 0:
            leaf = BspNode(node, SearchPoint(coords.copy(), eval_index=clock))
            leaf.last_touch = clock
            self._only_child = leaf
            self.n_points = 1
            return self._finish_new_leaf(leaf, 1)

        depth = 0
        if self._only_child is not None:
            # one stored point: a second distinct point splits the root
            leaf = self._only_child
            leaf.last_touch = clock
        else:
            # the walk is the hot loop: plain attribute tests and Python
            # floats cost less per level than properties and numpy scalars
            x = coords.tolist()
            while node.below is not None:
                node = node.below if x[node.split_dim] < node.split_value else node.above
                node.last_touch = clock
                depth += 1
                if node.blocked:
                    return Blocked()
            leaf = node

        delta = np.abs(coords - leaf.point.coords)
        if delta.max() <= self.revisit_epsilon:
            return Revisit(leaf)
        split_dim = int(np.argmax(delta))
        a = float(leaf.point.coords[split_dim])
        b = float(coords[split_dim])
        split_value = 0.5 * (a + b)
        if not (min(a, b) < split_value < max(a, b)):
            return Revisit(leaf)  # coordinates too close to separate in float
        # split ``node`` (the leaf itself, or the root while it has one
        # child) into two leaves holding the old and the new point
        node.split_dim = split_dim
        node.split_value = split_value
        below = BspNode(node)
        above = BspNode(node)
        below.last_touch = clock
        above.last_touch = clock
        new_point = SearchPoint(coords.copy(), eval_index=clock)
        if a < split_value:
            below.point, above.point = leaf.point, new_point
            new_leaf = above
        else:
            below.point, above.point = new_point, leaf.point
            new_leaf = below
        node.below = below
        node.above = above
        self._only_child = None
        self.n_points += 1
        return self._finish_new_leaf(new_leaf, depth + 1)

    def _finish_new_leaf(self, leaf, depth):
        outcome = NewLeaf(leaf, depth)
        if self.pending_roi is None:
            self.pending_roi = self.roi_trigger(leaf, depth)
        return outcome

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
        lower = self.domain.lower.tolist()
        upper = self.domain.upper.tolist()
        for child in reversed(path):
            parent = child.parent
            if parent.below is child:
                upper[parent.split_dim] = parent.split_value
            elif parent.above is child:
                lower[parent.split_dim] = parent.split_value
            # the root's single child keeps the whole domain
        return Region(np.array(lower), np.array(upper))

    def mutation_region(self, revisited_leaf: BspNode) -> Region:
        if not revisited_leaf.is_leaf:
            raise StructuralError("mutation region is defined for leaves only")
        return self.region_of(revisited_leaf)

    def roi_trigger(self, new_leaf: BspNode, depth: int) -> RoiSuggestion | None:
        """Region-of-interest check for a leaf just returned by insert.

        ``depth`` is the leaf's depth as counted by insert. Fires when it
        is >= lv + k; the suggestion is rooted at the leaf's ancestor at
        depth lv and carries every leaf point stored underneath it.
        """
        if depth < self.lv + self.k:
            return None
        node = new_leaf
        for _ in range(depth - self.lv):
            node = node.parent
        if node is self.root:
            seeds = [leaf.point for leaf in self.iter_leaves()]
        else:
            seeds = [leaf.point for leaf in self._iter_leaves(node)]
        return RoiSuggestion(node, self.region_of(node), seeds, self.lv)

    def block(self, subroot: BspNode):
        """Close ``subroot``'s cell to future insertion.

        The cell's box is captured now and kept in ``blocked_regions``.
        """
        region = self.region_of(subroot)
        subroot.blocked = True
        self.blocked_regions.append(region)

    @property
    def n_leaves(self) -> int:
        return self.n_points

    def iter_leaves(self):
        if self._only_child is not None:
            yield self._only_child
            return
        yield from self._iter_leaves(self.root)

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
        if leaf is self._only_child:
            raise StructuralError("cannot remove the only stored point")
        sibling = parent.above if leaf is parent.below else parent.below
        grand = parent.parent
        # sibling takes over the parent's slot and (wider) cell
        sibling.parent = grand
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
        """Pre-order text dump: depth kind split_dim split_value blocked coords."""
        lines = []
        if self._only_child is not None:
            order = [(0, self.root), (1, self._only_child)]
        else:
            order = []
            stack = [(0, self.root)]
            while stack:
                depth, n = stack.pop()
                order.append((depth, n))
                if n.is_internal:
                    stack.append((depth + 1, n.above))
                    stack.append((depth + 1, n.below))
        for depth, n in order:
            split_dim = str(n.split_dim) if n.is_internal else "-"
            split_value = repr(float(n.split_value)) if n.is_internal else "-"
            coords = " ".join(repr(float(c)) for c in n.point.coords) if n.point is not None else ""
            kind = n.kind if (n.is_internal or n.point is not None) else "root"
            line = f"{depth} {kind} {split_dim} {split_value} {int(n.blocked)}"
            lines.append(line + (" " + coords if coords else ""))
        return "\n".join(lines) + "\n"
