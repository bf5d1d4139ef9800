"""Group bookkeeping shared by the SGB-All algorithm variants.

A :class:`Group` owns the points admitted so far, their original input
indices, the epsilon-All bounding rectangle used by the bounds-checking /
indexed filters, and a lazily rebuilt convex hull used by the L2 refinement
step.  The rectangle is built on first use too: the batch frontier decides
membership from the eps-adjacency alone and never reads it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.distance import Metric
from repro.core.predicates import SimilarityPredicate
from repro.core.rectangle import EpsAllRectangle, Rect
from repro.geometry.convex_hull import convex_hull

try:  # optional: membership checks fall back to scalar loops without numpy
    import numpy as _np
except ImportError:  # pragma: no cover - exercised where numpy is absent
    _np = None

Point = Tuple[float, ...]

__all__ = ["Group"]

#: Below this member count the scalar loops beat the cost of staging the
#: members into a NumPy block, so the vectorised path only kicks in past it.
_VECTOR_MIN_MEMBERS = 32


class Group:
    """One output group under construction during SGB-All processing."""

    __slots__ = (
        "gid",
        "eps",
        "points",
        "indices",
        "_eps_rect",
        "indexed_rect",
        "_hull",
        "_hull_dirty",
        "_coords",
        "_coords_dirty",
    )

    def __init__(self, gid: int, eps: float, index: int, point: Point) -> None:
        self.gid = gid
        self.eps = eps
        self.points: List[Point] = [point]
        self.indices: List[int] = [index]
        self._eps_rect: Optional[EpsAllRectangle] = None
        #: Rectangle currently registered in the group R-tree (indexed variant).
        self.indexed_rect: Optional[Rect] = None
        self._hull: Optional[List[Tuple[float, float]]] = None
        self._hull_dirty = True
        #: Lazily maintained columnar copy of ``points`` for bulk verification.
        self._coords = None
        self._coords_dirty = True

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Group(gid={self.gid}, size={len(self.points)})"

    @property
    def eps_rect(self) -> EpsAllRectangle:
        """The epsilon-All rectangle, built from the members on first use.

        Folding the members in admission order is the sequence of shrinks
        :meth:`add` would have applied, so a late build is bit-identical to
        one kept up to date from the start.
        """
        if self._eps_rect is None:
            rect = EpsAllRectangle(self.eps, self.points[0])
            for pt in self.points[1:]:
                rect.add(pt)
            self._eps_rect = rect
        return self._eps_rect

    # -- membership maintenance -------------------------------------------

    def add(self, index: int, point: Point) -> None:
        """Admit ``point`` (input row ``index``) and shrink the bounding rectangle."""
        self.points.append(point)
        self.indices.append(index)
        if self._eps_rect is not None:
            self._eps_rect.add(point)
        self._hull_dirty = True
        self._coords_dirty = True

    def remove_indices(self, to_remove: Sequence[int]) -> List[Tuple[int, Point]]:
        """Remove the listed input indices; return the removed (index, point) pairs.

        Drops the epsilon-All rectangle, so its next use rebuilds it from the
        remaining members and the bounds filter stays tight after ELIMINATE /
        FORM-NEW-GROUP deletions.
        """
        removal = set(to_remove)
        removed: List[Tuple[int, Point]] = []
        kept_points: List[Point] = []
        kept_indices: List[int] = []
        for idx, pt in zip(self.indices, self.points):
            if idx in removal:
                removed.append((idx, pt))
            else:
                kept_indices.append(idx)
                kept_points.append(pt)
        self.points = kept_points
        self.indices = kept_indices
        self._eps_rect = None
        self._hull_dirty = True
        self._coords_dirty = True
        return removed

    # -- membership tests ---------------------------------------------------

    def rect_contains(self, point: Point) -> bool:
        """Constant-time epsilon-All rectangle filter."""
        return self.eps_rect.contains(point)

    def _member_block(self):
        """Return the cached ``(n, d)`` member array, or None for small groups.

        The vectorised membership checks produce bit-identical decisions to
        the scalar loops (see ``SimilarityPredicate.similar_many``), so both
        the scalar and batched SGB paths share them transparently.
        """
        if _np is None or len(self.points) < _VECTOR_MIN_MEMBERS:
            return None
        if self._coords_dirty or self._coords is None:
            self._coords = _np.asarray(self.points, dtype=_np.float64)
            self._coords_dirty = False
        return self._coords

    def all_within(self, point: Point, predicate: SimilarityPredicate) -> bool:
        """Exact distance-to-all test against every member."""
        block = self._member_block()
        if block is None:
            return predicate.similar_to_all(point, self.points)
        return bool(predicate.similar_many(point, block).all())

    def any_within(self, point: Point, predicate: SimilarityPredicate) -> bool:
        """Exact distance-to-any test against the members."""
        block = self._member_block()
        if block is None:
            return predicate.similar_to_any(point, self.points)
        return bool(predicate.similar_many(point, block).any())

    def members_within(self, point: Point, predicate: SimilarityPredicate) -> List[int]:
        """Return the input indices of members within ``eps`` of ``point``."""
        block = self._member_block()
        if block is None:
            return [
                idx
                for idx, member in zip(self.indices, self.points)
                if predicate.similar(point, member)
            ]
        mask = predicate.similar_many(point, block)
        return [idx for idx, ok in zip(self.indices, mask) if ok]

    def hull(self) -> List[Tuple[float, float]]:
        """Return the (cached) 2-d convex hull of the group's members."""
        if self._hull_dirty or self._hull is None:
            self._hull = convex_hull(self.points)
            self._hull_dirty = False
        return self._hull

    def passes_hull_test(self, point: Point, predicate: SimilarityPredicate) -> bool:
        """L2 refinement (Procedure 6): exact membership using the convex hull.

        Only meaningful for 2-d points under the L2 metric; other
        configurations fall back to the exact all-members check.
        """
        if predicate.metric is not Metric.L2 or len(point) != 2:
            return self.all_within(point, predicate)
        from repro.core.hull_filter import convex_hull_test

        return convex_hull_test(point, self.hull(), predicate)
