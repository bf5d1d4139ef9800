"""Convex-hull refinement for the L2 metric (paper Section 6.4, Procedure 6).

The epsilon-All bounding rectangle is exact for the L-infinity metric but only
conservative for L2: a point inside the rectangle can still be more than
``eps`` (Euclidean) away from some group member — the grey "false positive"
region of Figure 7b.  The refinement uses the group's convex hull: by
convexity the member farthest from any point is a hull vertex, so a point is
within ``eps`` of every member exactly when it is within ``eps`` of the
*farthest* hull vertex.

Procedure 6 also accepts a point inside the hull outright (the hull's
diameter is at most ``eps`` by the SGB-All invariant).  That shortcut is left
out: in floating point a sliver hull of near-collinear members "contains"
points beyond the end of its segment, which the shortcut would admit into a
group of diameter above ``eps``.  The farthest-vertex check alone is exact
and costs the same walk over the hull.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.predicates import SimilarityPredicate
from repro.geometry.convex_hull import farthest_point

__all__ = ["convex_hull_test"]


def convex_hull_test(
    point: Sequence[float],
    hull: Sequence[Tuple[float, float]],
    predicate: SimilarityPredicate,
) -> bool:
    """Return True if ``point`` is within ``eps`` of every point enclosed by ``hull``.

    The point is accepted if and only if the farthest hull vertex is within
    the threshold (Procedure 6 without its inside-the-hull shortcut).
    """
    if not hull:
        return True
    return predicate.similar(point, farthest_point(point, hull))
