"""k-nearest-neighbour similarity join: each left point to its k closest rights.

Unlike the eps-join there is no fixed threshold to grid on, so the kNN-join
probes a bulk-loaded spatial index (the STR-packed R-tree of the batch SGB
path) with expanding window queries instead of enumerating all pairs:

1. every left point issues one window query of a data-derived starting
   radius (answered for the whole batch with ``search_many``), doubling the
   window until at least ``k`` candidates respond;
2. the candidates' exact distances give a conservative kth-distance bound
   ``D``; because a box of half-side ``D`` contains the closed metric ball
   of radius ``D`` for every supported metric (L2, LINF, L1 distances are
   all bounded below by the largest per-coordinate difference), one final
   window query at radius ``D`` is guaranteed to contain the true k nearest
   neighbours;
3. the final candidates are ranked by ``(distance, right_index)`` — the
   ascending-index rule breaks distance ties deterministically — and the
   first k survive.

``k >= len(right)`` is well-defined, not an error: every right point
qualifies, so each left point pairs with the *whole* right side in canonical
rank order (ascending ``(distance, right_index)``), producing exactly
``len(left) * len(right)`` pairs with no padding.  The expanding search is
skipped outright in that regime — ranking the full side directly is both
cheaper and trivially exact.

Distances come from :func:`repro.core.distance.distances_many`, which is
bit-identical to the scalar metric loops, so the result matches a brute-force
nested loop exactly (the randomized equivalence suite enforces this on both
backends and all metrics).  ``workers`` shards the *left* side across the
engine's worker pool (:mod:`repro.join.knn_sharded`); every left point's
neighbour list is independent of every other's, so the sharded result is
bit-identical to the serial one.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.distance import Metric, distances_many, resolve_metric
from repro.core.pointset import PointSet
from repro.core.rectangle import Rect
from repro.exceptions import InvalidParameterError
from repro.join.epsilon import JoinPairs, JoinResult, _normalise_sides
from repro.spatial.rtree import RTree

Point = Tuple[float, ...]

__all__ = ["knn_join"]


def _check_k(k: object) -> int:
    if not isinstance(k, int) or isinstance(k, bool) or k <= 0:
        raise InvalidParameterError(f"k must be a positive integer, got {k!r}")
    return k


def _initial_radius(right_ps: PointSet, want: int) -> float:
    """A data-derived starting window half-side for the expanding search.

    Under a roughly uniform density the box holding ``want`` of the
    ``n_right`` points has volume ``extent_volume * want / n_right``; its
    half-side is the d-th root halved.  Degenerate extents (all points on a
    lower-dimensional flat, or a single location) fall back to the widest
    extent, then to an arbitrary positive constant — the doubling loop
    corrects any underestimate, so only the constant's order matters.
    """
    bbox = right_ps.bbox()
    extents = [hi - lo for lo, hi in zip(bbox.low, bbox.high)]
    volume = 1.0
    for extent in extents:
        volume *= extent
    if volume > 0:
        return 0.5 * (volume * want / len(right_ps)) ** (1.0 / len(extents))
    widest = max(extents)
    return widest / 2 if widest > 0 else 1.0


def _rank_all(
    left_tuples: Sequence[Point], right_tuples: Sequence[Point], metric: Metric
) -> JoinPairs:
    """The ``k >= len(right)`` regime: rank the full right side per left point."""
    n_right = len(right_tuples)
    pairs: JoinPairs = []
    for i, probe in enumerate(left_tuples):
        ranked = sorted(zip(distances_many(probe, right_tuples, metric), range(n_right)))
        pairs.extend((i, j) for _, j in ranked)
    return pairs


def build_right_index(right_tuples: Sequence[Point]) -> RTree:
    """Bulk-load the right side into the STR-packed R-tree the probes use.

    Exposed for the sharded kNN-join, whose *ship* mode builds this index
    once in the coordinator and pickles it to every worker instead of
    rebuilding it per shard.
    """
    return RTree.bulk_load(
        [Rect.from_point(pt) for pt in right_tuples], range(len(right_tuples))
    )


def _expanding_pairs(
    left_tuples: Sequence[Point],
    right_tuples: Sequence[Point],
    index: RTree,
    radius: float,
    want: int,
    metric: Metric,
) -> JoinPairs:
    """The expanding-window core: kNN pairs with *local* left indices.

    Deterministic for any positive ``radius`` — the starting window only
    changes how many doubling rounds run, never the final ranked candidate
    set — which is what lets the sharded join reuse the serial coordinator's
    radius verbatim.
    """

    def rank(probe, hits):
        """Candidates ordered by ``(distance, right_index)`` — the tie rule."""
        distances = distances_many(probe, [right_tuples[j] for j in hits], metric)
        return sorted(zip(distances, hits))

    first_round = index.search_many(
        [Rect.from_point(pt, radius) for pt in left_tuples]
    )
    pairs: JoinPairs = []
    for i, (probe, hits) in enumerate(zip(left_tuples, first_round)):
        r = radius
        while len(hits) < want:
            r *= 2.0
            hits = index.search(Rect.from_point(probe, r))
        ranked = rank(probe, hits)
        bound = ranked[want - 1][0]
        if bound > r:
            # The kth-distance bound exceeds the window: one final query at
            # radius `bound` (whose box contains the closed `bound`-ball
            # under every supported metric) completes the candidate set.
            ranked = rank(probe, index.search(Rect.from_point(probe, bound)))
        pairs.extend((i, j) for _, j in ranked[:want])
    return pairs


def knn_join(
    left: "PointSet | Sequence[Sequence[float]]",
    right: "PointSet | Sequence[Sequence[float]]",
    k: int,
    metric: "Metric | str" = Metric.L2,
    workers: "Optional[int | str]" = None,
    backend: Optional[str] = None,
) -> JoinPairs:
    """Pair every left point with its ``k`` nearest right points.

    Returns ``(left_index, right_index)`` pairs ordered by left index and,
    within one left point, by ascending ``(distance, right_index)`` — ties
    in distance break deterministically towards the smaller right index.
    When ``k >= len(right)`` every right point is paired per left point, in
    that same canonical rank order: ``len(left) * len(right)`` pairs total,
    never padding.

    ``workers`` shards the left relation through the engine partitioner
    (:func:`repro.join.knn_sharded.knn_join_sharded`): ``N > 1`` forces up
    to N worker processes, while ``0`` / ``"auto"`` — or ``None`` with no
    numeric ``SGB_WORKERS`` in the environment — delegates the serial vs
    sharded choice to the cost planner (:mod:`repro.engine.cost`), recording
    the chosen plan on the returned
    :class:`~repro.join.epsilon.JoinResult`.  The sharded result is
    bit-identical to the serial one.
    """
    k = _check_k(k)
    metric = resolve_metric(metric)
    left_ps, right_ps = _normalise_sides(left, right, backend)
    if len(left_ps) == 0 or len(right_ps) == 0:
        return []
    from repro.engine.cost import forced_plan, plan_knn_join, planner_delegated

    delegated = planner_delegated(workers)
    if delegated:
        from repro.engine.stats import collect_stats

        plan = plan_knn_join(collect_stats(left_ps), collect_stats(right_ps), k)
    else:
        plan = forced_plan("knn_join", len(left_ps), workers)
    if plan.mode == "sharded":
        from repro.join.knn_sharded import knn_join_sharded

        pairs = knn_join_sharded(
            left_ps,
            right_ps,
            k,
            metric=metric,
            workers=plan.workers,
            shards=plan.shards,
        )
    else:
        pairs = _knn_serial(left_ps, right_ps, k, metric)
    if not delegated:
        return pairs
    result = JoinResult(pairs)
    result.plan = plan
    return result


def _knn_serial(
    left_ps: PointSet, right_ps: PointSet, k: int, metric: Metric
) -> JoinPairs:
    """The in-process kNN-join over already-normalised sides."""
    right_tuples = right_ps.to_tuples()
    left_tuples = left_ps.to_tuples()
    want = min(k, len(right_tuples))
    if want == len(right_tuples):
        return _rank_all(left_tuples, right_tuples, metric)
    return _expanding_pairs(
        left_tuples,
        right_tuples,
        build_right_index(right_tuples),
        _initial_radius(right_ps, want),
        want,
        metric,
    )
