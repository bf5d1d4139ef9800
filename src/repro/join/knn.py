"""k-nearest-neighbour similarity join: each left point to its k closest rights.

Unlike the eps-join there is no fixed threshold to grid on, so the kNN-join
buckets the right side on a cell grid sized by its occupancy (about k points
per occupied cell, :func:`repro.core.cellgrid.knn_grid_side`) and answers
every probe in two rounds:

1. the probe gathers the points of its 3^g block of cells, doubling the
   block's reach until at least ``k`` points respond;
2. their exact distances give a conservative kth-distance bound ``D``;
   because a box of half-side ``D`` contains the closed metric ball of
   radius ``D`` for every supported metric (L2, LINF, L1 distances are all
   bounded below by the largest per-coordinate difference), gathering the
   cells that meet that box (widened for rounding) is guaranteed to collect
   the true k nearest neighbours.  A probe whose box stays inside its block
   skips the second gather;
3. the final candidates are ranked by ``(distance, right_index)`` — the
   ascending-index rule breaks distance ties deterministically — and the
   first k survive.

The NumPy backend runs whole blocks of probes at once
(:func:`repro.core.cellgrid.knn_table`); the pure-Python backend runs the
same two rounds per probe over a dict of cells.  Cells are computed with
monotone float operations for points and box bounds alike, so a point
inside a box is always inside one of the box's cells.

``k >= len(right)`` is well-defined, not an error: every right point
qualifies, so each left point pairs with the *whole* right side in canonical
rank order (ascending ``(distance, right_index)``), producing exactly
``len(left) * len(right)`` pairs with no padding.  The grid is skipped
outright in that regime — ranking the full side directly is both cheaper
and trivially exact.

Distances are bit-identical to :func:`repro.core.distance.distances_many`
and to the scalar metric loops, so the result matches a brute-force nested
loop exactly (the randomized equivalence suites enforce this on both
backends and all metrics).  ``workers`` shards the *left* side across the
engine's worker pool (:mod:`repro.join.knn_sharded`); every left point's
neighbour list is independent of every other's, so the sharded result is
bit-identical to the serial one.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core import cellgrid
from repro.core.distance import Metric, resolve_metric
from repro.core.pointset import NumpyPointSet, PointSet
from repro.exceptions import InvalidParameterError
from repro.join.epsilon import JoinPairs, JoinResult, _normalise_sides

Point = Tuple[float, ...]

__all__ = ["knn_join"]


def _check_k(k: object) -> int:
    if not isinstance(k, int) or isinstance(k, bool) or k <= 0:
        raise InvalidParameterError(f"k must be a positive integer, got {k!r}")
    return k


def _initial_radius(right_ps: PointSet, want: int) -> float:
    """The half-side of a box holding about ``want`` right points.

    Under a roughly uniform density the box holding ``want`` of the
    ``n_right`` points has volume ``extent_volume * want / n_right``; its
    half-side is the d-th root halved.  Degenerate extents (all points on a
    lower-dimensional flat, or a single location) fall back to the widest
    extent, then to an arbitrary positive constant.  The sharded join cuts
    its left slabs at this width.
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


def knn_table(left_ps: PointSet, right_ps: PointSet, want: int, metric: Metric) -> Any:
    """Row ``i`` lists the ``want`` nearest right indices of left point ``i``.

    An ``(n_left, want)`` int array on the NumPy backend, a list of lists on
    the pure-Python one; ``want`` is at most ``len(right_ps)``.
    """
    if isinstance(left_ps, NumpyPointSet) and isinstance(right_ps, NumpyPointSet):
        return cellgrid.knn_table(left_ps.array, right_ps.array, want, metric)
    return _PythonGrid(right_ps.to_tuples(), want).table(left_ps.to_tuples(), metric)


def table_pairs(table: Any) -> JoinPairs:
    """The ``(left_index, right_index)`` pairs of a neighbour table, in order."""
    if not isinstance(table, list):
        n_left, want = table.shape
        lefts = [i for i in range(n_left) for _ in range(want)]
        return list(zip(lefts, table.ravel().tolist()))
    return [(i, j) for i, row in enumerate(table) for j in row]


def _rank_all(
    left_tuples: Sequence[Point], right_tuples: Sequence[Point], metric: Metric
) -> List[List[int]]:
    """The nested loop: rank the full right side per left point.

    It answers ``k >= len(right)`` and right sides too small for a grid.
    """
    distance = metric.function
    return [
        [j for _, j in sorted((distance(p, q), j) for j, q in enumerate(right_tuples))]
        for p in left_tuples
    ]


class _PythonGrid:
    """The pure-Python kNN grid: right indices per cell tuple, in a dict.

    The same two rounds as :func:`repro.core.cellgrid.knn_table`, one probe
    at a time.
    """

    def __init__(self, right: Sequence[Point], want: int) -> None:
        self.right = right
        self.want = want
        dims = len(right[0])
        low = [min(pt[k] for pt in right) for k in range(dims)]
        extents = [max(pt[k] for pt in right) - low[k] for k in range(dims)]
        self.axes = cellgrid.knn_grid_axes(extents)
        self.cells: Dict[Tuple[int, ...], List[int]] = {}
        if not self.axes or len(right) <= 4 * want:
            return
        self.low = [low[k] for k in self.axes]
        grid_extents = [extents[k] for k in self.axes]

        def distinct(side: float) -> int:
            return len(
                {
                    tuple(math.floor((pt[k] - lo) / side) for k, lo in zip(self.axes, self.low))
                    for pt in right
                }
            )

        self.side = cellgrid.knn_grid_side(grid_extents, len(right), want, distinct)
        self.top = [count - 1 for count in cellgrid.knn_cell_counts(grid_extents, self.side)]
        for j, pt in enumerate(right):
            self.cells.setdefault(self.cell(pt), []).append(j)

    def _axis_cell(self, x: float, axis: int) -> int:
        top = self.top[axis]
        scaled = min(max((x - self.low[axis]) / self.side, -1.0), float(top + 1))
        return min(max(math.floor(scaled), 0), top)

    def cell(self, pt: Sequence[float]) -> Tuple[int, ...]:
        return tuple(self._axis_cell(pt[k], a) for a, k in enumerate(self.axes))

    def gather(self, lo: Sequence[int], hi: Sequence[int]) -> List[int]:
        """Right indices of every cell in the box ``lo..hi`` (inclusive)."""
        size = math.prod(h - l + 1 for l, h in zip(lo, hi))
        if size > len(self.cells):
            return [
                j
                for key, members in self.cells.items()
                if all(l <= c <= h for c, l, h in zip(key, lo, hi))
                for j in members
            ]
        out: List[int] = []
        for key in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
            out.extend(self.cells.get(key, ()))
        return out

    def table(self, left: Sequence[Point], metric: Metric) -> List[List[int]]:
        if not self.cells:
            return [row[: self.want] for row in _rank_all(left, self.right, metric)]
        distance, right, want = metric.function, self.right, self.want
        out: List[List[int]] = []
        for probe in left:
            centre = self.cell(probe)
            reach = 1
            while True:
                lo = [max(c - reach, 0) for c in centre]
                hi = [min(c + reach, t) for c, t in zip(centre, self.top)]
                found = self.gather(lo, hi)
                if len(found) >= want:
                    break
                reach *= 2
            ranked = sorted((distance(probe, right[j]), j) for j in found)
            bound = ranked[want - 1][0]
            lo2, hi2 = [], []
            for a, k in enumerate(self.axes):
                slack = cellgrid.knn_box_slack(bound, probe[k])
                lo2.append(self._axis_cell(probe[k] - slack, a))
                hi2.append(self._axis_cell(probe[k] + slack, a))
            if any(l2 < l for l2, l in zip(lo2, lo)) or any(h2 > h for h2, h in zip(hi2, hi)):
                found = self.gather(lo2, hi2)
                ranked = sorted((distance(probe, right[j]), j) for j in found)
            out.append([j for _, j in ranked[:want]])
        return out


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
    return table_pairs(knn_table(left_ps, right_ps, min(k, len(right_ps)), metric))
