"""Sharded eps-join: the engine's slab+halo partition applied to two relations.

The eps-grid slab partition of :mod:`repro.engine.partition` is join-aware
for free: cut the *union* of both relations along one axis on eps-grid lines
and every within-eps cross pair either

* has both endpoints in the same slab — found by the shard-local
  :meth:`PointSet.cross_within` grid-join of that slab's left points against
  its right points; or
* straddles exactly one cut ``k`` — its endpoints' axis cells are then
  ``k - 1`` and ``k`` (a within-eps pair differs by at most one eps-cell per
  axis, and slabs are at least two cells wide), so both endpoints sit in the
  halo band of that cut and the band-local grid-join of the band's left
  points against its right points recovers the pair.

The band joins also re-discover pairs whose endpoints share a slab; unlike
the SGB merge (where a Union-Find absorbs duplicates) a join must emit every
pair exactly once, so band pairs are kept only when their endpoints' axis
cells fall on *opposite* sides of the band's cut — precisely the pairs no
shard-local join can see.  Shard joins run in the engine's shared worker
pool (halo bands are stitched in-process while the pool grinds); the sorted
union of both edge sets is bit-identical to the serial
:func:`repro.join.epsilon.eps_join`.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.core.distance import Metric, resolve_metric
from repro.core.pointset import PointSet
from repro.engine.partition import (
    GridPartition,
    axis_cells,
    partition_pointset,
    take_payload,
)
from repro.engine.cost import forced_plan
from repro.engine.workers import run_shards
from repro.join.epsilon import JoinPairs, _normalise_sides

__all__ = ["eps_join_sharded"]


def _join_shard(
    left_payload: Any, right_payload: Any, eps: float, metric_value: str
) -> List[Tuple[int, int]]:
    """Worker body: grid-join one slab's left points against its right points.

    Module-level (not a closure) so it pickles by reference under every
    multiprocessing start method; payloads are the picklable point blocks
    :func:`repro.engine.partition.take_payload` extracts.
    """
    from repro.core.pointset import PointSet

    left_ps = PointSet.from_any(left_payload)
    right_ps = PointSet.from_any(right_payload)
    return list(left_ps.cross_within(right_ps, eps, metric_value))


def _split_sides(indices: Sequence[int], n_left: int) -> Tuple[List[int], List[int]]:
    """Split combined-row indices back into (left rows, right rows)."""
    left = [i for i in indices if i < n_left]
    right = [i - n_left for i in indices if i >= n_left]
    return left, right


def _band_pairs(
    partition: GridPartition,
    left_ps: PointSet,
    right_ps: PointSet,
    combined: PointSet,
    eps: float,
    metric: Metric,
) -> Iterator[Tuple[int, int]]:
    """Cross-slab pairs from the halo bands (computed in-process).

    Pairs are kept by the partition-axis eps-cell of each combined row (the
    same vectorised pass the partitioner runs).  Only pairs whose endpoints'
    cells straddle the band's cut are yielded; same-side pairs are the
    shard-local joins' responsibility, and every straddling pair lives in
    exactly one band (a point belongs to at most one band), so no pair is
    emitted twice.
    """
    n_left = len(left_ps)
    cells = axis_cells(combined, partition.axis, eps)
    for band in partition.bands:
        left_idx, right_idx = _split_sides(band.indices, n_left)
        if not left_idx or not right_idx:
            continue
        band_left = PointSet.from_any(take_payload(left_ps, left_idx))
        band_right = PointSet.from_any(take_payload(right_ps, right_idx))
        cut = band.cut_cell
        left_below = [cells[i] < cut for i in left_idx]
        right_below = [cells[n_left + j] < cut for j in right_idx]
        for a, b in band_left.cross_within(band_right, eps, metric):
            if left_below[a] != right_below[b]:
                yield left_idx[a], right_idx[b]


def _serial_pairs(
    left_ps: PointSet, right_ps: PointSet, eps: float, metric: Metric
) -> JoinPairs:
    return sorted(left_ps.cross_within(right_ps, eps, metric))


def eps_join_sharded(
    left: "PointSet | Sequence[Sequence[float]]",
    right: "PointSet | Sequence[Sequence[float]]",
    eps: float,
    metric: "Metric | str" = Metric.L2,
    workers: "Optional[int | str]" = None,
    shards: Optional[int] = None,
) -> JoinPairs:
    """Run the eps-join over grid shards, in worker processes when available.

    Result-identical to the serial :func:`repro.join.epsilon.eps_join` —
    same pairs, same lexicographic order.  ``shards`` overrides the planned
    shard count (used by tests to force the partition/stitch pipeline; a
    one-worker plan then runs it in process).
    """
    metric = resolve_metric(metric)
    eps = PointSet._check_eps(eps)
    left_ps, right_ps = _normalise_sides(left, right, backend=None)
    if len(left_ps) == 0 or len(right_ps) == 0:
        return []
    n_left = len(left_ps)
    combined = PointSet.concat([left_ps, right_ps], backend=left_ps.backend)
    plan = forced_plan("eps_join", len(combined), workers)
    n_shards = shards if shards is not None else plan.shards
    if n_shards < 2:
        return _serial_pairs(left_ps, right_ps, eps, metric)
    partition = partition_pointset(combined, eps, n_shards)
    if partition is None or len(partition.shards) < 2:
        return _serial_pairs(left_ps, right_ps, eps, metric)

    # One task per slab holding points of both relations; single-sided slabs
    # can contribute no cross pair and are skipped outright.
    tasks: List[Tuple[List[int], List[int]]] = []
    for shard in partition.shards:
        left_idx, right_idx = _split_sides(shard.indices, n_left)
        if left_idx and right_idx:
            tasks.append((left_idx, right_idx))
    payloads = [
        (take_payload(left_ps, left_idx), take_payload(right_ps, right_idx), eps, metric.value)
        for left_idx, right_idx in tasks
    ]
    # The halo bands are stitched in process, overlapping the shard joins.
    ran = run_shards(
        plan.workers,
        _join_shard,
        payloads,
        lambda: list(_band_pairs(partition, left_ps, right_ps, combined, eps, metric)),
    )
    if ran is None:
        return _serial_pairs(left_ps, right_ps, eps, metric)
    pairs, shard_results = ran
    for (left_idx, right_idx), local_pairs in zip(tasks, shard_results):
        pairs.extend((left_idx[a], right_idx[b]) for a, b in local_pairs)
    pairs.sort()
    return pairs
