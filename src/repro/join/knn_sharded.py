"""Sharded kNN-join: partition the left relation, probe the right per worker.

Every left point's k-nearest-neighbour list depends only on that point and
the full right relation, so — unlike the eps-join, whose cross pairs straddle
shard boundaries — *any* partition of the left side is exact with no halo
stitching at all.  The partition still matters for locality: slab-partitioned
left shards (:func:`repro.engine.partition.partition_pointset`, cell width
derived from the expanding search's starting radius) keep each worker's
window probes concentrated in one region of the shared R-tree; degenerate
inputs the partitioner refuses fall back to contiguous index chunks.

The right side's bulk-loaded R-tree reaches the workers one of two ways,
both exposed because the trade-off is workload-dependent:

* ``ship_index=False`` (default) — each worker rebuilds the STR-packed
  R-tree from the shipped right coordinates.  The build is O(n log n) work
  repeated per worker, but the outbound payload is just the coordinate
  block, and rebuilds overlap across workers.
* ``ship_index=True`` — the coordinator builds the index once and pickles
  it (plus the coordinates the distance ranking needs) to every worker.
  No repeated build work, but the serialized tree is several times the
  coordinate payload, all of it shipped per shard.

Each worker runs the exact serial expanding-window core
(:func:`repro.join.knn._expanding_pairs`) with the coordinator's
data-derived starting radius, so per-left results are bit-identical to the
serial join; the merge just reassembles them in ascending global left-index
order — the serial output order — making the whole pipeline bit-identical
to :func:`repro.join.knn.knn_join` (enforced by the randomized equivalence
suite on both backends and all metrics).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.core.distance import Metric, resolve_metric
from repro.core.pointset import PointSet
from repro.engine.partition import partition_pointset, take_payload
from repro.engine.cost import forced_plan
from repro.engine.workers import run_shards
from repro.join.epsilon import JoinPairs, _normalise_sides
from repro.join.knn import (
    _check_k,
    _expanding_pairs,
    _initial_radius,
    _knn_serial,
    _rank_all,
    build_right_index,
)

__all__ = ["knn_join_sharded"]


def _knn_shard(
    left_payload: Any,
    right_payload: Any,
    want: int,
    metric_value: str,
    radius: float,
    index: Any = None,
) -> List[tuple]:
    """Worker body: the serial expanding-window core over one left shard.

    Module-level (not a closure) so it pickles by reference under every
    multiprocessing start method.  ``index`` is the pre-built right R-tree
    in ship mode, ``None`` in rebuild mode (the worker bulk-loads its own).
    Returns pairs with shard-local left indices.
    """
    from repro.core.pointset import PointSet

    left_tuples = PointSet.from_any(left_payload).to_tuples()
    right_tuples = PointSet.from_any(right_payload).to_tuples()
    metric = resolve_metric(metric_value)
    if want >= len(right_tuples):
        return _rank_all(left_tuples, right_tuples, metric)
    if index is None:
        index = build_right_index(right_tuples)
    return _expanding_pairs(left_tuples, right_tuples, index, radius, want, metric)


def _left_partitions(
    left_ps: PointSet, radius: float, n_shards: int
) -> List[List[int]]:
    """Global left-index lists, one per shard (slab partition, chunk fallback)."""
    partition = partition_pointset(left_ps, max(radius, 1e-9), n_shards)
    if partition is not None and len(partition.shards) >= 2:
        return [shard.indices for shard in partition.shards]
    # Degenerate extent (single cluster / single cell): contiguous chunks
    # are just as exact — no halo correctness argument is needed here.
    n = len(left_ps)
    size = -(-n // n_shards)
    chunks = [list(range(lo, min(lo + size, n))) for lo in range(0, n, size)]
    return [chunk for chunk in chunks if chunk]


def knn_join_sharded(
    left: "PointSet | Sequence[Sequence[float]]",
    right: "PointSet | Sequence[Sequence[float]]",
    k: int,
    metric: "Metric | str" = Metric.L2,
    workers: "Optional[int | str]" = None,
    shards: Optional[int] = None,
    ship_index: bool = False,
) -> JoinPairs:
    """Run the kNN-join over left-relation shards in worker processes.

    Result-identical to the serial :func:`repro.join.knn.knn_join` — same
    pairs, same order.  ``shards`` overrides the planned shard count (used
    by tests to force the partition/merge pipeline; a one-worker plan then
    runs it in process); ``ship_index`` selects the ship-the-built-index mode
    over the default rebuild-per-worker mode.
    """
    k = _check_k(k)
    metric = resolve_metric(metric)
    left_ps, right_ps = _normalise_sides(left, right, backend=None)
    if len(left_ps) == 0 or len(right_ps) == 0:
        return []
    n_left = len(left_ps)
    n_right = len(right_ps)
    want = min(k, n_right)
    plan = forced_plan("knn_join", n_left, workers)
    n_shards = shards if shards is not None else plan.shards
    if n_shards < 2:
        return _knn_serial(left_ps, right_ps, k, metric)
    radius = _initial_radius(right_ps, want)
    shard_indices = _left_partitions(left_ps, radius, n_shards)
    if len(shard_indices) < 2:
        return _knn_serial(left_ps, right_ps, k, metric)

    right_payload = take_payload(right_ps, range(n_right))
    index = (
        build_right_index(right_ps.to_tuples())
        if ship_index and want < n_right
        else None
    )
    payloads = [
        (take_payload(left_ps, indices), right_payload, want, metric.value, radius, index)
        for indices in shard_indices
    ]
    ran = run_shards(plan.workers, _knn_shard, payloads)
    if ran is None:
        return _knn_serial(left_ps, right_ps, k, metric)
    shard_results = ran[1]

    # Merge: every global left index lives in exactly one shard, and each
    # shard's pairs come back grouped by ascending local left index with the
    # canonical (distance, right_index) rank order inside each group — so
    # scattering the per-left runs into a global table and reading it in
    # index order reproduces the serial output exactly.
    per_left: List[List[int]] = [[] for _ in range(n_left)]
    for indices, local_pairs in zip(shard_indices, shard_results):
        for local_i, j in local_pairs:
            per_left[indices[local_i]].append(j)
    return [(i, j) for i in range(n_left) for j in per_left[i]]
