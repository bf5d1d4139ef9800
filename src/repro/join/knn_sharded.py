"""Sharded kNN-join: partition the left relation, probe the right per worker.

Every left point's k-nearest-neighbour list depends only on that point and
the full right relation, so — unlike the eps-join, whose cross pairs straddle
shard boundaries — *any* partition of the left side is exact with no halo
stitching at all.  The partition still matters for locality: slab-partitioned
left shards (:func:`repro.engine.partition.partition_pointset`, cell width
derived from the right side's density) keep each worker's probes
concentrated in one region of the right side's grid; degenerate inputs the
partitioner refuses fall back to contiguous index chunks.

Every worker receives the left shard and the whole right side and builds
its own cell grid over the right side (:func:`repro.join.knn.knn_table`).
Each probe's answer is the unique top ``k`` by ``(distance, right_index)``,
whatever the grid, so per-left results are bit-identical to the serial
join; the merge just reassembles them in ascending global left-index
order — the serial output order — making the whole pipeline bit-identical
to :func:`repro.join.knn.knn_join` (enforced by the randomized equivalence
suites on both backends and all metrics).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro.core.distance import Metric, resolve_metric
from repro.core.pointset import PointSet
from repro.engine.partition import partition_pointset, take_payload
from repro.engine.cost import forced_plan
from repro.engine.workers import run_shards
from repro.join.epsilon import JoinPairs, _normalise_sides
from repro.join.knn import _check_k, _initial_radius, _knn_serial, knn_table, table_pairs

__all__ = ["knn_join_sharded"]


def _knn_shard(left_payload: Any, right_payload: Any, want: int, metric_value: str) -> Any:
    """Worker body: the neighbour table of one left shard.

    Module-level (not a closure) so it pickles by reference under every
    multiprocessing start method.  Rows follow the shard's local left order.
    """
    return knn_table(
        PointSet.from_any(left_payload),
        PointSet.from_any(right_payload),
        want,
        resolve_metric(metric_value),
    )


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
) -> JoinPairs:
    """Run the kNN-join over left-relation shards in worker processes.

    Result-identical to the serial :func:`repro.join.knn.knn_join` — same
    pairs, same order.  ``shards`` overrides the planned shard count (used
    by tests to force the partition/merge pipeline; a one-worker plan then
    runs it in process).
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
    shard_indices = _left_partitions(left_ps, _initial_radius(right_ps, want), n_shards)
    if len(shard_indices) < 2:
        return _knn_serial(left_ps, right_ps, k, metric)

    right_payload = take_payload(right_ps, range(n_right))
    payloads = [
        (take_payload(left_ps, indices), right_payload, want, metric.value)
        for indices in shard_indices
    ]
    ran = run_shards(plan.workers, _knn_shard, payloads)
    if ran is None:
        return _knn_serial(left_ps, right_ps, k, metric)

    # Merge: every global left index lives in exactly one shard, and row r
    # of a shard's table answers its r-th left index, so scattering the rows
    # into a global table and reading it in index order reproduces the
    # serial output exactly.
    tables = ran[1]
    if isinstance(tables[0], list):
        merged: Any = [None] * n_left
        for indices, table in zip(shard_indices, tables):
            for i, row in zip(indices, table):
                merged[i] = row
    else:
        import numpy as np

        merged = np.empty((n_left, want), dtype=np.int64)
        for indices, table in zip(shard_indices, tables):
            merged[np.asarray(indices, dtype=np.intp)] = table
    return table_pairs(merged)
