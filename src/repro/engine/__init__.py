"""Sharded parallel execution engine for the SGB operators.

The eps-grid that :meth:`repro.core.pointset.PointSet.pairwise_within` sweeps
is a spatial decomposition in which only points in neighbouring cells can be
within ``eps`` of each other.  That makes SGB-Any embarrassingly partitionable:

1. :mod:`repro.engine.partition` cuts the input into grid-aligned shards
   along its widest axis, plus one *halo band* (the points in the two
   eps-cells flanking each cut) per internal shard boundary;
2. :mod:`repro.engine.workers` runs per-shard SGB-Any grouping — each worker
   is an ordinary :class:`~repro.core.sgb_any.SGBAnyGrouper` fed with
   ``add_batch`` — through :func:`~repro.engine.workers.run_shards`, the one
   pool scaffold every sharded driver (SGB-Any, the SQL aggregate push-down,
   the eps- and kNN-joins) shares: shards go to a cached
   ``ProcessPoolExecutor`` while the halo stitching runs in process, a
   missing or broken pool sends the driver to its serial reference, a
   stitching error propagates, and only one-worker plans run the shards in
   process;
3. :mod:`repro.engine.merge` relabels the shard-local Union-Find forests into
   the global row-index space, merges them, and applies the halo-band edges,
   yielding exactly the connected components the serial pass computes;
4. :mod:`repro.engine.cost` is the one planner: every entry point asks it
   for one :class:`~repro.engine.cost.PhysicalPlan` and runs the mode it
   names.  When the caller passes ``workers="auto"`` or no knob at all, the
   cost model scores serial vs sharded candidates on the batch summary from
   :mod:`repro.engine.stats` (count, bbox, per-axis histograms) with unit
   costs measured once per machine by :mod:`repro.engine.calibrate`; a
   numeric worker count (argument or ``SGB_WORKERS``) is forced, and
   :func:`~repro.engine.cost.forced_plan` sizes the pool from that count and
   the row count alone.

The result is *bit-identical* to the serial batch path after canonical
relabelling (groups ordered by smallest member, members ascending), which the
randomized equivalence suite enforces — plans are advisory about time only.
"""

from repro.engine.calibrate import CostProfile, load_profile
from repro.engine.cost import (
    PhysicalPlan,
    forced_plan,
    plan_eps_join,
    plan_knn_join,
    plan_sgb_all,
    plan_sgb_any,
    plan_stream_flush,
    planner_delegated,
    resolve_workers,
)
from repro.engine.merge import canonical_groups, merge_shard_forests
from repro.engine.partition import GridPartition, HaloBand, Shard, partition_pointset
from repro.engine.stats import PointStats, collect_stats, synthetic_stats
from repro.engine.workers import (
    drop_worker_pool,
    get_worker_pool,
    shutdown_worker_pools,
    sgb_any_sharded,
)

__all__ = [
    "CostProfile",
    "GridPartition",
    "HaloBand",
    "PhysicalPlan",
    "PointStats",
    "Shard",
    "canonical_groups",
    "collect_stats",
    "forced_plan",
    "load_profile",
    "merge_shard_forests",
    "partition_pointset",
    "plan_eps_join",
    "plan_knn_join",
    "plan_sgb_all",
    "plan_sgb_any",
    "plan_stream_flush",
    "planner_delegated",
    "resolve_workers",
    "synthetic_stats",
    "get_worker_pool",
    "drop_worker_pool",
    "shutdown_worker_pools",
    "sgb_any_sharded",
]
