"""Worker-pool layer: one scaffold that runs shard tasks in processes.

Every sharded driver — SGB-Any grouping here, the SQL aggregate push-down,
the eps-join and the kNN-join — hands :func:`run_shards` a module-level task
and one picklable payload per shard.  ``run_shards`` owns the rest: it takes
the cached pool for the plan's worker count, submits the shards, runs the
driver's in-process *stitch* (halo-band edges or pairs) while the pool works,
and gathers the results in shard order.  Pools are cached per worker count
and reused across calls — the executor services many small batches in a
query workload, and respawning processes per batch would dominate.

One failure policy holds for all drivers.  When no pool can be had (no
``fork``, the interpreter shutting down) or the pool breaks (any of
:data:`POOL_ERRORS`: a killed worker, a spawn refused at submit),
``run_shards`` drops it and returns ``None``, and the driver answers from its
serial reference (the push-down returns ``None`` and the executor replays).
The stitch runs outside that handler: a stitching error is a bug and
surfaces.  Only a one-worker plan runs its shards in process — the
``shards=`` test seam.

:func:`sharded_forest` is the SGB-Any sequence both grouping drivers share:
plan, partition, run the shard tasks with the halo-band edges as the stitch,
and merge the shard forests into one global Union-Find.
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.distance import Metric, resolve_metric
from repro.core.pointset import PointSet
from repro.core.result import GroupingResult
from repro.dstruct.union_find import UnionFind
from repro.engine.merge import canonical_groups, merge_shard_forests
from repro.engine.partition import GridPartition, partition_pointset
from repro.engine.cost import forced_plan

__all__ = [
    "POOL_ERRORS",
    "run_shards",
    "sharded_forest",
    "sgb_any_sharded",
    "get_worker_pool",
    "drop_worker_pool",
    "shutdown_worker_pools",
    "begin_shutdown",
    "pool_stats",
]

_POOLS: Dict[int, ProcessPoolExecutor] = {}

#: How a lazily-spawned pool fails: spawn refusals surface at submit as
#: OSError, a shutting-down interpreter as RuntimeError, and a killed worker
#: as BrokenProcessPool.
POOL_ERRORS = (BrokenProcessPool, OSError, RuntimeError)

#: Set once interpreter shutdown begins: spawning a pool (or submitting to a
#: cached one) after ``atexit`` started tearing the process down raises
#: RuntimeError deep inside concurrent.futures, so late callers — a flushed
#: Database.close() in someone's atexit hook, a cached warm-start replay —
#: get the serial fallback instead.
_SHUTTING_DOWN = False


def get_worker_pool(workers: int) -> Optional[ProcessPoolExecutor]:
    """Return the cached pool for ``workers`` processes, creating it lazily.

    Shared by every sharded consumer (the SGB engine and the similarity-join
    subsystem) so one query workload never spawns two pools of the same size.
    Returns ``None`` when no pool can be created (serial fallback), and
    always ``None`` once interpreter shutdown has begun.
    """
    if _SHUTTING_DOWN:
        return None
    pool = _POOLS.get(workers)
    if pool is None:
        try:
            pool = ProcessPoolExecutor(max_workers=workers)
        except (OSError, ValueError):  # no fork/spawn available: serial fallback
            return None
        _POOLS[workers] = pool
    return pool


def drop_worker_pool(workers: int) -> None:
    """Discard (and shut down) the cached pool for ``workers`` processes.

    :func:`run_shards` drops a pool after any of :data:`POOL_ERRORS` so the
    next request starts from a clean slate.
    """
    pool = _POOLS.pop(workers, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_worker_pools() -> None:
    """Shut down every cached worker pool; safe to call at any time.

    Explicit calls leave the layer usable (the next ``get_worker_pool``
    simply builds a fresh pool); the ``atexit`` hook additionally flips the
    shutdown flag first so nothing respawns workers while the interpreter
    tears down.
    """
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.shutdown(wait=False, cancel_futures=True)


def begin_shutdown() -> None:
    """Enter the terminal shutting-down state and tear down every pool.

    After this, :func:`get_worker_pool` returns ``None`` forever, so any
    still-running query falls back to its serial path instead of respawning
    worker processes.  This is the drain the server's SIGTERM handler (and
    the ``atexit`` hook) runs — it is process-wide and irreversible, which
    is exactly right for a process that is about to exit and wrong for
    anything else (in-process test servers must not call it).
    """
    global _SHUTTING_DOWN
    _SHUTTING_DOWN = True
    shutdown_worker_pools()


def pool_stats() -> Dict[str, object]:
    """Observable pool-layer state (the server's ``/v1/stats`` surface)."""
    return {
        "pools": sorted(_POOLS),
        "shutting_down": _SHUTTING_DOWN,
    }


atexit.register(begin_shutdown)


def run_shards(
    workers: int,
    task: Callable[..., Any],
    payloads: Sequence[Tuple[Any, ...]],
    stitch: Optional[Callable[[], Any]] = None,
) -> Optional[Tuple[Any, List[Any]]]:
    """Run ``task(*payload)`` per payload; return ``(stitch(), results)``.

    With ``workers > 1`` the tasks run in the cached pool and ``stitch`` runs
    in process while it works; ``None`` means the pool was missing or broke
    (it is dropped) and the caller must fall back to its serial reference.
    With ``workers <= 1`` everything runs in process.  Results come back in
    payload order; an error raised by ``stitch`` propagates.
    """
    if workers <= 1:
        stitched = stitch() if stitch is not None else None
        return stitched, [task(*payload) for payload in payloads]
    pool = get_worker_pool(workers)
    if pool is None:
        return None
    try:
        futures = [pool.submit(task, *payload) for payload in payloads]
    except POOL_ERRORS:
        drop_worker_pool(workers)
        return None
    stitched = stitch() if stitch is not None else None
    try:
        results = [future.result() for future in futures]
    except POOL_ERRORS:
        drop_worker_pool(workers)
        return None
    return stitched, results


def _group_shard(
    points: Any, eps: float, metric_value: str, fold: Optional[Callable] = None, *fold_args: Any
) -> Tuple[Dict[int, int], Any]:
    """Worker body: SGB-Any over one shard, returning ``(forest, folded)``.

    ``folded`` is ``fold(forest, *fold_args)`` computed in the worker (the
    aggregate push-down folds its rows there), else ``None``.  Module-level
    (not a closure), like every ``fold``, so it pickles by reference under
    every multiprocessing start method.
    """
    from repro.core.sgb_any import SGBAnyGrouper

    grouper = SGBAnyGrouper(eps=eps, metric=metric_value)
    grouper.add_batch(points)
    forest = grouper.forest()
    return forest, (fold(forest, *fold_args) if fold is not None else None)


def _band_edges(
    partition: GridPartition, eps: float, metric: Metric
) -> Iterator[Tuple[int, int]]:
    """Global-index eps-edges inside every halo band (computed in-process)."""
    for band in partition.bands:
        if len(band.indices) < 2:
            continue
        band_ps = PointSet.from_any(band.points)
        indices = band.indices
        for i, j in band_ps.pairwise_within(eps, metric):
            yield indices[i], indices[j]


def _serial_grouping(ps: PointSet, eps: float, metric: Metric) -> GroupingResult:
    # Drive the grouper directly: going back through sgb_any_grouping would
    # re-resolve the SGB_WORKERS environment default and recurse into the
    # engine when the plan degraded to serial.
    from repro.core.sgb_any import SGBAnyGrouper

    grouper = SGBAnyGrouper(eps=eps, metric=metric)
    grouper.add_batch(ps)
    return grouper.finalize()


def sharded_forest(
    ps: PointSet,
    eps: float,
    metric: Metric,
    workers: "Optional[int | str]",
    shards: Optional[int],
    fold_args: Callable[[Any], Tuple[Any, ...]] = lambda shard: (),
) -> Optional[Tuple[UnionFind, List[List[int]], List[Any]]]:
    """Group ``ps`` shard by shard and merge the forests with the halo edges.

    Each shard runs :func:`_group_shard` with ``fold_args(shard)`` as its
    trailing ``(fold, *args)``.  Returns the merged global Union-Find, each
    shard's global row indices, and the per-shard ``(forest, folded)``
    results in shard order — or ``None`` when the plan or the partition
    leaves fewer than two shards, or the pool is missing or broken.
    """
    plan = forced_plan("sgb_any", len(ps), workers)
    n_shards = shards if shards is not None else plan.shards
    if n_shards < 2:
        return None
    partition = partition_pointset(ps, eps, n_shards)
    if partition is None or len(partition.shards) < 2:
        return None
    ran = run_shards(
        plan.workers,
        _group_shard,
        [(shard.points, eps, metric.value, *fold_args(shard)) for shard in partition.shards],
        lambda: list(_band_edges(partition, eps, metric)),
    )
    if ran is None:
        return None
    edges, results = ran
    shard_lists = [shard.indices for shard in partition.shards]
    uf = merge_shard_forests(
        len(ps), shard_lists, [forest for forest, _ in results], edges
    )
    return uf, shard_lists, results


def sgb_any_sharded(
    points: "PointSet | Sequence[Sequence[float]]",
    eps: float,
    metric: "Metric | str" = Metric.L2,
    workers: "Optional[int | str]" = None,
    shards: Optional[int] = None,
) -> GroupingResult:
    """Run SGB-Any over grid shards, in worker processes when available.

    Result-identical to ``sgb_any_grouping(..., batch=True)`` — and to the
    scalar reference path — after the canonical relabelling both apply.
    ``shards`` overrides the planned shard count (used by tests to force the
    partition/merge pipeline; a one-worker plan then runs it in process).
    """
    ps = PointSet.from_any(points)
    metric = resolve_metric(metric)
    eps = PointSet._check_eps(eps)
    sharded = sharded_forest(ps, eps, metric, workers, shards)
    if sharded is None:
        return _serial_grouping(ps, eps, metric)
    return GroupingResult(
        groups=canonical_groups(sharded[0]), eliminated=[], points=ps.to_tuples()
    )
