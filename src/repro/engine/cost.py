"""Cost-based physical planning for the SGB operators and similarity joins.

Given a :class:`~repro.engine.stats.PointStats` summary of the input, the
planners here price every *candidate execution mode* of an operator with the
unit costs in :data:`PROFILE` and return a :class:`PhysicalPlan` naming the
winner with its estimated cost:

=============  ==========================================================
operator       candidate modes
=============  ==========================================================
``sgb_any``    ``scalar`` · ``batch`` (serial grid) · ``sharded``
``sgb_all``    ``scalar`` · ``frontier`` (reported, not chosen)
``eps_join``   ``allpairs`` · ``grid`` · ``sharded``
``knn_join``   ``serial`` · ``sharded``
``stream``     ``incremental`` · ``sharded-flush``
=============  ==========================================================

Plans are **advisory about time only** — every candidate mode is
result-identical to the serial scalar reference (the randomized equivalence
suite enforces this), so a mis-estimate can waste seconds, never change an
answer.

The cost model engages only when the caller delegated the choice
(:func:`planner_delegated`): ``workers="auto"`` / ``0``, or no ``workers``
argument with no numeric ``SGB_WORKERS`` in the environment.  An explicit
numeric worker count is a forced mode: :func:`forced_plan` sizes the pool
from that count and the row count alone, without statistics, so benchmarks
and the forced-parallel CI lane measure exactly what they pinned.  Either
way the caller gets one :class:`PhysicalPlan` and runs the mode it names.

Sharded plans pick the *shard fan-out* adaptively from the partition-axis
histogram: on uniform data one slab per worker is optimal (more shards only
add per-task overhead), but on skewed data the balanced-cut slabs are capped
by the histogram's hot bins, so the planner over-decomposes (2–4 slabs per
worker) and lets the pool's greedy scheduling pack the uneven slabs — the
classic LPT remedy for stragglers.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.engine.stats import PointStats
from repro.exceptions import InvalidParameterError

__all__ = [
    "CostProfile",
    "ENV_WORKERS",
    "MIN_PARALLEL_POINTS",
    "PROFILE",
    "PhysicalPlan",
    "forced_plan",
    "planner_delegated",
    "resolve_workers",
    "plan_sgb_any",
    "plan_sgb_all",
    "plan_eps_join",
    "plan_knn_join",
    "plan_stream_flush",
    "filter_placement_gain",
]

#: Environment default for the worker count (used when ``workers`` is None).
ENV_WORKERS = "SGB_WORKERS"

#: Below this many points the per-process overhead (pickling the shard
#: payloads plus shipping the forests back) outweighs the grouping work, so
#: every plan stays serial, forced or delegated.
MIN_PARALLEL_POINTS = 64


@dataclass(frozen=True)
class CostProfile:
    """Unit costs, in seconds, for the planner's formulas.

    ``c_point`` ingests one point through the eps-grid (hashing, binning);
    ``c_pair`` verifies one candidate pair (distance test + union);
    ``c_task`` is the fixed overhead of one shard task (pickling the closure,
    scheduling); ``c_ship`` ships one point to a worker process and its
    grouped rows back.
    """

    c_point: float
    c_pair: float
    c_task: float
    c_ship: float


#: The one set of unit costs every plan is priced with.  Derived from a
#: mid-range laptop, with the pool costs rounded *up* so the planner only
#: goes parallel when the win is unambiguous; a wrong mode choice costs time,
#: never correctness.  Constant, so a plan depends only on its inputs and
#: the core count, never on files the machine happens to hold.
PROFILE = CostProfile(c_point=2.0e-6, c_pair=1.5e-7, c_task=3.0e-3, c_ship=1.0e-6)

#: Estimated serial runtimes below this are not worth parallelising no
#: matter what the formulas say: pool latency and result shipping are
#: certain, the projected win is not.
_MIN_PARALLEL_SECONDS = 0.05

#: A parallel plan must project at least this speedup over the best serial
#: candidate before it is chosen (hysteresis against estimation noise).
_MIN_PARALLEL_GAIN = 1.25

#: Candidate slabs-per-worker fan-outs scored for sharded plans.
_FANOUT_CANDIDATES = (1, 2, 4)

#: Above this partition-axis imbalance the input counts as skewed.
_SKEW_THRESHOLD = 1.5


@dataclass(frozen=True)
class PhysicalPlan:
    """One scored execution choice for an operator invocation.

    ``details`` carries the per-candidate cost table so ``EXPLAIN`` (and the
    decision-regression tests) can show *why* the winner won, not just who.
    """

    op: str
    mode: str
    workers: int = 1
    shards: int = 1
    est_cost: float = 0.0
    est_rows: int = 0
    reason: str = ""
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def describe(self) -> str:
        """One-line rendering used by ``EXPLAIN`` and ``repr``-style logs."""
        parts = [f"{self.op}: mode={self.mode}"]
        if self.workers > 1 or self.shards > 1:
            parts.append(f"workers={self.workers} shards={self.shards}")
        parts.append(f"est_cost={self.est_cost:.6f}s est_rows={self.est_rows}")
        if self.reason:
            parts.append(f"({self.reason})")
        return " ".join(parts)


def planner_delegated(workers: "Optional[int | str]" = None) -> bool:
    """True when the caller left the mode choice to the cost model.

    Delegation means ``workers="auto"`` / ``0`` (explicitly "you pick"), or
    ``workers=None`` with ``SGB_WORKERS`` unset (or itself ``auto``/``0``).
    A numeric worker count — argument or environment — is a *forced* mode:
    the caller runs :func:`forced_plan` and the statistics stay unread.
    """
    if workers is None:
        env = os.environ.get(ENV_WORKERS, "").strip().lower()
        return env in ("", "auto", "0")
    if isinstance(workers, str):
        return workers.strip().lower() == "auto"
    return workers == 0


def resolve_workers(
    workers: "Optional[int | str]" = None, cpu_count: Optional[int] = None
) -> int:
    """Resolve a worker count: explicit argument > ``SGB_WORKERS`` env > 1.

    ``0`` or ``"auto"`` means "use every available core"
    (``os.cpu_count()``); ``None`` defers to the environment and defaults to
    serial.  Invalid values raise :class:`InvalidParameterError` so
    misconfiguration is loud rather than silently serial.

    Numeric requests larger than the machine (argument or ``SGB_WORKERS``
    alike) are clamped with a :class:`RuntimeWarning` — spawning more
    grouping processes than cores only adds scheduling churn and memory
    pressure.  The cap is never below 2: a two-process pool must stay viable
    even on one-core boxes, because the forced-parallel CI lane
    (``SGB_WORKERS=2``) relies on the pool really running there.
    """
    if workers is None:
        env = os.environ.get(ENV_WORKERS)
        if env is None or not env.strip():
            return 1
        workers = env.strip()
    if isinstance(workers, str) and workers.strip().lower() == "auto":
        workers = 0
    try:
        count = int(workers)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise InvalidParameterError(f"workers must be an integer, got {workers!r}")
    if count < 0:
        raise InvalidParameterError(f"workers must not be negative, got {count}")
    cores = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    if count == 0:
        return max(1, cores)
    cap = max(2, cores)
    if count > cap:
        warnings.warn(
            f"workers={count} exceeds this machine's capacity "
            f"(cpu_count={cores}); clamping the pool to {cap}",
            RuntimeWarning,
            stacklevel=2,
        )
        count = cap
    return count


def forced_plan(
    op: str,
    n_points: int,
    workers: "Optional[int | str]",
    cpu_count: Optional[int] = None,
) -> PhysicalPlan:
    """The plan for a caller-forced worker count: ``sharded`` or ``serial``.

    Decided from the resolved worker count and ``n_points`` alone — no
    statistics are collected.  One shard per worker (the partitioner
    balances the slab populations, so more shards than workers only add
    merge overhead), and never shards so small that the merge dominates the
    grouping.  The partitioner may still cut fewer shards than planned on
    degenerate extents.
    """
    count = resolve_workers(workers, cpu_count=cpu_count)
    if count <= 1:
        return PhysicalPlan(op=op, mode="serial", reason="workers<=1")
    if n_points < MIN_PARALLEL_POINTS:
        return PhysicalPlan(
            op=op, mode="serial", reason=f"payload below {MIN_PARALLEL_POINTS} points"
        )
    count = max(2, min(count, n_points // max(1, MIN_PARALLEL_POINTS // 2)))
    return PhysicalPlan(
        op=op,
        mode="sharded",
        workers=count,
        shards=count,
        reason=f"{count} workers over {n_points} points",
    )


def _sharded_candidate(
    stats: PointStats,
    serial_work: float,
    ship_rows: int,
    workers: int,
) -> Tuple[float, int, Dict[str, float]]:
    """Best sharded cost for ``workers`` processes: (cost, fan-out, table).

    Slab task costs are read off the partition-axis histogram (the same
    balanced cuts the partitioner will place); the makespan of greedily
    packing ``F`` slab tasks onto ``W`` workers is bounded below by both the
    biggest single slab and the perfectly balanced share, so we price it as
    their max — the standard LPT estimate.
    """
    detail: Dict[str, float] = {}
    best_cost = float("inf")
    best_fanout = workers
    for per_worker in _FANOUT_CANDIDATES:
        fanout = workers * per_worker
        loads = stats.slab_loads(fanout)
        # Work splits across slabs proportionally to the squared load share:
        # per-point work is linear, pair verification quadratic in density.
        sq_total = sum(load * load for load in loads) or 1
        slab_costs = [
            serial_work * (load * load) / (sq_total * 1.0) for load in loads
        ]
        makespan = max(max(slab_costs), sum(slab_costs) / workers)
        cost = (
            makespan
            + PROFILE.c_task * len(loads)
            + PROFILE.c_ship * ship_rows
        )
        detail[f"sharded@{fanout}"] = cost
        if cost < best_cost:
            best_cost = cost
            best_fanout = fanout
    return best_cost, best_fanout, detail


def _pick_parallel(
    serial_mode: str,
    serial_cost: float,
    sharded_cost: float,
) -> bool:
    """Hysteresis gate: go parallel only for a clear, worthwhile win."""
    if serial_cost < _MIN_PARALLEL_SECONDS:
        return False
    return sharded_cost * _MIN_PARALLEL_GAIN <= serial_cost


def plan_sgb_any(
    stats: PointStats,
    eps: float,
    cpu_count: Optional[int] = None,
) -> PhysicalPlan:
    """Choose the execution mode for one SGB-Any batch."""
    n = stats.count
    pairs = stats.estimated_pairs(eps)
    est_rows = stats.estimated_groups(eps)
    serial_cost = PROFILE.c_point * n + PROFILE.c_pair * pairs
    if n < max(32, MIN_PARALLEL_POINTS):
        # The grid build isn't worth it for a handful of points, and the
        # partitioner refuses tiny payloads anyway.
        mode = "scalar" if n < 32 else "batch"
        return PhysicalPlan(
            op="sgb_any",
            mode=mode,
            est_cost=serial_cost,
            est_rows=est_rows,
            reason=f"n={n} below parallel floor",
            details={"batch": serial_cost},
        )
    workers = resolve_workers("auto", cpu_count)
    details: Dict[str, float] = {"batch": serial_cost}
    if workers > 1:
        sharded_cost, fanout, detail = _sharded_candidate(
            stats, serial_cost, ship_rows=n, workers=workers
        )
        details.update(detail)
        if _pick_parallel("batch", serial_cost, sharded_cost):
            skew = stats.axis_imbalance()
            return PhysicalPlan(
                op="sgb_any",
                mode="sharded",
                workers=workers,
                shards=fanout,
                est_cost=sharded_cost,
                est_rows=est_rows,
                reason=(
                    f"skew={skew:.2f} -> {fanout} shards on {workers} workers"
                ),
                details=details,
            )
    return PhysicalPlan(
        op="sgb_any",
        mode="batch",
        est_cost=serial_cost,
        est_rows=est_rows,
        reason="serial grid cheapest" if workers > 1 else "single core",
        details=details,
    )


def plan_sgb_all(stats: PointStats, eps: float, frontier_eligible: bool) -> PhysicalPlan:
    """Report the execution mode of one SGB-All batch.

    SGB-All's group semantics are order-dependent (overlap arbitration), so
    there is no sharded candidate, and the mode is not a cost choice:
    :meth:`~repro.core.sgb_all.SGBAllGrouper.add_batch` takes the frontier
    path exactly when the grouper's ``frontier_eligible`` holds for the
    batch and the per-point (``scalar``) loop otherwise.  The caller passes
    that flag in; the plan names the path that runs and prices both.
    """
    n = stats.count
    pairs = stats.estimated_pairs(eps)
    est_rows = stats.estimated_groups(eps)
    scalar_cost = (PROFILE.c_point * 4.0) * n + PROFILE.c_pair * pairs * 2.0
    frontier_cost = PROFILE.c_point * n + PROFILE.c_pair * pairs
    details = {"scalar": scalar_cost, "frontier": frontier_cost}
    if not frontier_eligible:
        return PhysicalPlan(
            op="sgb_all",
            mode="scalar",
            est_cost=scalar_cost,
            est_rows=est_rows,
            reason="rectangle filter inexact for this metric and dims",
            details=details,
        )
    return PhysicalPlan(
        op="sgb_all",
        mode="frontier",
        est_cost=frontier_cost,
        est_rows=est_rows,
        reason="adjacency decides candidacy exactly",
        details=details,
    )


def plan_eps_join(
    left: PointStats,
    right: PointStats,
    eps: float,
    cpu_count: Optional[int] = None,
) -> PhysicalPlan:
    """Choose all-pairs vs grid vs sharded-grid for one eps-join."""
    n_l, n_r = left.count, right.count
    est_pairs = left.estimated_join_pairs(right, eps)
    est_rows = int(round(est_pairs))
    allpairs_cost = PROFILE.c_pair * n_l * n_r
    # The grid sweep builds cells over both sides and verifies only the
    # candidates in adjacent cells; candidates exceed true hits by a small
    # geometry factor (3^d cell neighbourhoods), priced here at 4x.
    grid_cost = PROFILE.c_point * (n_l + n_r) + PROFILE.c_pair * 4.0 * max(
        est_pairs, 1.0
    )
    details = {"allpairs": allpairs_cost, "grid": grid_cost}
    if allpairs_cost <= grid_cost:
        return PhysicalPlan(
            op="eps_join",
            mode="allpairs",
            est_cost=allpairs_cost,
            est_rows=est_rows,
            reason=f"dense join (selectivity {est_pairs / max(1, n_l * n_r):.3f})",
            details=details,
        )
    workers = resolve_workers("auto", cpu_count)
    if workers > 1 and min(n_l, n_r) >= MIN_PARALLEL_POINTS:
        # Shard the bigger side; both sides ship to the pool.
        big = left if n_l >= n_r else right
        sharded_cost, fanout, detail = _sharded_candidate(
            big, grid_cost, ship_rows=n_l + n_r, workers=workers
        )
        details.update(detail)
        if _pick_parallel("grid", grid_cost, sharded_cost):
            return PhysicalPlan(
                op="eps_join",
                mode="sharded",
                workers=workers,
                shards=fanout,
                est_cost=sharded_cost,
                est_rows=est_rows,
                reason=f"{fanout} shards on {workers} workers",
                details=details,
            )
    return PhysicalPlan(
        op="eps_join",
        mode="grid",
        est_cost=grid_cost,
        est_rows=est_rows,
        reason="grid sweep cheapest",
        details=details,
    )


def plan_knn_join(
    left: PointStats,
    right: PointStats,
    k: int,
    cpu_count: Optional[int] = None,
) -> PhysicalPlan:
    """Choose serial vs sharded execution for one kNN-join."""
    n_l, n_r = left.count, right.count
    est_rows = n_l * min(k, n_r)
    # Build an index over the right side, then one expanding probe per left
    # point; probe cost grows with k (more candidates verified per probe).
    probe_pairs = float(n_l) * min(n_r, 8 * max(1, k))
    serial_cost = PROFILE.c_point * (n_l + n_r) + PROFILE.c_pair * probe_pairs
    details = {"serial": serial_cost}
    workers = resolve_workers("auto", cpu_count)
    if workers > 1 and n_l >= MIN_PARALLEL_POINTS:
        sharded_cost, fanout, detail = _sharded_candidate(
            left, serial_cost, ship_rows=n_l + n_r, workers=workers
        )
        details.update(detail)
        if _pick_parallel("serial", serial_cost, sharded_cost):
            return PhysicalPlan(
                op="knn_join",
                mode="sharded",
                workers=workers,
                shards=fanout,
                est_cost=sharded_cost,
                est_rows=est_rows,
                reason=f"{fanout} probe shards on {workers} workers",
                details=details,
            )
    return PhysicalPlan(
        op="knn_join",
        mode="serial",
        est_cost=serial_cost,
        est_rows=est_rows,
        reason="serial probe cheapest",
        details=details,
    )


def plan_stream_flush(
    window_points: int,
    eps: float,
    cpu_count: Optional[int] = None,
    stats: Optional[PointStats] = None,
) -> PhysicalPlan:
    """Incremental forest read vs per-flush sharded regroup for one window.

    The incremental mode reads the maintained Union-Find forest — near-free
    per flush.  Regrouping the whole window only wins when the window is so
    large that even its *sharded* regroup cost undercuts the incremental
    bookkeeping carried between flushes (eviction rebuilds); below that the
    planner always stays incremental.
    """
    from repro.engine.stats import synthetic_stats

    window_stats = stats if stats is not None else synthetic_stats(window_points)
    regroup = plan_sgb_any(window_stats, eps, cpu_count=cpu_count)
    # Maintained-forest bookkeeping: roughly one point-cost per live point
    # (neighbour probes on ingest were already paid either way).
    incremental_cost = PROFILE.c_point * window_points
    details = dict(regroup.details)
    details["incremental"] = incremental_cost
    if regroup.mode == "sharded" and regroup.est_cost < incremental_cost:
        return PhysicalPlan(
            op="stream_flush",
            mode="sharded-flush",
            workers=regroup.workers,
            shards=regroup.shards,
            est_cost=regroup.est_cost,
            est_rows=regroup.est_rows,
            reason="sharded regroup beats incremental upkeep",
            details=details,
        )
    return PhysicalPlan(
        op="stream_flush",
        mode="incremental",
        est_cost=incremental_cost,
        est_rows=regroup.est_rows,
        reason="maintained forest is near-free per flush",
        details=details,
    )


def filter_placement_gain(
    side: PointStats,
    other: PointStats,
    eps: float,
    selectivity: float,
) -> float:
    """Estimated seconds saved by filtering one eps-join input *first*.

    Compares the join priced on the unfiltered side against the filter pass
    (one predicate evaluation per input row) plus the join priced on the
    side shrunk to ``selectivity`` of its rows.  Positive means push the
    filter below the join; negative or zero means defer it above (e.g. a
    non-selective predicate whose early evaluation buys nothing but still
    costs a pass).  The rewrite layer records either decision in its trace.
    """
    selectivity = max(0.0, min(1.0, selectivity))
    unfiltered = plan_eps_join(side, other, eps).est_cost
    shrunk = side.scaled(side.count * selectivity)
    filtered = PROFILE.c_point * side.count + plan_eps_join(shrunk, other, eps).est_cost
    return unfiltered - filtered


def slab_histogram(stats: PointStats, fanout: int) -> List[int]:
    """The balanced-cut slab loads a sharded plan would schedule (for tests)."""
    return stats.slab_loads(fanout)
