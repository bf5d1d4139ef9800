"""Shard-level aggregate push-down for parallel SGB-Any queries.

The plain sharded SGB path (:func:`repro.engine.workers.sgb_any_sharded`)
parallelises only the *grouping*: workers return their shard's Union-Find
forest and the coordinator then replays every group member through the
aggregate accumulators.  For wide shards that replay — one pass over every
buffered row, per aggregate — is the remaining serial section.

This module pushes the accumulation into the workers: each shard task
groups its slab *and* folds the shard rows into per-local-root accumulator
states (:meth:`Aggregate.step_many` exactly as the coordinator replay
would), returning only the picklable partial states
(:meth:`Aggregate.partial`).  The coordinator merges the forests as before
and then merges each global group's states with :meth:`Aggregate.absorb`
instead of touching the rows again.  Grouping-key centroids stay on the
coordinator: they are float sums whose value depends on addition order, and
only the ascending-global-index order of the serial replay is the reference.

Exactness gate
--------------
Push-down must be *invisible*: the executor's parallel results are asserted
equal to the serial ones, so a query is eligible only when state merging
provably reproduces the row replay:

* every aggregate must be :attr:`Aggregate.mergeable`
  (``count(*)``/``count``/``min``/``max``/``sum``/``avg``) — order-free by
  algebra;
* ``sum``/``avg`` are additionally gated on every value being a Python
  ``int`` (and not ``bool``): integer addition is arbitrary-precision and
  therefore insensitive to the partition, while float addition is not.

Ineligible queries (any other aggregate, float sums, ELIMINATE semantics —
which never reach here because SGB-All always runs serially) keep the
existing ship-members-and-replay path unchanged.

Push-down runs only on a result-cache miss: the executor stores the
grouping the workers produced, and a later hit replays the aggregates
locally from that grouping.  The shard pipeline itself is the SGB-Any one
(:func:`repro.engine.workers.sharded_forest`) plus a worker-side fold, so
a missing or broken pool returns ``None`` and the executor replays.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.distance import resolve_metric
from repro.core.pointset import PointSet
from repro.core.result import GroupingResult
from repro.engine.merge import canonical_groups
from repro.engine.workers import sharded_forest
from repro.minidb.exec.aggregate import AggregateSpec
from repro.minidb.functions import MULTI_ARG_AGGREGATES, create_aggregate

__all__ = ["pushdown_eligible", "columns_eligible", "sgb_any_pushdown"]

#: Aggregates whose partial states merge exactly regardless of partition.
_MERGEABLE_FUNCS = frozenset({"count", "min", "max", "sum", "avg", "average"})

#: Of those, the ones whose accumulation is an addition — exact only when
#: every value is an arbitrary-precision int.
_ADDITIVE_FUNCS = frozenset({"sum", "avg", "average"})


def pushdown_eligible(specs: Sequence[AggregateSpec]) -> bool:
    """Static check: every spec's aggregate supports exact state merging."""
    for spec in specs:
        func = spec.func.lower()
        if func not in _MERGEABLE_FUNCS or func in MULTI_ARG_AGGREGATES:
            return False
    return True


def columns_eligible(
    specs: Sequence[AggregateSpec], columns: Sequence[Optional[List[Any]]]
) -> bool:
    """Runtime check: additive aggregates only push down over pure-int values."""
    for spec, column in zip(specs, columns):
        if spec.func.lower() not in _ADDITIVE_FUNCS or column is None:
            continue
        for value in column:
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                return False
    return True


def _shard_partials(
    forest: Dict[int, int],
    spec_payload: List[Tuple[str, bool]],
    shard_columns: List[Optional[List[Any]]],
) -> Dict[int, List[Any]]:
    """Worker-side fold: pre-aggregate one grouped shard's rows per local root.

    Module-level (not a closure) so it pickles by reference under every
    multiprocessing start method.  ``shard_columns`` holds one value column
    per spec aligned with the shard's local row order (``None`` for
    ``count(*)``-style constant steps).  Returns
    ``{local_root: [partial state per spec]}``.
    """
    members_by_root: Dict[int, List[int]] = {}
    for position in range(len(forest)):
        members_by_root.setdefault(forest[position], []).append(position)
    partials: Dict[int, List[Any]] = {}
    for root, members in members_by_root.items():
        accumulators = [create_aggregate(func, star) for func, star in spec_payload]
        for column, acc in zip(shard_columns, accumulators):
            if column is None:
                acc.step_count(len(members))
            else:
                acc.step_many([column[i] for i in members])
        partials[root] = [acc.partial() for acc in accumulators]
    return partials


def sgb_any_pushdown(
    points: PointSet,
    eps: float,
    metric: str,
    workers: "Optional[int | str]",
    specs: Sequence[AggregateSpec],
    agg_columns: Sequence[Optional[List[Any]]],
    shards: Optional[int] = None,
) -> Optional[Tuple[GroupingResult, List[List[Any]]]]:
    """Group + aggregate in worker processes; ``None`` means "use the normal path".

    On success returns the grouping (canonically labelled, exactly what
    :func:`sgb_any_sharded` returns) plus one list of already-stepped
    accumulators per group, aligned with ``grouping.groups`` — the caller
    only finalizes them.  Any degradation (fewer than two shards planned or
    cut, pool unavailable or broken) returns ``None`` so the caller's
    grouping and replay stay in charge.
    """
    spec_payload = [(spec.func, spec.star) for spec in specs]
    sharded = sharded_forest(
        points,
        PointSet._check_eps(eps),
        resolve_metric(metric),
        workers,
        shards,
        lambda shard: (
            _shard_partials,
            spec_payload,
            [
                None if column is None else [column[g] for g in shard.indices]
                for column in agg_columns
            ],
        ),
    )
    if sharded is None:
        return None
    uf, shard_lists, results = sharded
    # Absorb the shard states per global root, visiting shards (then local
    # roots) in ascending order so the merge order is deterministic.
    merged: Dict[int, List[Any]] = {}
    for indices, (_, partials) in zip(shard_lists, results):
        for local_root in sorted(partials):
            global_root = uf.find(indices[local_root])
            accumulators = merged.get(global_root)
            if accumulators is None:
                accumulators = [
                    create_aggregate(spec.func, spec.star) for spec in specs
                ]
                merged[global_root] = accumulators
            for acc, state in zip(accumulators, partials[local_root]):
                acc.absorb(state)

    groups = canonical_groups(uf)
    group_accumulators = [merged[uf.find(group[0])] for group in groups]
    grouping = GroupingResult(
        groups=groups, eliminated=[], points=points.to_tuples()
    )
    return grouping, group_accumulators
