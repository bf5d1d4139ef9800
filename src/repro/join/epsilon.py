"""Epsilon similarity join: every cross-relation pair within ``eps``.

The eps-join is the cross-relation companion of the SGB-Any edge discovery:
where the grouper links points of *one* relation that lie within ``eps`` of
each other, :func:`eps_join` pairs the tuples of *two* relations.  The kernel
is :meth:`PointSet.cross_within` — the same uniform eps-grid sweep (blocked
brute force past the grid's dimensionality ceiling) and the same ``within_eps``
predicate kernel behind every other eps decision in the library — so the pair
set agrees bit-for-bit with the scalar predicate on both backends and all
supported metrics.

Results are returned in canonical order (lexicographically ascending
``(left_index, right_index)``), which is exactly the order a brute-force
nested loop produces; :func:`eps_join_allpairs` is that nested loop, kept as
the measurement baseline of ``benchmarks/test_join_scaling.py`` (blocked and
vectorised under NumPy, but with no grid pruning).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.distance import Metric, resolve_metric, within_eps
from repro.core.pointset import HAVE_NUMPY, NumpyPointSet, PointSet
from repro.core.predicates import SimilarityPredicate
from repro.exceptions import DimensionalityError

try:  # optional; the scalar nested loop below covers its absence
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the python backend
    _np = None

__all__ = ["JoinResult", "eps_join", "eps_join_allpairs"]

JoinPairs = List[Tuple[int, int]]


class JoinResult(List[Tuple[int, int]]):
    """A join's pair list, annotated with the planner's choice.

    Behaves exactly like the plain ``list`` the joins have always returned
    (equality, ordering, slicing are inherited), plus a ``plan`` attribute
    carrying the :class:`~repro.engine.cost.PhysicalPlan` when the caller
    delegated the mode choice (``workers="auto"`` / no knob); ``None`` for
    forced modes.  Purely informational — plans never change pairs.
    """

    plan = None

#: Row-block size of the vectorised all-pairs baseline (bounds the size of
#: the ``block x n_right`` distance temporaries).
_ALLPAIRS_BLOCK = 256


def _normalise_sides(
    left: "PointSet | Sequence[Sequence[float]]",
    right: "PointSet | Sequence[Sequence[float]]",
    backend: Optional[str],
) -> Tuple[PointSet, PointSet]:
    """Validate both join sides into point sets and check their dimensions."""
    left_ps = PointSet.from_any(left, backend=backend)
    right_ps = PointSet.from_any(right, backend=backend)
    if len(left_ps) and len(right_ps) and left_ps.dims != right_ps.dims:
        raise DimensionalityError(
            f"similarity join dimensionality mismatch: left has {left_ps.dims} "
            f"dimensions, right has {right_ps.dims}"
        )
    return left_ps, right_ps


def eps_join(
    left: "PointSet | Sequence[Sequence[float]]",
    right: "PointSet | Sequence[Sequence[float]]",
    eps: float,
    metric: "Metric | str" = Metric.L2,
    workers: "Optional[int | str]" = None,
    backend: Optional[str] = None,
) -> JoinPairs:
    """Return every ``(i, j)`` with ``left[i]`` within ``eps`` of ``right[j]``.

    Pairs are sorted lexicographically, the order a brute-force nested loop
    yields, so the result is canonical regardless of the execution path.

    ``workers`` routes the join through the sharded engine partitioner
    (:func:`repro.join.sharded.eps_join_sharded`): ``N > 1`` forces up to N
    worker processes, while ``0`` / ``"auto"`` — or ``None`` with no numeric
    ``SGB_WORKERS`` in the environment — delegates the all-pairs vs grid vs
    sharded choice to the cost planner (:mod:`repro.engine.cost`), whose
    selectivity estimate comes from the two sides' histogram overlap; the
    chosen plan is recorded on the returned :class:`JoinResult`.  Every
    path's pair list is bit-identical.
    """
    metric = resolve_metric(metric)
    eps = PointSet._check_eps(eps)
    left_ps, right_ps = _normalise_sides(left, right, backend)
    if len(left_ps) == 0 or len(right_ps) == 0:
        return []
    from repro.engine.cost import forced_plan, plan_eps_join, planner_delegated

    delegated = planner_delegated(workers)
    if delegated:
        from repro.engine.stats import collect_stats

        plan = plan_eps_join(collect_stats(left_ps), collect_stats(right_ps), eps)
    else:
        plan = forced_plan("eps_join", len(left_ps) + len(right_ps), workers)
    if plan.mode == "sharded":
        from repro.join.sharded import eps_join_sharded

        pairs = eps_join_sharded(
            left_ps,
            right_ps,
            eps,
            metric=metric,
            workers=plan.workers,
            shards=plan.shards,
        )
    elif plan.mode == "allpairs":
        pairs = eps_join_allpairs(left_ps, right_ps, eps, metric=metric)
    else:
        pairs = sorted(left_ps.cross_within(right_ps, eps, metric))
    if not delegated:
        return pairs
    result = JoinResult(pairs)
    result.plan = plan
    return result


def eps_join_allpairs(
    left: "PointSet | Sequence[Sequence[float]]",
    right: "PointSet | Sequence[Sequence[float]]",
    eps: float,
    metric: "Metric | str" = Metric.L2,
    backend: Optional[str] = None,
) -> JoinPairs:
    """Brute-force nested-loop eps-join (the benchmark baseline).

    Compares every left row against every right row with no spatial pruning:
    blocked ``within_eps`` sweeps under NumPy, the scalar predicate loop
    otherwise.  Produces exactly the pair list :func:`eps_join` returns —
    the benchmarks use it as the all-pairs baseline and the equivalence
    tests as a second opinion.
    """
    metric = resolve_metric(metric)
    eps = PointSet._check_eps(eps)
    left_ps, right_ps = _normalise_sides(left, right, backend)
    if len(left_ps) == 0 or len(right_ps) == 0:
        return []
    if (
        HAVE_NUMPY
        and isinstance(left_ps, NumpyPointSet)
        and isinstance(right_ps, NumpyPointSet)
    ):
        larr = left_ps.array
        rarr = right_ps.array
        pairs: JoinPairs = []
        for start in range(0, larr.shape[0], _ALLPAIRS_BLOCK):
            block = larr[start : start + _ALLPAIRS_BLOCK]
            mask = within_eps(block, rarr, metric, eps)
            li, rj = _np.nonzero(mask)
            pairs.extend(zip((li + start).tolist(), rj.tolist()))
        return pairs  # nonzero() scans row-major: already (i, j) ascending
    predicate = SimilarityPredicate(metric, eps)
    right_tuples = right_ps.to_tuples()
    return [
        (i, j)
        for i, p in enumerate(left_ps.to_tuples())
        for j, q in enumerate(right_tuples)
        if predicate.similar(p, q)
    ]
