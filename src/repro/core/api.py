"""High-level convenience API for the SGB operators on plain point arrays.

These functions are the entry point recommended in the README: they accept
any sequence of numeric 2-d (or d-dimensional) points — lists, tuples, or a
numpy array — and return a :class:`~repro.core.result.GroupingResult`.

For SQL-level access (the paper's extended ``GROUP BY`` syntax interleaved
with joins, filters, and aggregates) use :class:`repro.minidb.Database`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

from repro.core.distance import Metric
from repro.core.overlap import OverlapAction
from repro.core.pointset import PointSet
from repro.core.result import GroupingResult
from repro.core.sgb_all import IndexFactory, SGBAllStrategy, sgb_all_grouping
from repro.core.sgb_any import SGBAnyStrategy, sgb_any_grouping
from repro.exceptions import InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.stream.session import WindowResult
    from repro.stream.window import WindowPolicy

__all__ = ["sgb_all", "sgb_any", "sgb_any_stream", "sim_join", "cluster_by"]


def _normalise_points(points: Sequence[Sequence[float]]) -> PointSet:
    """Normalise any point container into a :class:`PointSet`.

    NumPy arrays are adopted zero-copy (no per-point Python tuple
    materialisation); every input is checked once for consistent
    dimensionality and finite (non-NaN, non-infinite) coordinates.
    """
    return PointSet.from_any(points)


def _grouping_cache_key(
    points: PointSet,
    cache: object,
    kind: str,
    eps: float,
    metric: "Metric | str",
    strategy: str,
    on_overlap: Optional[str] = None,
    seed: int = 0,
):
    """Resolve the result cache and the batch's grouping key, or ``(None, None)``.

    Parameters that cannot be canonicalised (a bad eps or metric) simply
    disable caching for the call: the grouping itself then raises the proper
    validation error.
    """
    from repro.storage.cache import resolve_cache, sgb_all_key, sgb_any_key

    resolved = resolve_cache(cache)
    if resolved is None:
        return None, None
    from repro.core.distance import resolve_metric
    from repro.core.fingerprint import fingerprint_points

    try:
        metric_name = resolve_metric(metric).value
        eps_value = float(eps)
    except Exception:  # noqa: BLE001 - let the grouping surface the error
        return None, None
    fingerprint = fingerprint_points(points)
    if kind == "any":
        return resolved, sgb_any_key(
            fingerprint, eps_value, metric_name, strategy, points.backend
        )
    return resolved, sgb_all_key(
        fingerprint,
        eps_value,
        metric_name,
        strategy,
        str(on_overlap),
        int(seed),
        points.backend,
    )


def sgb_all(
    points: Sequence[Sequence[float]],
    eps: float,
    metric: "Metric | str" = Metric.L2,
    on_overlap: "OverlapAction | str" = OverlapAction.JOIN_ANY,
    strategy: "SGBAllStrategy | str" = SGBAllStrategy.INDEX,
    seed: int = 0,
    index_factory: Optional[IndexFactory] = None,
    batch: bool = True,
    planner: bool = True,
    cache: object = None,
) -> GroupingResult:
    """Run the SGB-All (distance-to-all / clique) operator over ``points``.

    Parameters
    ----------
    points:
        Sequence of d-dimensional numeric points, processed in order.  A
        NumPy ``(n, d)`` array is consumed zero-copy.
    eps:
        Similarity threshold (the SQL ``WITHIN`` value); must be positive.
    metric:
        ``"L2"`` (Euclidean, default) or ``"LINF"`` (maximum distance).
    on_overlap:
        Arbitration for points qualifying for several groups: ``"JOIN-ANY"``,
        ``"ELIMINATE"``, or ``"FORM-NEW-GROUP"``.
    strategy:
        ``"all-pairs"``, ``"bounds-checking"``, or ``"index"`` (default; the
        paper's on-the-fly R-tree algorithm).
    seed:
        Seed for the pseudo-random choice made by ``JOIN-ANY``.
    index_factory:
        Optional callable returning an empty spatial index, used by the
        ``index`` strategy (defaults to an R-tree).
    batch:
        Route through the batched columnar pipeline (default).  ``False``
        forces the scalar point-at-a-time reference path; both produce
        identical results.
    planner:
        Let the cost planner pick scalar vs frontier from the batch's
        statistics (default; advisory about time only, recorded on
        ``result.plan``).  ``False`` pins exactly the path the flags name —
        the benchmark runners use this so measurements stay comparable
        across machines.
    cache:
        Result cache for repeated groupings of identical data: ``True`` (the
        process-wide default cache), a spill-directory path, or a
        :class:`repro.storage.ResultCache`; ``None`` defers to the
        ``SGB_CACHE`` environment variable and ``SGB_CACHE=off`` disables
        caching regardless.  Hits are bit-identical to recomputing (the
        advisory ``plan`` is not cached).

    Returns
    -------
    GroupingResult
        Group membership by input row index, plus any eliminated rows.
    """
    normalised = _normalise_points(points)
    resolved, key = _grouping_cache_key(
        normalised,
        cache,
        kind="all",
        eps=eps,
        metric=metric,
        strategy=SGBAllStrategy.parse(strategy).value,
        on_overlap=OverlapAction.parse(on_overlap).value,
        seed=seed,
    )
    if resolved is not None:
        hit = resolved.get_grouping(key)
        if hit is not None:
            return hit
    result = sgb_all_grouping(
        normalised,
        eps=eps,
        metric=metric,
        on_overlap=on_overlap,
        strategy=strategy,
        seed=seed,
        index_factory=index_factory,
        batch=batch,
        planner=planner,
    )
    if resolved is not None:
        resolved.put_grouping(key, result)
    return result


def sgb_any(
    points: Sequence[Sequence[float]],
    eps: float,
    metric: "Metric | str" = Metric.L2,
    strategy: "SGBAnyStrategy | str" = SGBAnyStrategy.INDEX,
    index_factory: Optional[IndexFactory] = None,
    batch: bool = True,
    workers: "Optional[int | str]" = None,
    cache: object = None,
) -> GroupingResult:
    """Run the SGB-Any (distance-to-any / connectivity) operator over ``points``.

    Groups are the connected components of the graph linking points within
    ``eps`` of each other under the chosen metric.  There is no overlap
    clause: overlapping groups merge by definition.  A NumPy ``(n, d)``
    array is consumed zero-copy; ``batch=False`` forces the scalar
    point-at-a-time reference path (identical results).

    ``workers`` controls the sharded parallel engine on the batch path:
    ``workers=N`` forces up to N worker processes (clamped to the machine's
    capacity with a warning), while ``0``/``"auto"`` — or ``None`` (the
    default) with the ``SGB_WORKERS`` environment variable unset or
    ``"auto"`` — *delegates to the cost planner*, which picks serial vs
    sharded execution and the shard fan-out from the input's cached
    statistics and records its choice on ``result.plan``.  Every mode
    returns group assignments identical to the serial and scalar paths.

    ``cache`` memoises the grouping under a content digest of the batch
    (see :func:`sgb_all`); worker counts are execution detail and never part
    of the key, so serial and sharded runs share entries.
    """
    normalised = _normalise_points(points)
    resolved, key = _grouping_cache_key(
        normalised,
        cache,
        kind="any",
        eps=eps,
        metric=metric,
        strategy=SGBAnyStrategy.parse(strategy).value,
    )
    if resolved is not None:
        hit = resolved.get_grouping(key)
        if hit is not None:
            return hit
    result = sgb_any_grouping(
        normalised,
        eps=eps,
        metric=metric,
        strategy=strategy,
        index_factory=index_factory,
        batch=batch,
        workers=workers,
    )
    if resolved is not None:
        resolved.put_grouping(key, result)
    return result


def sgb_any_stream(
    batches: "Iterable[Sequence[Sequence[float]] | tuple]",
    eps: float,
    metric: "Metric | str" = Metric.L2,
    window: "WindowPolicy | int" = None,  # type: ignore[assignment]
    slide: Optional[int] = None,
    workers: "Optional[int | str]" = None,
    backend: Optional[str] = None,
) -> "Iterator[WindowResult]":
    """Group a continuous point stream over sliding or tumbling windows.

    ``batches`` is any iterable of micro-batches; each batch is a point
    container :func:`sgb_any` would accept (with a tick-based
    :class:`~repro.stream.window.WindowPolicy`, a ``(points, ticks)`` pair
    instead).  Yields one :class:`~repro.stream.session.WindowResult` per
    closed window: the grouping of the window's live points — bit-identical
    (after canonical relabelling) to a from-scratch :func:`sgb_any` over
    those points — plus the delta events since the previous window.

    Parameters
    ----------
    window:
        Count-window size (an int), or a
        :class:`~repro.stream.window.WindowPolicy` for tick-based / explicit
        policies.
    slide:
        Count-window slide; omitted means tumbling.  The size must be a
        multiple of the slide so eviction always drops whole epochs.
    workers:
        Per-flush sharding through ``repro.engine``, resolved exactly like
        :func:`sgb_any`'s ``workers``; with one worker (the default) flushes
        read the incrementally maintained forest instead of regrouping.
    backend:
        Optional ``PointSet`` backend override (``"python"`` forces the
        pure-Python columnar kernels).
    """
    from repro.stream.session import stream_groups

    return stream_groups(
        batches,
        eps,
        metric=metric,
        window=window,
        slide=slide,
        workers=workers,
        backend=backend,
    )


def sim_join(
    left: Sequence[Sequence[float]],
    right: Sequence[Sequence[float]],
    eps: Optional[float] = None,
    k: Optional[int] = None,
    metric: "Metric | str" = Metric.L2,
    workers: "Optional[int | str]" = None,
    backend: Optional[str] = None,
    cache: object = None,
) -> "list[tuple[int, int]]":
    """Similarity-join two point relations; returns ``(left, right)`` index pairs.

    Pass ``eps`` for an epsilon-join (every cross pair within the threshold,
    in lexicographic order) or ``k`` for a kNN-join (each left point with its
    k nearest right points, distance ties broken by ascending right index);
    exactly one of the two must be given.  ``workers`` resolves exactly like
    :func:`sgb_any`'s: a numeric value forces the sharded engine, while
    ``"auto"``/``0``/unset delegates the serial-vs-sharded choice to the
    cost planner — either way the result is bit-identical to the serial
    join.  ``cache`` memoises the pair list under content digests of both
    relations (see :func:`sgb_all`).

    SQL-level access is the ``FROM a SIMILARITY JOIN b ON DISTANCE(...)
    WITHIN eps`` / ``KNN k`` clause of :class:`repro.minidb.Database`; see
    :mod:`repro.join` for the underlying subsystem.
    """
    from repro.join.api import sim_join as _sim_join

    return _sim_join(
        left,
        right,
        eps=eps,
        k=k,
        metric=metric,
        workers=workers,
        backend=backend,
        cache=cache,
    )


def cluster_by(
    points: Sequence[Sequence[float]],
    eps: float,
    metric: "Metric | str" = Metric.L2,
    semantics: str = "any",
    **kwargs,
) -> GroupingResult:
    """Convenience wrapper mirroring the related-work ``CLUSTER BY`` construct.

    ``semantics="any"`` gives connectivity clustering (SGB-Any, the behaviour
    of ``CLUSTER BY`` with a DBSCAN-like grouping); ``semantics="all"`` gives
    clique grouping (SGB-All with ``JOIN-ANY``).
    """
    kind = semantics.strip().lower()
    if kind == "any":
        return sgb_any(points, eps, metric=metric, **kwargs)
    if kind == "all":
        return sgb_all(points, eps, metric=metric, **kwargs)
    raise InvalidParameterError(f"unknown cluster_by semantics: {semantics!r}")
