"""Metric-space distance functions used by the similarity predicates.

The paper (Definition 1) works in a metric space ``M = <D, delta>`` and uses
two Minkowski distances:

* ``L2``  — the Euclidean distance ``sqrt(sum (x_i - y_i)^2)``
* ``LINF`` — the maximum (Chebyshev) distance ``max |x_i - y_i|``

This module also provides the general ``Lp`` family as an extension (the
paper leaves metrics beyond L2/L-infinity to future work).  The scalar
functions accept plain sequences of floats; :func:`pairwise_measures` is the
NumPy kernel behind every vectorised eps decision in the batch path, and
:func:`distances_many` is its one-against-many convenience wrapper for
callers that want actual distances.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, List, Sequence

from repro.exceptions import DimensionalityError, InvalidParameterError

try:  # optional dependency: the scalar loops below are the fallback
    import numpy as _np
except ImportError:  # pragma: no cover - exercised where numpy is absent
    _np = None

Point = Sequence[float]
DistanceFunction = Callable[[Point, Point], float]

__all__ = [
    "Point",
    "DistanceFunction",
    "Metric",
    "euclidean",
    "chebyshev",
    "manhattan",
    "minkowski",
    "distances_many",
    "pairwise_measures",
    "paired_measures",
    "within_eps",
    "paired_within",
    "eps_threshold",
    "get_distance_function",
    "resolve_metric",
]


def _check_dims(p: Point, q: Point) -> None:
    if len(p) != len(q):
        raise DimensionalityError(
            f"points have different dimensionality: {len(p)} vs {len(q)}"
        )


def euclidean(p: Point, q: Point) -> float:
    """Return the Euclidean (L2) distance between two points."""
    _check_dims(p, q)
    total = 0.0
    for a, b in zip(p, q):
        diff = a - b
        total += diff * diff
    return math.sqrt(total)


def squared_euclidean(p: Point, q: Point) -> float:
    """Return the squared Euclidean distance (avoids the sqrt for comparisons)."""
    _check_dims(p, q)
    total = 0.0
    for a, b in zip(p, q):
        diff = a - b
        total += diff * diff
    return total


def chebyshev(p: Point, q: Point) -> float:
    """Return the maximum-coordinate (L-infinity / Chebyshev) distance."""
    _check_dims(p, q)
    best = 0.0
    for a, b in zip(p, q):
        diff = abs(a - b)
        if diff > best:
            best = diff
    return best


def manhattan(p: Point, q: Point) -> float:
    """Return the L1 (Manhattan) distance."""
    _check_dims(p, q)
    return sum(abs(a - b) for a, b in zip(p, q))


def minkowski(p: Point, q: Point, order: float) -> float:
    """Return the general Minkowski Lp distance of the given ``order`` >= 1."""
    if order < 1:
        raise InvalidParameterError(f"Minkowski order must be >= 1, got {order}")
    if math.isinf(order):
        return chebyshev(p, q)
    _check_dims(p, q)
    return sum(abs(a - b) ** order for a, b in zip(p, q)) ** (1.0 / order)


class Metric(Enum):
    """Named distance metrics accepted by the SGB operators.

    ``L2`` and ``LINF`` are the two metrics evaluated in the paper; ``L1`` is
    provided as an extension.  The enum value is the SQL keyword used by the
    extended ``GROUP BY ... DISTANCE-TO-ALL <metric> WITHIN eps`` syntax.
    """

    L2 = "L2"
    LINF = "LINF"
    L1 = "L1"

    @property
    def function(self) -> DistanceFunction:
        """Return the callable computing this metric."""
        return _METRIC_FUNCTIONS[self]

    def distance(self, p: Point, q: Point) -> float:
        """Compute the distance between ``p`` and ``q`` under this metric."""
        return self.function(p, q)


_METRIC_FUNCTIONS: dict[Metric, DistanceFunction] = {
    Metric.L2: euclidean,
    Metric.LINF: chebyshev,
    Metric.L1: manhattan,
}

_METRIC_ALIASES: dict[str, Metric] = {
    "l2": Metric.L2,
    "euclidean": Metric.L2,
    "ltwo": Metric.L2,
    "linf": Metric.LINF,
    "l_inf": Metric.LINF,
    "linfinity": Metric.LINF,
    "chebyshev": Metric.LINF,
    "maximum": Metric.LINF,
    "lone": Metric.L1,
    "l1": Metric.L1,
    "manhattan": Metric.L1,
}


def resolve_metric(metric: "Metric | str") -> Metric:
    """Resolve a :class:`Metric` from an enum member or a (case-insensitive) name.

    Accepts the SQL keywords used by the paper's syntax (``L2``, ``LINF``) and
    the aliases that appear in the TPC-H evaluation queries (``ltwo``,
    ``lone``).
    """
    if isinstance(metric, Metric):
        return metric
    if isinstance(metric, str):
        key = metric.strip().lower()
        if key in _METRIC_ALIASES:
            return _METRIC_ALIASES[key]
    raise InvalidParameterError(f"unknown distance metric: {metric!r}")


def get_distance_function(metric: "Metric | str") -> DistanceFunction:
    """Return the distance callable for a metric name or enum member."""
    return resolve_metric(metric).function


def pairwise_measures(probe: "object", block: "object", metric: Metric) -> "object":
    """NumPy kernel: per-pair metric measure between two ``(_, d)`` blocks.

    Returns the ``(a, b)`` array of *measures* — squared distance for L2
    (the comparison form the predicates use), plain distance for LINF/L1 —
    between every row of ``probe (a, d)`` and every row of ``block (b, d)``.

    The coordinate terms accumulate left-to-right, one dimension at a time,
    exactly like the scalar loops above, so comparisons against an epsilon
    are bit-identical to the scalar path at any dimensionality (a plain
    ``.sum(axis=-1)`` would switch to pairwise summation past 8 dimensions
    and flip exact-boundary predicate decisions).
    """
    if probe.shape[1] != block.shape[1]:
        raise DimensionalityError(
            f"points have different dimensionality: "
            f"{probe.shape[1]} vs {block.shape[1]}"
        )
    pa = probe[:, 0, None]
    pb = block[None, :, 0]
    if metric is Metric.L2:
        diff = pa - pb
        acc = diff * diff
        for k in range(1, probe.shape[1]):
            diff = probe[:, k, None] - block[None, :, k]
            acc += diff * diff
        return acc
    if metric is Metric.LINF:
        acc = _np.abs(pa - pb)
        for k in range(1, probe.shape[1]):
            _np.maximum(acc, _np.abs(probe[:, k, None] - block[None, :, k]), out=acc)
        return acc
    if metric is Metric.L1:
        acc = _np.abs(pa - pb)
        for k in range(1, probe.shape[1]):
            acc += _np.abs(probe[:, k, None] - block[None, :, k])
        return acc
    raise InvalidParameterError(f"unsupported metric for bulk evaluation: {metric}")


def paired_measures(left: "object", right: "object", metric: Metric) -> "object":
    """NumPy kernel: the measure of each row pair ``(left[k], right[k])``.

    The elementwise form of :func:`pairwise_measures`: ``left`` and
    ``right`` are ``(m, d)`` blocks and the result is ``(m,)``.  The terms
    accumulate in the same order with the same operations, so each value is
    bit-identical to the corresponding :func:`pairwise_measures` entry.
    """
    if metric is Metric.L2:
        diff = left[:, 0] - right[:, 0]
        acc = diff * diff
        for k in range(1, left.shape[1]):
            diff = left[:, k] - right[:, k]
            acc += diff * diff
        return acc
    if metric is Metric.LINF:
        acc = _np.abs(left[:, 0] - right[:, 0])
        for k in range(1, left.shape[1]):
            _np.maximum(acc, _np.abs(left[:, k] - right[:, k]), out=acc)
        return acc
    if metric is Metric.L1:
        acc = _np.abs(left[:, 0] - right[:, 0])
        for k in range(1, left.shape[1]):
            acc += _np.abs(left[:, k] - right[:, k])
        return acc
    raise InvalidParameterError(f"unsupported metric for bulk evaluation: {metric}")


def eps_threshold(metric: Metric, eps: float) -> float:
    """The value a measure is compared against: ``eps**2`` for L2, else ``eps``.

    This is the single place that knows how the measures map to the epsilon
    comparison; every vectorised predicate decision goes through it (via
    :func:`within_eps` / :func:`paired_within`), so the boundary rule cannot
    drift between call sites.
    """
    return eps * eps if metric is Metric.L2 else eps


def within_eps(probe: "object", block: "object", metric: Metric, eps: float) -> "object":
    """NumPy kernel: ``(a, b)`` boolean mask of pairs within ``eps``."""
    return pairwise_measures(probe, block, metric) <= eps_threshold(metric, eps)


def paired_within(left: "object", right: "object", metric: Metric, eps: float) -> "object":
    """NumPy kernel: ``(m,)`` mask, is ``left[k]`` within ``eps`` of ``right[k]``?"""
    return paired_measures(left, right, metric) <= eps_threshold(metric, eps)


def distances_many(
    p: Point, candidates: "Sequence[Point]", metric: "Metric | str" = Metric.L2
) -> List[float]:
    """Return the distance from ``p`` to every candidate (vectorised).

    With NumPy present the candidate block is evaluated in one shot through
    :func:`pairwise_measures`, so the values are bit-identical to calling
    ``metric.distance`` in a loop.  ``candidates`` may be a NumPy ``(n, d)``
    array (zero-copy) or any sequence of point sequences.
    """
    m = resolve_metric(metric)
    if _np is not None:
        block = _np.asarray(candidates, dtype=_np.float64)
        if block.shape[0] == 0:
            return []
        if block.ndim != 2:
            raise DimensionalityError("candidates must form a 2-D (n, d) block")
        probe = _np.asarray([tuple(float(c) for c in p)], dtype=_np.float64)
        measures = pairwise_measures(probe, block, m)[0]
        if m is Metric.L2:
            return _np.sqrt(measures).tolist()
        return measures.tolist()
    fn = m.function
    return [fn(p, q) for q in candidates]
