"""Columnar point-set abstraction backing the batched SGB execution path.

The SGB operators historically processed one ``Tuple[float, ...]`` at a time.
A :class:`PointSet` holds a whole batch of d-dimensional points in columnar
form and exposes batched primitives:

* :meth:`PointSet.components` — the SGB-Any kernel: every row labelled with
  the smallest row index of its eps-component.  The NumPy backend labels
  whole eps-sub-cells at once (:func:`repro.core.cellgrid.subcell_labels`);
  the pure-Python backend, and NumPy where that kernel does not apply (high
  dimensionality, extreme coordinates), label from the
  :meth:`pairwise_within` edges.
* :meth:`PointSet.pairwise_within` — every index pair within ``eps`` under a
  metric (the epsilon-neighbourhood edges), found with a uniform eps-grid so
  neither backend ever materialises the full O(n^2) distance matrix.  SGB-All
  reads its adjacency from it.
* :meth:`PointSet.cross_within` — every within-eps pair between two sets;
  on NumPy one array-producing core (:meth:`NumpyPointSet.cross_pairs`)
  serves it, the eps-join and the stream's cross-epoch edges.
* :meth:`PointSet.window_mask` — boolean membership mask for a window query.
* :meth:`PointSet.verify_within` — bulk exact-distance verification of index
  window hits against a probe point (the ``VerifyPoints`` step of Procedure
  8; the groupers route the equivalent check through
  ``SimilarityPredicate.similar_many``, which shares the same kernel).
* :meth:`PointSet.bbox` — minimum bounding rectangle of the batch.

``window_mask``/``verify_within``/``bbox`` are public building blocks for
external batch consumers (sharding, streaming — see ROADMAP) and share the
``pairwise_measures`` kernel with the predicate layer, so the eps decisions
agree bit-for-bit everywhere.

Two interchangeable backends exist: a NumPy array backend (used automatically
when ``numpy`` is importable) and a pure-Python list-of-tuples fallback, so
the library stays dependency-optional.  Both backends produce *bit-identical*
predicate decisions: the vectorised kernels accumulate coordinate terms in the
same order as the scalar loops in :mod:`repro.core.distance`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core import cellgrid
from repro.core.distance import Metric, resolve_metric, within_eps
from repro.core.predicates import SimilarityPredicate
from repro.core.rectangle import Rect
from repro.exceptions import DimensionalityError, InvalidParameterError

try:  # NumPy is optional; the pure-Python backend covers its absence.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the python backend tests
    _np = None

Point = Tuple[float, ...]

__all__ = [
    "PointSet",
    "PythonPointSet",
    "NumpyPointSet",
    "HAVE_NUMPY",
    "ensure_finite",
    "is_empty_batch",
]


def ensure_finite(pt: "Sequence[float]") -> None:
    """Reject NaN/inf coordinates with a uniform, clear error."""
    for c in pt:
        if not math.isfinite(c):
            raise InvalidParameterError(
                f"point {tuple(pt)!r} has a non-finite coordinate; "
                "NaN and infinity are not valid point coordinates"
            )


def is_empty_batch(points: object) -> bool:
    """True when ``points`` is a sized container holding zero points.

    Both groupers use this to make a degenerate ``add_batch`` a strict no-op
    — no :class:`PointSet` normalisation, no index bookkeeping — before any
    backend dispatch happens.
    """
    try:
        return len(points) == 0  # type: ignore[arg-type]
    except TypeError:
        return False

HAVE_NUMPY = _np is not None

#: Row-block size of the blocked brute-force pair searches (``_BLOCK * n``
#: distances at a time); the eps-grid sweeps block by pairs instead
#: (:data:`repro.core.cellgrid.PAIR_BLOCK`).
_BLOCK = 512

#: Above this dimensionality ``pairwise_within`` switches from the eps-grid
#: sweep to blocked brute force: the grid visits up to 3^d neighbour offsets
#: per cell, which explodes combinatorially while the cells stop pruning
#: anything (curse of dimensionality).
_PAIRWISE_GRID_MAX_DIMS = 6


def _labels_from_edges(n: int, edges: Iterable[Tuple[int, int]]) -> List[int]:
    """Smallest-row labels of the components of ``n`` rows joined by ``edges``.

    A list-backed disjoint-set forest whose union keeps the smaller root, so
    every root is the smallest row of its component.
    """
    parent = list(range(n))
    for i, j in edges:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i < j:
            parent[j] = i
        elif j < i:
            parent[i] = j
    for i in range(n):
        parent[i] = parent[parent[i]]
    return parent


def _validate_tuples(points: Iterable[Sequence[float]]) -> List[Point]:
    """Normalise to a list of float tuples, checking dims and finiteness."""
    out: List[Point] = []
    dims: Optional[int] = None
    for p in points:
        pt = tuple(float(c) for c in p)
        if dims is None:
            dims = len(pt)
            if dims == 0:
                raise InvalidParameterError("points must have at least one dimension")
        elif len(pt) != dims:
            raise DimensionalityError(
                f"inconsistent point dimensionality: expected {dims}, got {len(pt)}"
            )
        ensure_finite(pt)
        out.append(pt)
    return out


class PointSet:
    """A batch of d-dimensional points stored column-friendly.

    Use the factories :meth:`from_any` / :meth:`from_columns` rather than the
    backend constructors; they auto-select the NumPy backend when available
    (``backend="python"`` forces the fallback, which the equivalence tests
    use to cross-check the two implementations).
    """

    # -- factories ---------------------------------------------------------

    @staticmethod
    def from_any(
        points: "PointSet | Sequence[Sequence[float]]",
        backend: Optional[str] = None,
    ) -> "PointSet":
        """Build a :class:`PointSet` from any reasonable point container.

        NumPy ``(n, d)`` arrays are adopted zero-copy when they are already
        ``float64``; other inputs are normalised once.  Non-finite coordinates
        (NaN / infinity) are rejected with :class:`InvalidParameterError`.
        """
        if isinstance(points, PointSet):
            if backend is None or points.backend == backend:
                return points
            if backend == "python":
                return PythonPointSet(points.to_tuples())
            return NumpyPointSet._from_validated_tuples(points.to_tuples())
        if backend is not None and backend not in ("python", "numpy"):
            raise InvalidParameterError(f"unknown PointSet backend: {backend!r}")
        use_numpy = HAVE_NUMPY if backend is None else backend == "numpy"
        if backend == "numpy" and not HAVE_NUMPY:
            raise InvalidParameterError("numpy backend requested but numpy is missing")
        if HAVE_NUMPY and isinstance(points, _np.ndarray):
            if points.ndim != 2:
                raise DimensionalityError(
                    f"point array must be 2-D (n, d), got shape {points.shape}"
                )
            if points.shape[0] > 0 and points.shape[1] == 0:
                raise InvalidParameterError("points must have at least one dimension")
            arr = _np.asarray(points, dtype=_np.float64)
            if arr.size and not bool(_np.isfinite(arr).all()):
                raise InvalidParameterError(
                    "point array has non-finite coordinates; "
                    "NaN and infinity are not valid point coordinates"
                )
            if use_numpy:
                return NumpyPointSet(arr)
            return PythonPointSet([tuple(row) for row in arr.tolist()])
        tuples = _validate_tuples(points)
        if use_numpy:
            return NumpyPointSet._from_validated_tuples(tuples)
        return PythonPointSet(tuples)

    @staticmethod
    def adopt_validated(
        tuples: "List[Point]", backend: Optional[str] = None
    ) -> "PointSet":
        """Adopt a list of already-validated float tuples without re-checking.

        For callers that hold tuples a previous :meth:`from_any` produced
        (the streaming window ring re-presents admitted points many times);
        skips the dimensionality/finiteness sweep that validation already
        performed.  Never hand this unvalidated data.
        """
        use_numpy = HAVE_NUMPY if backend is None else backend == "numpy"
        if use_numpy:
            if not HAVE_NUMPY:
                raise InvalidParameterError(
                    "numpy backend requested but numpy is missing"
                )
            return NumpyPointSet._from_validated_tuples(tuples)
        return PythonPointSet._from_validated(tuples)

    @staticmethod
    def concat(
        sets: "Sequence[PointSet]", backend: Optional[str] = None
    ) -> "PointSet":
        """Concatenate already-validated point sets without revalidation.

        The streaming window ring uses this to present several columnar
        epochs as one probe target; the members were validated when first
        admitted, so the concatenation is a pure structural merge (a single
        ``np.concatenate`` on the NumPy backend).
        """
        parts = [s for s in sets if len(s) > 0]
        if not parts:
            return PointSet.from_any([], backend=backend)
        dims = parts[0].dims
        for part in parts[1:]:
            if part.dims != dims:
                raise DimensionalityError(
                    f"cannot concat point sets of {dims} and {part.dims} dimensions"
                )
        if backend is None:
            backend = parts[0].backend
        if backend == "numpy":
            if not HAVE_NUMPY:
                raise InvalidParameterError(
                    "numpy backend requested but numpy is missing"
                )
            arrays = [
                part.array
                if isinstance(part, NumpyPointSet)
                else _np.asarray(part.to_tuples(), dtype=_np.float64)
                for part in parts
            ]
            return NumpyPointSet(arrays[0] if len(arrays) == 1 else _np.concatenate(arrays))
        out: List[Point] = []
        for part in parts:
            out.extend(part.to_tuples())
        return PythonPointSet._from_validated(out)

    @staticmethod
    def from_columns(
        columns: Sequence[Sequence[float]], backend: Optional[str] = None
    ) -> "PointSet":
        """Build a :class:`PointSet` from per-dimension column vectors."""
        if len(columns) == 0:
            raise InvalidParameterError("at least one column is required")
        n = len(columns[0])
        for col in columns[1:]:
            if len(col) != n:
                raise InvalidParameterError("columns must all have the same length")
        if HAVE_NUMPY and (backend is None or backend == "numpy"):
            arr = _np.column_stack(
                [_np.asarray(col, dtype=_np.float64) for col in columns]
            ) if n else _np.empty((0, len(columns)), dtype=_np.float64)
            if arr.size and not bool(_np.isfinite(arr).all()):
                raise InvalidParameterError(
                    "point columns have non-finite coordinates; "
                    "NaN and infinity are not valid point coordinates"
                )
            return NumpyPointSet(arr)
        return PointSet.from_any(list(zip(*columns)) if n else [], backend=backend)

    # -- abstract protocol -------------------------------------------------

    backend: str = ""

    def __len__(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError

    @property
    def dims(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError

    def point(self, i: int) -> Point:  # pragma: no cover - overridden
        raise NotImplementedError

    def to_tuples(self) -> List[Point]:  # pragma: no cover - overridden
        raise NotImplementedError

    def window_mask(self, rect: Rect) -> List[bool]:  # pragma: no cover
        raise NotImplementedError

    def verify_within(
        self,
        point: Sequence[float],
        eps: float,
        metric: "Metric | str" = Metric.L2,
        candidates: Optional[Sequence[int]] = None,
    ) -> List[int]:  # pragma: no cover - overridden
        raise NotImplementedError

    def pairwise_within(
        self, eps: float, metric: "Metric | str" = Metric.L2
    ) -> Iterator[Tuple[int, int]]:  # pragma: no cover - overridden
        raise NotImplementedError

    def components(self, eps: float, metric: "Metric | str" = Metric.L2) -> List[int]:
        """Label every row with the smallest row index in its eps-component.

        The components are those of the graph linking every pair within
        ``eps`` under the float predicate (``within_eps``), i.e. the SGB-Any
        groups: rows ``i`` and ``j`` are grouped iff ``labels[i] ==
        labels[j]``, and ``labels[labels[i]] == labels[i]``.
        """
        return _labels_from_edges(len(self), self.pairwise_within(eps, metric))

    def cross_within(
        self,
        other: "PointSet | Sequence[Sequence[float]]",
        eps: float,
        metric: "Metric | str" = Metric.L2,
    ) -> Iterator[Tuple[int, int]]:  # pragma: no cover - overridden
        """Yield every ``(i, j)`` with ``self[i]`` within ``eps`` of ``other[j]``.

        The cross-set companion of :meth:`pairwise_within`: the same uniform
        eps-grid prunes the candidate pairs (falling back to blocked brute
        force past :data:`_PAIRWISE_GRID_MAX_DIMS` dimensions), and the same
        ``within_eps`` kernel makes the decisions, so the edge set agrees
        bit-for-bit with the scalar predicate.  This is the kernel behind the
        streaming subsystem's cross-epoch edge discovery: an arriving
        micro-batch (``other``) is joined against each older live epoch
        (``self``) without any per-tuple index probing.
        """
        raise NotImplementedError

    # -- shared conveniences ----------------------------------------------

    def __iter__(self) -> Iterator[Point]:
        for i in range(len(self)):
            yield self.point(i)

    def __getitem__(self, i: int) -> Point:
        return self.point(i)

    def bbox(self) -> Rect:
        """Return the minimum bounding rectangle of the set (non-empty only)."""
        if len(self) == 0:
            raise InvalidParameterError("cannot build a bounding box of zero points")
        return Rect.from_points(self.to_tuples())

    @staticmethod
    def _check_eps(eps: float) -> float:
        eps = float(eps)
        if eps <= 0:
            raise InvalidParameterError(f"eps must be positive, got {eps}")
        return eps


class PythonPointSet(PointSet):
    """Pure-Python fallback backend: a list of float tuples."""

    backend = "python"

    def __init__(self, points: Sequence[Sequence[float]]) -> None:
        self._points: List[Point] = _validate_tuples(points)

    @classmethod
    def _from_validated(cls, tuples: List[Point]) -> "PythonPointSet":
        """Adopt already-validated tuples without re-checking them."""
        out = cls.__new__(cls)
        out._points = tuples
        return out

    def __len__(self) -> int:
        return len(self._points)

    @property
    def dims(self) -> int:
        return len(self._points[0]) if self._points else 0

    def point(self, i: int) -> Point:
        return self._points[i]

    def to_tuples(self) -> List[Point]:
        return list(self._points)

    def bbox(self) -> Rect:
        if not self._points:
            raise InvalidParameterError("cannot build a bounding box of zero points")
        return Rect.from_points(self._points)

    def window_mask(self, rect: Rect) -> List[bool]:
        return [rect.contains_point(p) for p in self._points]

    def verify_within(
        self,
        point: Sequence[float],
        eps: float,
        metric: "Metric | str" = Metric.L2,
        candidates: Optional[Sequence[int]] = None,
    ) -> List[int]:
        predicate = SimilarityPredicate(resolve_metric(metric), self._check_eps(eps))
        pt = tuple(float(c) for c in point)
        idxs = range(len(self._points)) if candidates is None else candidates
        return [i for i in idxs if predicate.similar(pt, self._points[i])]

    def pairwise_within(
        self, eps: float, metric: "Metric | str" = Metric.L2
    ) -> Iterator[Tuple[int, int]]:
        eps = self._check_eps(eps)
        predicate = SimilarityPredicate(resolve_metric(metric), eps)
        pts = self._points
        if not pts:
            return
        d = len(pts[0])
        if d > _PAIRWISE_GRID_MAX_DIMS:
            for i in range(len(pts)):
                pi = pts[i]
                for j in range(i + 1, len(pts)):
                    if predicate.similar(pi, pts[j]):
                        yield i, j
            return
        side = cellgrid.eps_grid_side(eps, max(abs(c) for p in pts for c in p))
        buckets: Dict[Tuple[int, ...], List[int]] = {}
        for i, p in enumerate(pts):
            buckets.setdefault(tuple(math.floor(c / side) for c in p), []).append(i)
        offsets = cellgrid.half_space_offsets(d)
        for key, members in buckets.items():
            # Same-cell pairs.
            for a in range(len(members)):
                i = members[a]
                pi = pts[i]
                for b in range(a + 1, len(members)):
                    j = members[b]
                    if predicate.similar(pi, pts[j]):
                        yield i, j
            # Pairs with the lexicographically-greater neighbour cells.
            for off in offsets:
                other = buckets.get(tuple(k + o for k, o in zip(key, off)))
                if not other:
                    continue
                for i in members:
                    pi = pts[i]
                    for j in other:
                        if predicate.similar(pi, pts[j]):
                            yield i, j

    def cross_within(
        self,
        other: "PointSet | Sequence[Sequence[float]]",
        eps: float,
        metric: "Metric | str" = Metric.L2,
    ) -> Iterator[Tuple[int, int]]:
        eps = self._check_eps(eps)
        predicate = SimilarityPredicate(resolve_metric(metric), eps)
        probes = PointSet.from_any(other, backend="python").to_tuples()
        pts = self._points
        if not pts or not probes:
            return
        if len(probes[0]) != len(pts[0]):
            raise DimensionalityError(
                f"cross_within dimensionality mismatch: {len(pts[0])} vs "
                f"{len(probes[0])}"
            )
        d = len(pts[0])
        if d > _PAIRWISE_GRID_MAX_DIMS:
            for j, pj in enumerate(probes):
                for i, pi in enumerate(pts):
                    if predicate.similar(pi, pj):
                        yield i, j
            return
        side = cellgrid.eps_grid_side(
            eps, max(abs(c) for block in (pts, probes) for p in block for c in p)
        )
        buckets: Dict[Tuple[int, ...], List[int]] = {}
        for i, p in enumerate(pts):
            buckets.setdefault(tuple(math.floor(c / side) for c in p), []).append(i)
        offsets = cellgrid.moore_offsets(d)
        for j, pj in enumerate(probes):
            key = tuple(math.floor(c / side) for c in pj)
            for off in offsets:
                members = buckets.get(tuple(k + o for k, o in zip(key, off)))
                if not members:
                    continue
                for i in members:
                    if predicate.similar(pts[i], pj):
                        yield i, j


class NumpyPointSet(PointSet):
    """NumPy-backed columnar backend (auto-selected when numpy imports)."""

    backend = "numpy"

    def __init__(self, array: "Any") -> None:
        if _np is None:  # pragma: no cover - guarded by the factory
            raise InvalidParameterError("numpy backend requested but numpy is missing")
        arr = _np.asarray(array, dtype=_np.float64)
        if arr.ndim != 2:
            raise DimensionalityError(
                f"point array must be 2-D (n, d), got shape {arr.shape}"
            )
        self._array = arr

    @classmethod
    def _from_validated_tuples(cls, tuples: List[Point]) -> "NumpyPointSet":
        if not tuples:
            return cls(_np.empty((0, 0), dtype=_np.float64))
        return cls(_np.asarray(tuples, dtype=_np.float64))

    @property
    def array(self) -> "Any":
        """The underlying ``(n, d)`` float64 array (shared, do not mutate)."""
        return self._array

    def __len__(self) -> int:
        return self._array.shape[0]

    @property
    def dims(self) -> int:
        return self._array.shape[1]

    def point(self, i: int) -> Point:
        return tuple(self._array[i].tolist())

    def to_tuples(self) -> List[Point]:
        return [tuple(row) for row in self._array.tolist()]

    def bbox(self) -> Rect:
        if self._array.shape[0] == 0:
            raise InvalidParameterError("cannot build a bounding box of zero points")
        return Rect(
            tuple(self._array.min(axis=0).tolist()),
            tuple(self._array.max(axis=0).tolist()),
        )

    def window_mask(self, rect: Rect) -> "Any":
        if self._array.shape[0] == 0:
            return _np.zeros(0, dtype=bool)
        if len(rect.low) != self.dims:
            raise DimensionalityError("window/point-set dimensionality mismatch")
        low = _np.asarray(rect.low)
        high = _np.asarray(rect.high)
        return ((self._array >= low) & (self._array <= high)).all(axis=1)

    def verify_within(
        self,
        point: Sequence[float],
        eps: float,
        metric: "Metric | str" = Metric.L2,
        candidates: Optional[Sequence[int]] = None,
    ) -> List[int]:
        eps = self._check_eps(eps)
        metric = resolve_metric(metric)
        if self._array.shape[0] == 0:
            return []
        probe = _np.asarray([tuple(float(c) for c in point)], dtype=_np.float64)
        if candidates is None:
            mask = within_eps(probe, self._array, metric, eps)[0]
            return _np.nonzero(mask)[0].tolist()
        cand = _np.asarray(list(candidates), dtype=_np.intp)
        if cand.size == 0:
            return []
        mask = within_eps(probe, self._array[cand], metric, eps)[0]
        return cand[mask].tolist()

    def pairwise_within(
        self, eps: float, metric: "Metric | str" = Metric.L2
    ) -> Iterator[Tuple[int, int]]:
        eps = self._check_eps(eps)
        metric = resolve_metric(metric)
        arr = self._array
        n = arr.shape[0]
        if n < 2:
            return
        if arr.shape[1] <= _PAIRWISE_GRID_MAX_DIMS:
            pairs = cellgrid.self_pairs(arr, eps, metric)
            if pairs is not None:
                yield from zip(pairs[0].tolist(), pairs[1].tolist())
                return
        # Blocked brute force: rows [start, start+block) against every later
        # row; still vectorised, no 3^d offset enumeration.
        for start in range(0, n - 1, _BLOCK):
            sub = _np.arange(start, min(start + _BLOCK, n))
            mask = within_eps(arr[sub], arr, metric, eps)
            gi, gj = _np.nonzero(mask)
            gi = sub[gi]
            keep = gi < gj
            for i, j in zip(gi[keep].tolist(), gj[keep].tolist()):
                yield i, j
    def components(self, eps: float, metric: "Metric | str" = Metric.L2) -> List[int]:
        eps = self._check_eps(eps)
        metric = resolve_metric(metric)
        labels = cellgrid.subcell_labels(self._array, eps, metric)
        if labels is None:
            return super().components(eps, metric)
        return labels.tolist()

    def cross_within(
        self,
        other: "PointSet | Sequence[Sequence[float]]",
        eps: float,
        metric: "Metric | str" = Metric.L2,
    ) -> Iterator[Tuple[int, int]]:
        rows, probes = self.cross_pairs(other, eps, metric)
        yield from zip(rows.tolist(), probes.tolist())

    def cross_pairs(
        self,
        other: "PointSet | Sequence[Sequence[float]]",
        eps: float,
        metric: "Metric | str" = Metric.L2,
    ) -> "Tuple[Any, Any]":
        """:meth:`cross_within` as two int64 arrays ``(rows, probes)``, unordered.

        The one array-producing core behind ``cross_within``, the eps-join
        and the stream's cross-epoch edges: the eps-grid sweep of
        :func:`repro.core.cellgrid.cross_pairs`, or blocked brute force past
        :data:`_PAIRWISE_GRID_MAX_DIMS` dimensions and where the grid's cell
        arithmetic would lose precision.
        """
        eps = self._check_eps(eps)
        metric = resolve_metric(metric)
        probes_ps = PointSet.from_any(other, backend="numpy")
        assert isinstance(probes_ps, NumpyPointSet)
        arr = self._array
        parr = probes_ps._array
        if arr.shape[0] == 0 or parr.shape[0] == 0:
            empty = _np.empty(0, dtype=_np.int64)
            return empty, empty
        if arr.shape[1] != parr.shape[1]:
            raise DimensionalityError(
                f"cross_within dimensionality mismatch: {arr.shape[1]} vs "
                f"{parr.shape[1]}"
            )
        if arr.shape[1] <= _PAIRWISE_GRID_MAX_DIMS:
            pairs = cellgrid.cross_pairs(arr, parr, eps, metric)
            if pairs is not None:
                return pairs
        rows, probes = [], []
        for start in range(0, parr.shape[0], _BLOCK):
            mask = within_eps(parr[start : start + _BLOCK], arr, metric, eps)
            pj, si = _np.nonzero(mask)
            rows.append(si)
            probes.append(pj + start)
        return _np.concatenate(rows), _np.concatenate(probes)
