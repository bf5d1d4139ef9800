"""Linearised cell grids: the NumPy machinery under SGB-Any and the eps-join.

A grid cuts space into axis-aligned cells of one ``side``; a point's cell is
``floor(x / side)`` per axis, computed in floating point.  The cells are
linearised into one int64 key each (the cell's offset from the grid's low
corner times per-axis strides), so finding a neighbour cell is one
``searchsorted`` per neighbour offset over the sorted keys, never a dict
probe per cell.  Member pairs of neighbouring cells are expanded and tested
in blocks of at most :data:`PAIR_BLOCK` pairs, so memory stays flat however
dense a cell is.  Three kernels sit on this:

* :func:`subcell_labels` — SGB-Any, i.e. the connected components of the
  eps-graph, over sub-cells small enough that a cell is usually a clique.
  It is the grid technique of Gan & Tao, "DBSCAN Revisited" (SIGMOD 2015):
  SGB-Any is DBSCAN with minPts = 1.
* :func:`self_pairs` / :func:`cross_pairs` — every within-eps pair inside
  one point set / between two, over eps-cells (the kernels of
  :meth:`NumpyPointSet.pairwise_within` and ``cross_within``).

Every accept/reject decision is the repo's float predicate
(:func:`repro.core.distance.paired_within`, bit-identical to
:func:`~repro.core.distance.within_eps`); the shortcuts are proved against
it, not assumed (see :func:`subcell_labels`).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.core.distance import Metric, eps_threshold, paired_measures, paired_within

try:  # NumPy is optional; callers only reach this module when it imports.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the python backend
    _np = None

__all__ = [
    "PAIR_BLOCK",
    "cross_pairs",
    "eps_grid_side",
    "half_space_offsets",
    "moore_offsets",
    "self_pairs",
    "subcell_labels",
]

#: Most point pairs one vectorised test evaluates at once.  Each block holds
#: a handful of ``PAIR_BLOCK``-long temporaries, a few hundred KB in all.
PAIR_BLOCK = 4096

#: Unit pairs whose member tests share one skip check (see subcell_labels).
_WINDOW = 512

#: Scaled coordinates (``x / side``) must stay below this magnitude.  The
#: rounding of ``x / side`` then moves a point by at most 2**-13 of a cell,
#: far less than the integer margins the neighbour reach is derived from.
_MAX_CELL = 2.0 ** 40

#: The sub-cell kernel labels from the eps-grid sweep instead when a metric
#: and dimensionality need more half-space neighbour offsets than this
#: (L2 and LINF up to 4-d, L1 up to 3-d stay on the kernel).
_MAX_OFFSETS = 512

#: Thresholds below this would let squared L2 differences underflow to zero
#: for pairs that are far apart in sub-cells.
_MIN_THRESHOLD = 2.0 ** -900


def eps_grid_side(eps: float, max_abs: float) -> float:
    """Cell side of the eps-grid sweeps: eps, widened past the float slack.

    The sweeps visit only a cell and its adjacent cells.  A pair the
    predicate accepts is at most eps plus a few ulps apart in the reals, but
    ``floor(x / eps)`` can still put it two cells apart: ``-1e-20`` lands in
    cell -1, ``0.1`` in cell 1, and their difference rounds to 0.1.
    Widening the side by more than the rounding of ``x / side`` (relative
    2**-53 of the largest scaled coordinate, ``max_abs / eps``) and of the
    predicate keeps every accepted pair in the same or adjacent cells.
    """
    return eps * (1.0 + 2.0 ** -40 + max_abs / eps * 2.0 ** -51)


class _Buckets:
    """Rows grouped by key: ``order[starts[c]:starts[c] + counts[c]]`` are the
    rows of bucket ``c``, and ``keys`` (ascending) are the bucket keys."""

    __slots__ = ("order", "keys", "starts", "counts")

    def __init__(self, keys: Any) -> None:
        order = _np.argsort(keys, kind="stable")
        ordered = keys[order]
        starts = _np.flatnonzero(
            _np.concatenate(([True], ordered[1:] != ordered[:-1]))
        )
        self.order = order
        self.keys = ordered[starts]
        self.starts = starts
        self.counts = _np.diff(_np.append(starts, ordered.shape[0]))

    def truncated(self, counts: Any) -> "_Buckets":
        """The same buckets, each cut to its first ``counts[c]`` rows."""
        out = _Buckets.__new__(_Buckets)
        out.order, out.keys, out.starts, out.counts = self.order, self.keys, self.starts, counts
        return out

    def bucket_of_rows(self) -> Any:
        """The bucket index of every row, in row order."""
        out = _np.empty(self.order.shape[0], dtype=_np.int64)
        out[self.order] = _np.repeat(_np.arange(self.keys.shape[0]), self.counts)
        return out


def _linear_keys(
    blocks: Sequence[Any], side: float, reach: int
) -> "Optional[Tuple[List[Any], Any]]":
    """Cell keys of every block on one shared grid, plus the per-axis strides.

    The grid is padded by ``reach`` cells on every side and linearised in
    mixed radix, so shifting a cell by an offset of at most ``reach`` per
    axis adds one fixed delta to its key.  Past 2**64 cells the keys wrap
    (int64 arithmetic): shifts stay exact, but two far-apart cells may share
    a key.  That costs member tests, never an answer, because every bucket
    is verified point by point or proved by its own bounding box.  Returns
    ``None`` when a scaled coordinate reaches :data:`_MAX_CELL`.
    """
    cells = []
    for arr in blocks:
        scaled = arr / side
        if not float(_np.abs(scaled).max()) < _MAX_CELL:
            return None
        cells.append(_np.floor(scaled).astype(_np.int64))
    low = _np.min([c.min(axis=0) for c in cells], axis=0) - reach
    high = _np.max([c.max(axis=0) for c in cells], axis=0) + reach
    strides = [0] * low.shape[0]
    total = 1
    for k in reversed(range(low.shape[0])):
        wrapped = total % 2 ** 64
        strides[k] = wrapped - 2 ** 64 if wrapped >= 2 ** 63 else wrapped
        total *= int(high[k] - low[k]) + 1
    stride_arr = _np.asarray(strides, dtype=_np.int64)
    return [((c - low) * stride_arr).sum(axis=1) for c in cells], stride_arr


def _neighbour_buckets(
    src: _Buckets, dst: _Buckets, deltas: Sequence[int]
) -> Tuple[Any, Any]:
    """``(src bucket, dst bucket)`` pairs whose keys differ by one of ``deltas``."""
    a_parts, b_parts = [], []
    last = dst.keys.shape[0] - 1
    for delta in deltas:
        target = src.keys + delta
        pos = _np.minimum(_np.searchsorted(dst.keys, target), last)
        hit = dst.keys[pos] == target
        a_parts.append(_np.flatnonzero(hit))
        b_parts.append(pos[hit])
    return _np.concatenate(a_parts), _np.concatenate(b_parts)


def _member_pairs(
    a: Any, b: Any, left: _Buckets, right: _Buckets
) -> Iterator[Tuple[Any, Any, Any]]:
    """Every member pair of each bucket pair ``(a[k], b[k])``, in blocks.

    Yields ``(k, i, j)`` arrays of at most :data:`PAIR_BLOCK` entries: ``i``
    is a row of ``left``'s bucket ``a[k]``, ``j`` a row of ``right``'s bucket
    ``b[k]``.  A bucket pair larger than a block spans several blocks.
    """
    if a.shape[0] == 0:
        return
    width = right.counts[b]
    sizes = left.counts[a] * width
    ends = _np.cumsum(sizes)
    total = int(ends[-1])
    for start in range(0, total, PAIR_BLOCK):
        pos = _np.arange(start, min(start + PAIR_BLOCK, total))
        k = _np.searchsorted(ends, pos, side="right")
        q, r = _np.divmod(pos - (ends[k] - sizes[k]), width[k])
        yield k, left.order[left.starts[a[k]] + q], right.order[right.starts[b[k]] + r]


# ---------------------------------------------------------------------------
# eps-grid pair sweeps
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def moore_offsets(dims: int) -> Tuple[Tuple[int, ...], ...]:
    """All cell offsets in {-1, 0, 1}^d, the origin included.

    A cross-set join has no pair symmetry to exploit: every probe cell looks
    at its full Moore neighbourhood in the other set's grid.
    """
    return tuple(itertools.product((-1, 0, 1), repeat=dims))


@lru_cache(maxsize=None)
def half_space_offsets(dims: int) -> Tuple[Tuple[int, ...], ...]:
    """The lexicographically positive offsets of :func:`moore_offsets`.

    A self-join visits only these, so every unordered pair of distinct
    cells is scanned exactly once (same-cell pairs are handled apart).
    """
    return tuple(o for o in moore_offsets(dims) if o > (0,) * dims)


def _deltas(offsets: Sequence[Tuple[int, ...]], strides: Any) -> List[int]:
    """The key delta of each cell offset on a grid with these strides."""
    return (_np.asarray(offsets, dtype=_np.int64) * strides).sum(axis=1).tolist()


def _tested(
    pair_blocks: Iterator[Tuple[Any, Any, Any]],
    arr: Any,
    other: Any,
    metric: Metric,
    eps: float,
    ordered: bool,
) -> Tuple[Any, Any]:
    """The ``(i, j)`` of the blocks with ``arr[i]`` within eps of ``other[j]``.

    With ``ordered`` only pairs with ``i < j`` are kept (same-cell blocks).
    """
    rows, cols = [], []
    for _, i, j in pair_blocks:
        if ordered:
            keep = i < j
            i, j = i[keep], j[keep]
        hit = paired_within(arr[i], other[j], metric, eps)
        rows.append(i[hit])
        cols.append(j[hit])
    if not rows:
        empty = _np.empty(0, dtype=_np.int64)
        return empty, empty
    return _np.concatenate(rows), _np.concatenate(cols)


def self_pairs(arr: Any, eps: float, metric: Metric) -> "Optional[Tuple[Any, Any]]":
    """Every within-eps pair of rows of ``arr``, each unordered pair once.

    The eps-grid self-join behind :meth:`NumpyPointSet.pairwise_within`:
    same-cell pairs plus the pairs of each cell with its half-space
    neighbours.  Returns two int64 arrays, or ``None`` when the grid cannot
    be linearised (the caller then uses blocked brute force).
    """
    side = eps_grid_side(eps, float(_np.abs(arr).max()))
    built = _linear_keys([arr], side, 1)
    if built is None:
        return None
    (keys,), strides = built
    grid = _Buckets(keys)
    crowded = _np.flatnonzero(grid.counts > 1)
    same_rows, same_cols = _tested(
        _member_pairs(crowded, crowded, grid, grid), arr, arr, metric, eps, True
    )
    deltas = _deltas(half_space_offsets(arr.shape[1]), strides)
    ca, cb = _neighbour_buckets(grid, grid, deltas)
    rows, cols = _tested(_member_pairs(ca, cb, grid, grid), arr, arr, metric, eps, False)
    return _np.concatenate([same_rows, rows]), _np.concatenate([same_cols, cols])


def cross_pairs(
    arr: Any, probes: Any, eps: float, metric: Metric
) -> "Optional[Tuple[Any, Any]]":
    """Every ``(i, j)`` with ``arr[i]`` within ``eps`` of ``probes[j]``.

    Both sets are bucketed on one eps-grid (side :func:`eps_grid_side`);
    each cell is matched to the occupied probe cells of its Moore
    neighbourhood with one ``searchsorted`` per offset, and the member pairs
    are tested in blocks.  Returns two int64 arrays (unordered), or ``None``
    when the grid cannot be linearised (the caller then uses blocked brute
    force).
    """
    max_abs = max(float(_np.abs(arr).max()), float(_np.abs(probes).max()))
    side = eps_grid_side(eps, max_abs)
    built = _linear_keys([arr, probes], side, 1)
    if built is None:
        return None
    (keys, probe_keys), strides = built
    grid, probe_grid = _Buckets(keys), _Buckets(probe_keys)
    deltas = _deltas(moore_offsets(arr.shape[1]), strides)
    ga, pa = _neighbour_buckets(grid, probe_grid, deltas)
    pairs = _member_pairs(ga, pa, grid, probe_grid)
    return _tested(pairs, arr, probes, metric, eps, False)


# ---------------------------------------------------------------------------
# SGB-Any connectivity
# ---------------------------------------------------------------------------

#: Sub-cell side per metric, as a divisor of eps: a cell's diagonal is eps.
_SIDE_DIVISOR = {
    Metric.L2: lambda d: math.sqrt(d),
    Metric.LINF: lambda d: 1.0,
    Metric.L1: lambda d: float(d),
}


@lru_cache(maxsize=None)
def _subcell_offsets(dims: int, metric: Metric) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """Lexicographically positive sub-cell offsets that can hold an eps-pair.

    Two points whose cells differ by ``o`` are, per axis, at least
    ``g = max(|o| - 1, 0)`` cells apart.  With side ``eps / sqrt(d)`` (L2),
    ``eps`` (LINF) or ``eps / d`` (L1), the offset is kept unless that gap
    already exceeds eps: ``sum g^2 <= d``, ``max g <= 1`` or ``sum g <= d``.
    The comparison is inclusive although cells are half-open, so the offsets
    whose gap is exactly eps stay in: only rounding can put an accepted pair
    there (a point at ``-1e-20`` is in cell -1, and ``0.1 - (-1e-20)`` rounds
    to ``0.1``).  Past that integer margin, rounding cannot reach, since
    :data:`_MAX_CELL` keeps each cell coordinate within 2**-13 of exact.
    ``None`` when more than :data:`_MAX_OFFSETS` offsets survive.
    """
    reach = {Metric.L2: 1 + math.isqrt(dims), Metric.LINF: 2, Metric.L1: dims + 1}[metric]
    if (2 * reach + 1) ** dims > 40 * _MAX_OFFSETS:
        return None
    kept = []
    for offset in itertools.product(range(-reach, reach + 1), repeat=dims):
        if offset <= (0,) * dims:
            continue
        gaps = [max(abs(o) - 1, 0) for o in offset]
        if metric is Metric.L2:
            ok = sum(g * g for g in gaps) <= dims
        elif metric is Metric.LINF:
            ok = max(gaps) <= 1
        else:
            ok = sum(gaps) <= dims
        if ok:
            kept.append(offset)
    return tuple(kept) if len(kept) <= _MAX_OFFSETS else None


def _link(labels: Any, a: Any, b: Any) -> Any:
    """Merge the components of every ``(a[k], b[k])``; returns the new labels.

    ``labels`` is a flat forest over units (each entry is its component's
    root, and a root is the smallest unit of its component).  Each round
    hooks the larger root of every still-split edge onto the smaller one,
    then flattens with pointer jumping.
    """
    while a.shape[0]:
        ra, rb = labels[a], labels[b]
        split = ra != rb
        if not split.any():
            break
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        _np.minimum.at(labels, _np.maximum(ra, rb), _np.minimum(ra, rb))
        while True:
            jumped = labels[labels]
            if _np.array_equal(jumped, labels):
                break
            labels = jumped
    return labels


def _pair_bounds(low: Any, high: Any, a: Any, b: Any, metric: Metric) -> Tuple[Any, Any]:
    """Lower and upper bounds on the measure of any member pair of two units.

    Each bound is the float measure of one constructed point pair.  Upper:
    per axis the wider of ``high_a - low_b`` and ``high_b - low_a``.  Lower:
    per axis the gap between the two extents, zero where they overlap.
    Correctly rounded subtraction, squaring, abs, max and addition are
    monotone, so for every member pair the float measure lies between the
    two bounds: ``upper <= threshold`` proves every pair within eps and
    ``lower > threshold`` proves none is.
    """
    lo_a, hi_a, lo_b, hi_b = low[a], high[a], low[b], high[b]
    use_a = (hi_a - lo_b) >= (hi_b - lo_a)
    upper = paired_measures(
        _np.where(use_a, hi_a, hi_b), _np.where(use_a, lo_b, lo_a), metric
    )
    before, after = hi_a < lo_b, hi_b < lo_a
    lower = paired_measures(
        _np.where(before, lo_b, _np.where(after, lo_a, 0.0)),
        _np.where(before, hi_a, _np.where(after, hi_b, 0.0)),
        metric,
    )
    return lower, upper


class _Units:
    """The vertices of the connectivity graph: cliques of points.

    A sub-cell whose bounding-box corner pair passes the predicate is one
    unit (every pair in it passes: see :func:`_pair_bounds`).  A cell that
    fails that check is split into its distinct coordinates, each one unit
    (duplicates are at distance 0).  ``members`` lists each unit's points;
    ``probe`` lists the points a member test needs (all of a proven cell,
    one per duplicate set); ``by_cell`` lists each cell's units.
    """

    def __init__(self, arr: Any, cells: _Buckets, metric: Metric, threshold: float) -> None:
        ordered = arr[cells.order]
        low = _np.minimum.reduceat(ordered, cells.starts, axis=0)
        high = _np.maximum.reduceat(ordered, cells.starts, axis=0)
        proven = paired_measures(high, low, metric) <= threshold
        n_cells = cells.keys.shape[0]
        if proven.all():
            self.members = self.probe = cells
            self.low, self.high = low, high
            self.by_cell = _Buckets(_np.arange(n_cells))
            return
        cell_of = cells.bucket_of_rows()
        split = ~proven[cell_of]
        sub = _np.zeros(arr.shape[0], dtype=_np.int64)
        _, dup = _np.unique(arr[split], axis=0, return_inverse=True)
        sub[split] = dup.ravel() + 1
        self.members = _Buckets(cell_of * (int(sub.max()) + 1) + sub)
        ordered = arr[self.members.order]
        self.low = _np.minimum.reduceat(ordered, self.members.starts, axis=0)
        self.high = _np.maximum.reduceat(ordered, self.members.starts, axis=0)
        first = self.members.order[self.members.starts]
        self.probe = self.members.truncated(
            _np.where(proven[cell_of[first]], self.members.counts, 1)
        )
        self.by_cell = _Buckets(cell_of[first])


def subcell_labels(arr: Any, eps: float, metric: Metric) -> Optional[Any]:
    """Label each row with the smallest row index of its eps-component.

    ``None`` when the kernel does not apply (too many neighbour offsets for
    the dimensionality, a threshold that underflows, coordinates too large
    for exact cell arithmetic); the caller then labels from the eps-grid
    sweep.  Otherwise, exactly the components of the float predicate:

    1. Bucket the rows into sub-cells of side eps/sqrt(d) (L2), eps (LINF)
       or eps/d (L1) and split them into clique units (:class:`_Units`).
    2. Pair each cell with its neighbour cells (:func:`_subcell_offsets`)
       and the units of a split cell with each other.  Bound every unit
       pair (:func:`_pair_bounds`): proven pairs link at once, refuted ones
       drop, and the rest wait for member tests.
    3. Test the waiting pairs nearest first, :data:`_WINDOW` at a time,
       skipping pairs already connected, and link each pair with a member
       pair within eps.  Components are kept as a flat min-root label array
       (:func:`_link`).
    """
    n, dims = arr.shape
    threshold = eps_threshold(metric, eps)
    offsets = _subcell_offsets(dims, metric)
    if offsets is None or not _MIN_THRESHOLD <= threshold < math.inf:
        return None
    if n < 2:
        return _np.arange(n)
    side = eps / _SIDE_DIVISOR[metric](dims)
    reach = max(abs(c) for offset in offsets for c in offset)
    built = _linear_keys([arr], side, reach)
    if built is None:
        return None
    (keys,), strides = built
    cells = _Buckets(keys)
    units = _Units(arr, cells, metric, threshold)
    cell_a, cell_b = _neighbour_buckets(cells, cells, _deltas(offsets, strides))
    groups = [(cell_a, cell_b, False)]
    crowded = _np.flatnonzero(units.by_cell.counts > 1)
    if crowded.shape[0]:
        groups.append((crowded, crowded, True))

    labels = _np.arange(units.low.shape[0])
    waiting_a, waiting_b, waiting_low = [], [], []
    for ca, cb, same_cell in groups:
        for _, ua, ub in _member_pairs(ca, cb, units.by_cell, units.by_cell):
            if same_cell:
                keep = ua < ub
                ua, ub = ua[keep], ub[keep]
            lower, upper = _pair_bounds(units.low, units.high, ua, ub, metric)
            proven = upper <= threshold
            labels = _link(labels, ua[proven], ub[proven])
            open_ = (lower <= threshold) & ~proven
            waiting_a.append(ua[open_])
            waiting_b.append(ub[open_])
            waiting_low.append(lower[open_])
    if waiting_a:
        nearest = _np.argsort(_np.concatenate(waiting_low), kind="stable")
        wa = _np.concatenate(waiting_a)[nearest]
        wb = _np.concatenate(waiting_b)[nearest]
        for start in range(0, wa.shape[0], _WINDOW):
            a, b = wa[start : start + _WINDOW], wb[start : start + _WINDOW]
            apart = labels[a] != labels[b]
            a, b = a[apart], b[apart]
            joined = _np.zeros(a.shape[0], dtype=bool)
            for k, i, j in _member_pairs(a, b, units.probe, units.probe):
                joined[k[paired_within(arr[i], arr[j], metric, eps)]] = True
                if joined.all():
                    break
            labels = _link(labels, a[joined], b[joined])

    root = labels[units.members.bucket_of_rows()]
    smallest = _np.full(labels.shape[0], n, dtype=_np.int64)
    _np.minimum.at(smallest, root, _np.arange(n))
    return smallest[root]
