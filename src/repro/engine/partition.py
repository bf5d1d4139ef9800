"""Grid partitioner: cut a :class:`PointSet` into shards plus halo bands.

The partitioner stripes the input along the axis with the widest bounding-box
extent, with every cut placed on a grid line (``cut = k * side``, ``side``
being eps widened past the float slack).  Cut
positions are chosen from the cumulative per-cell histogram so the shards are
balanced, subject to a minimum slab width of two eps-cells.

Correctness argument (why shard-local grouping + halo edges is exact):

* a pair of points within ``eps`` of each other differs by at most ``eps``
  along *every* axis (true for every supported metric), so along the
  partition axis the two cells ``floor(x / side)`` of the pair differ by at
  most 1, with ``side`` eps widened past the float slack
  (:func:`repro.core.cellgrid.eps_grid_side`; with ``side = eps`` exactly,
  ``-1e-20`` and ``0.1`` at eps 0.1 would land two cells apart);
* shards are at least two cells wide, so such a pair can straddle at most one
  cut, and the pair's cells are then exactly ``k - 1`` and ``k`` for a cut on
  grid line ``k`` — which is precisely the :class:`HaloBand` of that cut;
* therefore every eps-edge of the input is discovered either inside one shard
  (by the shard-local grouper) or inside one halo band, and the union of both
  edge sets reconstructs the full epsilon-neighbourhood graph.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.core.cellgrid import eps_grid_side
from repro.core.pointset import HAVE_NUMPY, NumpyPointSet, PointSet
from repro.core.rectangle import Rect
from repro.exceptions import InvalidParameterError

try:  # optional; the pure-Python payload path covers its absence
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the python backend
    _np = None

__all__ = [
    "Shard",
    "HaloBand",
    "GridPartition",
    "partition_pointset",
    "take_payload",
    "axis_cells",
]

#: Minimum slab width in eps-cells.  Two cells (= ``2 * eps``) guarantee a
#: within-eps pair can never skip a whole shard, with a full cell of float
#: safety margin on top of the one-cell minimum the analysis needs.
_MIN_SLAB_CELLS = 2


@dataclass(frozen=True)
class Shard:
    """One slab of the partition: global row indices plus their coordinates.

    ``points`` is a picklable payload (an ``(n, d)`` float64 array under the
    NumPy backend, a list of float tuples otherwise) that a worker process
    turns back into a :class:`PointSet` without re-validation cost.
    """

    sid: int
    indices: List[int]
    points: Any


@dataclass(frozen=True)
class HaloBand:
    """The points flanking one internal cut (eps-cells ``k - 1`` and ``k``).

    Every eps-edge straddling the cut has both endpoints in this band, so
    the band's components (:meth:`PointSet.components`) carry every
    cross-shard connection of that boundary (plus some intra-shard ones,
    which the Union-Find merge absorbs for free).
    """

    cut_cell: int
    indices: List[int]
    points: Any


@dataclass(frozen=True)
class GridPartition:
    """A complete sharding of one input batch."""

    axis: int
    eps: float
    #: Cell width along ``axis`` (:func:`axis_cells`), eps widened past the
    #: float slack; cuts sit on multiples of it.
    side: float
    cut_cells: List[int]
    shards: List[Shard]
    bands: List[HaloBand]

    @property
    def n_points(self) -> int:
        return sum(len(s.indices) for s in self.shards)


def take_payload(ps: PointSet, indices: Sequence[int]) -> Any:
    """Extract a picklable point payload for the given row indices.

    Shared with the similarity-join subsystem, which ships per-shard slices
    of both relations through the same worker pool.
    """
    if HAVE_NUMPY and isinstance(ps, NumpyPointSet):
        return ps.array[_np.asarray(indices, dtype=_np.intp)]
    return [ps.point(i) for i in indices]


def axis_cells(ps: PointSet, axis: int, side: float) -> List[int]:
    """The grid cell of every point along ``axis`` (``floor(x / side)``).

    One vectorised pass on the NumPy backend; the similarity-join stitcher
    reuses it, with the partition's ``side``, instead of re-deriving cells
    point by point.
    """
    if HAVE_NUMPY and isinstance(ps, NumpyPointSet):
        return _np.floor(ps.array[:, axis] / side).astype(_np.int64).tolist()
    return [math.floor(ps.point(i)[axis] / side) for i in range(len(ps))]


def _widest_axis(bbox: Rect) -> int:
    extents = [hi - lo for lo, hi in zip(bbox.low, bbox.high)]
    return max(range(len(extents)), key=extents.__getitem__)


def _choose_cuts(cells: List[int], n_shards: int) -> List[int]:
    """Pick balanced cut grid-lines from the per-cell population histogram.

    A cut at grid line ``k`` sends cells ``< k`` left and ``>= k`` right.
    Cuts keep :data:`_MIN_SLAB_CELLS` cells of separation from each other and
    from the occupied extent, so every slab is at least ``2 * eps`` wide.
    """
    histogram: Dict[int, int] = {}
    for cell in cells:
        histogram[cell] = histogram.get(cell, 0) + 1
    occupied = sorted(histogram)
    lo_cell, hi_cell = occupied[0], occupied[-1]
    n = len(cells)
    cuts: List[int] = []
    cumulative = 0
    min_next_cut = lo_cell + _MIN_SLAB_CELLS
    for cell in occupied:
        cumulative += histogram[cell]
        if len(cuts) == n_shards - 1:
            break
        target = n * (len(cuts) + 1) / n_shards
        candidate = cell + 1  # cut after this cell
        if cumulative >= target and candidate >= min_next_cut:
            if candidate > hi_cell - _MIN_SLAB_CELLS + 1:
                break  # the trailing slab would be too thin
            cuts.append(candidate)
            min_next_cut = candidate + _MIN_SLAB_CELLS
    return cuts


def partition_pointset(
    ps: PointSet, eps: float, n_shards: int, axis: Optional[int] = None
) -> Optional[GridPartition]:
    """Cut ``ps`` into up to ``n_shards`` slabs along its widest axis.

    Returns ``None`` when no valid cut exists (fewer than two shards'
    worth of occupied eps-cells, e.g. tiny, degenerate, or single-cluster
    inputs) — the caller then falls back to the serial path.
    """
    eps = float(eps)
    if eps <= 0:
        raise InvalidParameterError(f"eps must be positive, got {eps}")
    if n_shards < 2 or len(ps) < 2:
        return None
    bbox = ps.bbox()
    if axis is None:
        axis = _widest_axis(bbox)
    elif not 0 <= axis < ps.dims:
        raise InvalidParameterError(
            f"partition axis {axis} out of range for {ps.dims}-d points"
        )
    side = eps_grid_side(eps, max(abs(bbox.low[axis]), abs(bbox.high[axis])))
    cells = axis_cells(ps, axis, side)
    cuts = _choose_cuts(cells, n_shards)
    if not cuts:
        return None

    shard_indices: List[List[int]] = [[] for _ in range(len(cuts) + 1)]
    band_indices: List[List[int]] = [[] for _ in cuts]
    for i, cell in enumerate(cells):
        shard_indices[bisect_right(cuts, cell)].append(i)
        # A point belongs to the halo band of cut k iff its cell is k-1 or k.
        # Cuts are >= _MIN_SLAB_CELLS apart, so at most one band matches.
        slot = bisect_right(cuts, cell + 1) - 1
        if 0 <= slot < len(cuts) and cuts[slot] - cell in (0, 1):
            band_indices[slot].append(i)

    shards = [
        Shard(sid=sid, indices=indices, points=take_payload(ps, indices))
        for sid, indices in enumerate(shard_indices)
    ]
    bands = [
        HaloBand(cut_cell=cut, indices=indices, points=take_payload(ps, indices))
        for cut, indices in zip(cuts, band_indices)
    ]
    return GridPartition(
        axis=axis, eps=eps, side=side, cut_cells=cuts, shards=shards, bands=bands
    )
