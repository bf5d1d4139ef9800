"""SGB-Any: distance-to-any (connectivity) similarity grouping (paper Section 7).

A point joins a group when it is within ``eps`` of *at least one* member; a
point close to several groups causes those groups to merge.  The output is
therefore the set of connected components of the epsilon-neighbourhood graph.

Two strategies are provided, matching the paper's evaluation:

* ``ALL_PAIRS`` — compare the incoming point against every processed point
  (quadratic).
* ``INDEX``     — Procedure 8: an on-the-fly spatial index (``Points_IX``,
  an R-tree by default) answers the epsilon window query, and a Union-Find
  forest (Procedure 9 / ``MergeGroupsInsert``) tracks existing, new, and
  merged groups; O(n log n) on average.

Every window hit is refined with the exact predicate (the ``VerifyPoints``
step of Procedure 8); in floating point that holds for LINF as well, whose
box window is exact only in the reals.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.core.distance import Metric, resolve_metric
from repro.core.pointset import PointSet, ensure_finite, is_empty_batch
from repro.core.predicates import SimilarityPredicate
from repro.core.rectangle import Rect
from repro.core.result import GroupingResult, canonicalize_groups
from repro.dstruct.union_find import UnionFind
from repro.exceptions import InvalidParameterError
from repro.spatial.base import SpatialIndex
from repro.spatial.rtree import RTree

try:  # optional: used to stage prior points for bulk verification
    import numpy as _np
except ImportError:  # pragma: no cover - exercised where numpy is absent
    _np = None

Point = Tuple[float, ...]

__all__ = ["SGBAnyStrategy", "SGBAnyGrouper", "sgb_any_grouping"]


def _default_index_factory() -> SpatialIndex:
    """Default spatial index; a named function so groupers stay picklable
    (streaming checkpoints serialise live sessions holding groupers)."""
    return RTree(max_entries=8)


class SGBAnyStrategy(Enum):
    """Neighbour discovery strategy used by SGB-Any."""

    ALL_PAIRS = "all-pairs"
    INDEX = "index"

    @staticmethod
    def parse(value: "SGBAnyStrategy | str") -> "SGBAnyStrategy":
        """Resolve a strategy from an enum member or its name."""
        if isinstance(value, SGBAnyStrategy):
            return value
        if isinstance(value, str):
            key = value.strip().lower().replace("_", "-")
            aliases = {
                "all-pairs": SGBAnyStrategy.ALL_PAIRS,
                "naive": SGBAnyStrategy.ALL_PAIRS,
                "index": SGBAnyStrategy.INDEX,
                "rtree": SGBAnyStrategy.INDEX,
                "on-the-fly-index": SGBAnyStrategy.INDEX,
            }
            if key in aliases:
                return aliases[key]
        raise InvalidParameterError(f"unknown SGB-Any strategy: {value!r}")


IndexFactory = Callable[[], SpatialIndex]


class SGBAnyGrouper:
    """Stateful SGB-Any operator: feed points one at a time, then finalise."""

    def __init__(
        self,
        eps: float,
        metric: "Metric | str" = Metric.L2,
        strategy: "SGBAnyStrategy | str" = SGBAnyStrategy.INDEX,
        index_factory: Optional[IndexFactory] = None,
    ) -> None:
        self.predicate = SimilarityPredicate(resolve_metric(metric), eps)
        self.eps = float(eps)
        self.strategy = SGBAnyStrategy.parse(strategy)
        #: True when the caller picked the access method (index ablations);
        #: add_batch then routes batch-internal discovery through it as well.
        self._explicit_index = index_factory is not None
        self._index_factory = index_factory or _default_index_factory
        self._points: List[Point] = []
        self._indices: List[int] = []
        self._point_by_index: dict[int, Point] = {}
        self._uf = UnionFind()
        self._point_index: Optional[SpatialIndex] = (
            self._index_factory() if self.strategy is SGBAnyStrategy.INDEX else None
        )
        #: Points below this position in ``_points`` are in ``_point_index``;
        #: batches defer indexing, and the tail is flushed lazily (STR
        #: bulk-loaded when the index is still empty, incrementally inserted
        #: otherwise) before the next probe needs it.
        self._indexed_upto = 0

    # ------------------------------------------------------------------
    # public incremental interface
    # ------------------------------------------------------------------

    def add(self, point: Sequence[float], index: Optional[int] = None) -> None:
        """Process one input point (Procedure 7 body)."""
        pt: Point = tuple(float(c) for c in point)
        ensure_finite(pt)
        if index is None:
            index = len(self._points)
        if index in self._point_by_index:
            raise InvalidParameterError(
                f"input row index {index} was already added to this grouper"
            )
        neighbours = self._find_neighbours(pt)
        self._uf.add(index)
        self._points.append(pt)
        self._indices.append(index)
        self._point_by_index[index] = pt
        # MergeGroupsInsert: union the point with every neighbouring group.
        for other in neighbours:
            self._uf.union(index, other)
        if self._point_index is not None:
            # _find_neighbours flushed any batch backlog, so the index covers
            # everything before this point; append it incrementally.
            self._point_index.insert(Rect.from_point(pt), index)
            self._indexed_upto = len(self._points)

    def add_all(self, points: Iterable[Sequence[float]]) -> None:
        """Process points one at a time in arrival order (scalar reference path)."""
        for point in points:
            self.add(point)

    def add_batch(self, points: "PointSet | Sequence[Sequence[float]]") -> None:
        """Process a whole batch of points with the vectorised pipeline.

        Semantically identical to calling :meth:`add` on every point in
        order — the epsilon-neighbourhood graph, and therefore the final
        connected components, are the same — but the work is done in bulk.
        The batch is normalised once into a :class:`PointSet`, whose
        :meth:`~PointSet.components` labels every point with the smallest
        batch position of its batch-internal component; the labels are
        loaded into the forest with one parent write per point
        (:meth:`UnionFind.add_forest`), so no edge list is built and no
        per-edge union runs.  Window hits against previously added points
        are verified in bulk and applied as one union per (batch component,
        prior point).  The point index is not updated eagerly; the
        unindexed tail is flushed (STR bulk-loaded, or incrementally
        inserted once the index exists) on the next probe that needs it.

        When the grouper was built with an explicit ``index_factory`` under
        the ``INDEX`` strategy, batch-internal edges are instead discovered
        through a bulk-loaded instance of that index (window query per point
        + exact verification) so index ablations measure their access method
        at batch scale too; the grouping is the same either way.
        """
        if is_empty_batch(points):
            # Degenerate batch: a strict no-op — no PointSet normalisation,
            # no index bookkeeping, no Union-Find dispatch.  Streaming flushes
            # routinely produce empty micro-batches at epoch boundaries.
            return
        ps = PointSet.from_any(points)
        n = len(ps)
        if n == 0:
            return
        base = len(self._points)
        indices = range(base, base + n)
        if not self._point_by_index.keys().isdisjoint(indices):
            taken = min(set(indices) & self._point_by_index.keys())
            raise InvalidParameterError(
                f"input row index {taken} was already added to this grouper"
            )
        tuples = ps.to_tuples()
        if self._explicit_index and self.strategy is SGBAnyStrategy.INDEX:
            # Ablations: batch-internal edges through the caller's index.
            self._uf.add_many(indices)
            self._uf.union_pairs(self._batch_edges_indexed(tuples, base))
            roots: "Sequence[int]" = indices
        else:
            labels = ps.components(self.eps, self.predicate.metric)
            roots = [base + label for label in labels]
            self._uf.add_forest(dict(zip(indices, roots)))
        # Edges between the batch and the points processed before it, one
        # per (batch component, prior neighbour).
        if self._points:
            neighbour_lists = self._find_neighbours_many(tuples)
            self._uf.union_pairs(
                {
                    (root, other)
                    for root, neighbours in zip(roots, neighbour_lists)
                    for other in neighbours
                }
            )
        self._points.extend(tuples)
        self._indices.extend(indices)
        self._point_by_index.update(zip(indices, tuples))
        # The new tail stays unindexed until a probe calls _ensure_point_index.

    def _batch_edges_indexed(
        self, tuples: Sequence[Point], base: int
    ) -> Iterable[Tuple[int, int]]:
        """Batch-internal eps-edges via a bulk-loaded throwaway index.

        Exactly the edge set ``pairwise_within`` yields: the window query is a
        conservative filter (:meth:`_window`) and every hit is verified with
        the predicate.  Used when the caller explicitly
        selected the access method, so the index-choice ablation exercises
        grid / kd-tree / R-tree on whole batches.
        """
        index = self._index_factory()
        index.load([Rect.from_point(pt) for pt in tuples], range(len(tuples)))
        windows = [self._window(pt) for pt in tuples]
        for i, hits in enumerate(index.search_many(windows)):
            later = [j for j in hits if j > i]
            if not later:
                continue
            mask = self.predicate.similar_many(tuples[i], [tuples[j] for j in later])
            for j, ok in zip(later, mask):
                if ok:
                    yield base + i, base + j

    def neighbours_many(
        self, points: "PointSet | Sequence[Sequence[float]]"
    ) -> List[List[int]]:
        """Return, per probe point, the added input-row indices within eps.

        This is the batched FindCandidateGroups probe (Procedure 8) exposed
        publicly: probes are answered with the grouper's access method (window
        query + exact verification) *without* adding the probe points.
        External batch consumers use it to join incoming points against an
        already-grouped set through whatever index the grouper maintains
        (the columnar alternative is :meth:`PointSet.cross_within`, which the
        streaming subsystem's cross-epoch discovery is built on).
        """
        ps = PointSet.from_any(points)
        if len(ps) == 0:
            return []
        if not self._points:
            return [[] for _ in range(len(ps))]
        return self._find_neighbours_many(ps.to_tuples())

    def forest(self) -> "dict[int, int]":
        """Export the Union-Find forest built so far (element -> root).

        This is the shard result the parallel engine ships back from worker
        processes; see :meth:`repro.dstruct.union_find.UnionFind.export_forest`.
        """
        return self._uf.export_forest()

    def finalize(self) -> GroupingResult:
        """Return the grouping (connected components of the epsilon graph)."""
        groups = canonicalize_groups(self._uf.components().values())
        return GroupingResult(groups=groups, eliminated=[], points=list(self._points))

    @property
    def group_count(self) -> int:
        """Current number of groups (Union-Find components)."""
        return self._uf.component_count

    # ------------------------------------------------------------------
    # FindCandidateGroups (Procedure 8) — returns neighbouring point indices
    # ------------------------------------------------------------------

    def _find_neighbours(self, point: Point) -> List[int]:
        if self.strategy is SGBAnyStrategy.ALL_PAIRS:
            return [
                idx
                for idx, other in zip(self._indices, self._points)
                if self.predicate.similar(point, other)
            ]
        self._ensure_point_index()
        assert self._point_index is not None
        hits = self._point_index.search(self._window(point))
        # VerifyPoints: the window is only a conservative filter (for LINF
        # too, once coordinates are rounded); confirm with the predicate.
        verified: List[int] = []
        for idx in hits:
            other = self._point_by_index[idx]
            if self.predicate.similar(point, other):
                verified.append(idx)
        return verified

    def _find_neighbours_many(self, points: Sequence[Point]) -> List[List[int]]:
        """Batched FindCandidateGroups: neighbour lists for many probes at once."""
        if self.strategy is SGBAnyStrategy.ALL_PAIRS:
            # Stage the prior points into one columnar block so similar_many
            # does not re-convert the whole list once per probe point.  The
            # points were validated when added, so no from_any revalidation.
            block: "Sequence[Point]" = self._points
            if _np is not None:
                block = _np.asarray(self._points, dtype=_np.float64)
            out: List[List[int]] = []
            for pt in points:
                mask = self.predicate.similar_many(pt, block)
                out.append([idx for idx, ok in zip(self._indices, mask) if ok])
            return out
        self._ensure_point_index()
        assert self._point_index is not None
        hit_lists = self._point_index.search_many([self._window(pt) for pt in points])
        out = []
        for pt, hits in zip(points, hit_lists):
            if not hits:
                out.append([])
                continue
            candidates = [self._point_by_index[idx] for idx in hits]
            mask = self.predicate.similar_many(pt, candidates)
            out.append([idx for idx, ok in zip(hits, mask) if ok])
        return out

    def _window(self, point: Point) -> Rect:
        """The window query of ``point``: its eps-box, widened past rounding.

        ``fl(x + eps)`` can fall short of a point the predicate accepts, or
        reach past one it rejects (``-999999.9 + 0.05`` rounds to
        ``-999999.85``, yet the two are 0.0500000000466 apart).  The slack
        covers the first; verifying every hit with the predicate settles the
        second, so the probe finds exactly the predicate's neighbours.
        """
        slack = self.eps * 2.0 ** -48 + max(abs(c) for c in point) * 2.0 ** -50
        return Rect.from_point(point, self.eps + slack)

    def _ensure_point_index(self) -> None:
        """Flush the unindexed tail left behind by ``add_batch`` calls.

        An empty R-tree takes the whole tail in one STR bulk load; a
        non-empty index absorbs it incrementally, so repeated batches cost
        the same O(k log n) as the scalar path rather than a full rebuild
        per batch.
        """
        if self._point_index is None or self._indexed_upto == len(self._points):
            return
        pending_points = self._points[self._indexed_upto :]
        pending_indices = self._indices[self._indexed_upto :]
        rects = [Rect.from_point(pt) for pt in pending_points]
        index = self._point_index
        if len(index) == 0:
            # Whole-input batch: one bulk load (STR-packed for the R-tree).
            index.load(rects, pending_indices)
        else:
            for rect, idx in zip(rects, pending_indices):
                index.insert(rect, idx)
        self._indexed_upto = len(self._points)


def sgb_any_grouping(
    points: "PointSet | Sequence[Sequence[float]]",
    eps: float,
    metric: "Metric | str" = Metric.L2,
    strategy: "SGBAnyStrategy | str" = SGBAnyStrategy.INDEX,
    index_factory: Optional[IndexFactory] = None,
    batch: bool = True,
    workers: "Optional[int | str]" = None,
) -> GroupingResult:
    """Group ``points`` with the SGB-Any operator and return the result.

    Mirrors the SQL clause ``GROUP BY ... DISTANCE-TO-ANY <metric> WITHIN eps``.
    ``batch=False`` forces the scalar point-at-a-time reference path; the two
    paths produce identical results (enforced by the parity test suite).

    ``workers`` routes the batch path through the sharded parallel engine
    (``repro.engine``): ``N > 1`` forces up to N worker processes, while
    ``0`` / ``"auto"`` — or ``None`` with no numeric ``SGB_WORKERS`` in the
    environment — delegates the mode choice to the cost-based planner
    (:mod:`repro.engine.cost`), which goes parallel only when the statistics
    say it pays and records its choice on ``result.plan``.  The parallel
    result is identical to the serial one after canonical relabelling.  An
    explicit ``index_factory`` pins the run to the in-process path so index
    ablations measure the access method they name.
    """
    plannable = (
        batch
        and index_factory is None
        # An explicit non-default strategy pins the in-process path: the
        # engine's shard-local grouping is the INDEX/grid pipeline, and a
        # caller comparing strategies must measure the one they named.
        and SGBAnyStrategy.parse(strategy) is SGBAnyStrategy.INDEX
    )
    delegated_plan = None
    if plannable:
        from repro.engine.cost import forced_plan, plan_sgb_any, planner_delegated

        points = PointSet.from_any(points)
        if planner_delegated(workers):
            # Cost-based route: statistics + constant unit costs pick the
            # mode.  Advisory about time only — every candidate is
            # result-identical.
            from repro.engine.stats import collect_stats

            plan = plan_sgb_any(collect_stats(points), PointSet._check_eps(eps))
            delegated_plan = plan
        else:
            plan = forced_plan("sgb_any", len(points), workers)
        if plan.mode == "sharded":
            from repro.engine.workers import sgb_any_sharded

            result = sgb_any_sharded(
                points, eps=eps, metric=metric, workers=plan.workers, shards=plan.shards
            )
            result.plan = delegated_plan
            return result
    grouper = SGBAnyGrouper(
        eps=eps, metric=metric, strategy=strategy, index_factory=index_factory
    )
    if batch:
        grouper.add_batch(points)
    else:
        grouper.add_all(points)
    result = grouper.finalize()
    result.plan = delegated_plan
    return result
