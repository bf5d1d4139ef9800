"""SGB-All: distance-to-all (clique) similarity grouping (paper Section 6).

The module implements the full algorithmic framework of Procedure 1 with the
three interchangeable candidate/overlap discovery strategies the paper
evaluates:

* ``ALL_PAIRS``        — Procedure 2, exact distance checks against every
                         member of every group (quadratic).
* ``BOUNDS_CHECKING``  — Procedure 4, the epsilon-All bounding-rectangle
                         filter with a linear scan over the group rectangles.
* ``INDEX``            — Procedure 5, the bounding rectangles indexed in an
                         on-the-fly R-tree (``Groups_IX``) so candidate and
                         overlap groups are found with a window query.

For the L2 metric the rectangle filter is refined with the convex-hull test
of Procedure 6.  The three ``ON-OVERLAP`` semantics (JOIN-ANY, ELIMINATE,
FORM-NEW-GROUP) are handled by :func:`_process_grouping` / :func:`_process_overlap`,
mirroring Procedures 3 and the ProcessOverlap step.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.distance import Metric, resolve_metric
from repro.core.groups import Group
from repro.core.pointset import PointSet, ensure_finite, is_empty_batch
from repro.core.overlap import OverlapAction
from repro.core.predicates import SimilarityPredicate
from repro.core.rectangle import Rect
from repro.core.result import GroupingResult
from repro.exceptions import InvalidParameterError
from repro.spatial.base import SpatialIndex
from repro.spatial.rtree import RTree

Point = Tuple[float, ...]

__all__ = ["SGBAllStrategy", "SGBAllGrouper", "sgb_all_grouping"]

#: Safety bound on the FORM-NEW-GROUP recursion; each round strictly shrinks
#: the deferred set, so real inputs never get close to this.
_MAX_RECURSION_ROUNDS = 10_000


class SGBAllStrategy(Enum):
    """Candidate/overlap discovery strategy used by SGB-All."""

    ALL_PAIRS = "all-pairs"
    BOUNDS_CHECKING = "bounds-checking"
    INDEX = "index"

    @staticmethod
    def parse(value: "SGBAllStrategy | str") -> "SGBAllStrategy":
        """Resolve a strategy from an enum member or its name."""
        if isinstance(value, SGBAllStrategy):
            return value
        if isinstance(value, str):
            key = value.strip().lower().replace("_", "-")
            aliases = {
                "all-pairs": SGBAllStrategy.ALL_PAIRS,
                "naive": SGBAllStrategy.ALL_PAIRS,
                "bounds-checking": SGBAllStrategy.BOUNDS_CHECKING,
                "bounds": SGBAllStrategy.BOUNDS_CHECKING,
                "index": SGBAllStrategy.INDEX,
                "rtree": SGBAllStrategy.INDEX,
                "on-the-fly-index": SGBAllStrategy.INDEX,
            }
            if key in aliases:
                return aliases[key]
        raise InvalidParameterError(f"unknown SGB-All strategy: {value!r}")


IndexFactory = Callable[[], SpatialIndex]


def _default_index_factory() -> SpatialIndex:
    """Default spatial index; a named function so groupers stay picklable."""
    return RTree(max_entries=8)


class SGBAllGrouper:
    """Stateful SGB-All operator: feed points one at a time, then finalise.

    The operator is deliberately incremental (``add`` / ``finalize``) so the
    relational executor can push tuples through it; :func:`sgb_all_grouping`
    wraps it for the common "group this array of points" use.
    """

    def __init__(
        self,
        eps: float,
        metric: "Metric | str" = Metric.L2,
        on_overlap: "OverlapAction | str" = OverlapAction.JOIN_ANY,
        strategy: "SGBAllStrategy | str" = SGBAllStrategy.INDEX,
        seed: int = 0,
        index_factory: Optional[IndexFactory] = None,
    ) -> None:
        self.predicate = SimilarityPredicate(resolve_metric(metric), eps)
        self.eps = float(eps)
        self.on_overlap = OverlapAction.parse(on_overlap)
        self.strategy = SGBAllStrategy.parse(strategy)
        self._rng = random.Random(seed)
        self._seed = seed
        self._index_factory = index_factory or _default_index_factory
        self._groups: List[Group] = []
        self._group_index: Optional[SpatialIndex] = (
            self._index_factory() if self.strategy is SGBAllStrategy.INDEX else None
        )
        self._next_gid = 0
        self._points: List[Point] = []
        #: Input row index of each entry of ``_points`` (arrival order); the
        #: frontier path uses it to map cross-batch edges back to row ids.
        self._point_indices: List[int] = []
        #: Live membership map (input index -> owning group), maintained by
        #: every insert/remove so the frontier path can resolve a neighbour
        #: edge to its group in O(1) instead of scanning group members.
        self._member_group: Dict[int, Group] = {}
        self._seen_indices: set[int] = set()
        self._deferred: List[Tuple[int, Point]] = []
        self._eliminated: List[int] = []
        self._deferred_flags: set[int] = set()
        self._eliminated_flags: set[int] = set()

    # ------------------------------------------------------------------
    # public incremental interface
    # ------------------------------------------------------------------

    def add(self, point: Sequence[float], index: Optional[int] = None) -> None:
        """Process one input point (paper Procedure 1 body).

        ``index`` is the input row identifier; it defaults to the arrival
        position and must be unique across the run.
        """
        pt: Point = tuple(float(c) for c in point)
        ensure_finite(pt)
        if index is None:
            index = len(self._points)
        if index in self._seen_indices:
            raise InvalidParameterError(
                f"input row index {index} was already added to this grouper"
            )
        self._seen_indices.add(index)
        self._points.append(pt)
        self._point_indices.append(index)
        self._process_point(index, pt)

    def add_all(self, points: Iterable[Sequence[float]]) -> None:
        """Process points one at a time in arrival order (scalar reference path)."""
        for point in points:
            self.add(point)

    def add_batch(self, points: "PointSet | Sequence[Sequence[float]]") -> None:
        """Process a whole batch of points through the columnar pipeline.

        SGB-All's arbitration (JOIN-ANY randomness, group formation order)
        is inherently sequential, so the batch path keeps the per-point
        decision *sequence* of :meth:`add` — the results are bit-identical —
        but replaces the per-point candidate discovery with whole-frontier
        verification where the configuration allows it (see
        :meth:`_frontier_eligible`): one eps-grid sweep computes the exact
        within-eps adjacency of the entire batch up front
        (:meth:`PointSet.pairwise_within` within the batch,
        :meth:`PointSet.cross_within` against earlier points), and each
        point's candidate/overlap groups are then read off its neighbour
        set in O(degree) — no per-point index probe, no per-member distance
        re-checks.  Ineligible configurations (where the reference filter is
        deliberately approximate, so adjacency alone cannot reproduce its
        decisions) keep the per-point loop of :meth:`add`.
        """
        if is_empty_batch(points):
            # Degenerate batch: a strict no-op — no PointSet normalisation
            # and no grouper state change (mirrors SGBAnyGrouper.add_batch).
            return
        ps = PointSet.from_any(points)
        if len(ps) == 0:
            return
        base = len(self._points)
        tuples = ps.to_tuples()
        # Check the whole index range up front so a collision cannot leave the
        # grouper half-mutated.
        for offset in range(len(tuples)):
            if base + offset in self._seen_indices:
                raise InvalidParameterError(
                    f"input row index {base + offset} was already added to this grouper"
                )
        neighbours = (
            self._batch_neighbours(ps, base) if self._frontier_eligible(ps.dims) else None
        )
        for offset, pt in enumerate(tuples):
            index = base + offset
            self._seen_indices.add(index)
            self._points.append(pt)
            self._point_indices.append(index)
            if neighbours is None:
                self._process_point(index, pt)
            else:
                self._process_point_frontier(index, pt, neighbours[offset])

    def _frontier_eligible(self, dims: int) -> bool:
        """True when per-point candidate decisions are pure adjacency functions.

        ALL_PAIRS decides candidacy with exact per-member distance checks;
        under LINF the epsilon-All rectangle *is* the distance-to-all region;
        under L2 in 2-d the convex-hull refinement makes the rectangle filter
        exact again.  Everywhere else (L1, L2 in >= 3-d) the bounds/index
        filters accept rectangle false positives by design, so the frontier
        cannot reproduce their decisions from the true adjacency and the
        per-point loop stays in charge.
        """
        if self.strategy is SGBAllStrategy.ALL_PAIRS:
            return True
        metric = self.predicate.metric
        return metric is Metric.LINF or (metric is Metric.L2 and dims == 2)

    def _batch_neighbours(self, ps: PointSet, base: int) -> List[Set[int]]:
        """Exact within-eps neighbour sets (as input row indices) per batch point.

        One pass of the eps-grid pairwise sweep inside the batch plus one
        cross sweep against every previously added point; both run the same
        ``within_eps`` kernel as the scalar predicate, so the adjacency is
        bit-identical to what per-point probing would discover.
        """
        metric = self.predicate.metric
        neighbours: List[Set[int]] = [set() for _ in range(len(ps))]
        for a, b in ps.pairwise_within(self.eps, metric):
            neighbours[a].add(base + b)
            neighbours[b].add(base + a)
        if self._points:
            prior = PointSet.from_any(self._points)
            for prior_pos, batch_pos in prior.cross_within(ps, self.eps, metric):
                neighbours[batch_pos].add(self._point_indices[prior_pos])
        return neighbours

    def _process_point_frontier(
        self, index: int, point: Point, neighbour_rows: Set[int]
    ) -> None:
        """Procedure 1 body with candidate discovery read off the frontier."""
        hits: Dict[int, int] = {}
        by_gid: Dict[int, Group] = {}
        for row in neighbour_rows:
            group = self._member_group.get(row)
            if group is None:
                continue
            hits[group.gid] = hits.get(group.gid, 0) + 1
            by_gid[group.gid] = group
        join_any = self.on_overlap is OverlapAction.JOIN_ANY
        candidates: List[Group] = []
        overlaps: List[Group] = []
        for gid in sorted(hits):
            group = by_gid[gid]
            if hits[gid] == len(group):
                candidates.append(group)
            elif not join_any:
                overlaps.append(group)
        self._process_grouping(index, point, candidates)
        if not join_any and overlaps:
            for group in overlaps:
                # Same decision `members_within` would make, in member order.
                touched = [idx for idx in group.indices if idx in neighbour_rows]
                self._strip_overlap(group, touched)

    def finalize(self) -> GroupingResult:
        """Run the deferred FORM-NEW-GROUP rounds and return the grouping."""
        self._resolve_deferred()
        groups = [list(g.indices) for g in self._groups if len(g) > 0]
        return GroupingResult(
            groups=groups,
            eliminated=sorted(self._eliminated),
            points=list(self._points),
        )

    @property
    def group_count(self) -> int:
        """Number of live groups built so far (before deferred resolution)."""
        return sum(1 for g in self._groups if len(g) > 0)

    # ------------------------------------------------------------------
    # Procedure 1: per-point processing
    # ------------------------------------------------------------------

    def _process_point(self, index: int, point: Point) -> None:
        candidates, overlaps = self._find_close_groups(point)
        self._process_grouping(index, point, candidates)
        if self.on_overlap is not OverlapAction.JOIN_ANY and overlaps:
            self._process_overlap(point, overlaps)

    # ------------------------------------------------------------------
    # FindCloseGroups: Procedures 2 / 4 / 5
    # ------------------------------------------------------------------

    def _find_close_groups(self, point: Point) -> Tuple[List[Group], List[Group]]:
        if self.strategy is SGBAllStrategy.ALL_PAIRS:
            candidates, overlaps = self._find_all_pairs(point)
        elif self.strategy is SGBAllStrategy.BOUNDS_CHECKING:
            candidates, overlaps = self._find_bounds(point, self._live_groups())
        else:
            candidates, overlaps = self._find_bounds(point, self._index_probe(point))
        # Normalise the discovery order (the index probe returns groups in
        # R-tree order) so arbitration and overlap processing behave the same
        # way for every strategy.
        candidates.sort(key=lambda g: g.gid)
        overlaps.sort(key=lambda g: g.gid)
        return candidates, overlaps

    def _live_groups(self) -> List[Group]:
        return [g for g in self._groups if len(g) > 0]

    def _index_probe(self, point: Point) -> List[Group]:
        assert self._group_index is not None
        window = Rect.from_point(point, self.eps)
        hits = self._group_index.search(window)
        return [g for g in hits if len(g) > 0]

    def _find_all_pairs(self, point: Point) -> Tuple[List[Group], List[Group]]:
        """Procedure 2: exact scan of every member of every group."""
        join_any = self.on_overlap is OverlapAction.JOIN_ANY
        candidates: List[Group] = []
        overlaps: List[Group] = []
        for group in self._live_groups():
            candidate_flag = True
            overlap_flag = False
            for member in group.points:
                if self.predicate.similar(point, member):
                    overlap_flag = True
                else:
                    candidate_flag = False
                    if join_any:
                        break
            if candidate_flag:
                candidates.append(group)
            elif not join_any and overlap_flag:
                overlaps.append(group)
        return candidates, overlaps

    def _find_bounds(
        self, point: Point, groups: Iterable[Group]
    ) -> Tuple[List[Group], List[Group]]:
        """Procedures 4/5: rectangle filter (+ L2 hull refinement) per group."""
        join_any = self.on_overlap is OverlapAction.JOIN_ANY
        use_hull = self.predicate.metric is Metric.L2 and len(point) == 2
        probe_box: Optional[Rect] = None
        candidates: List[Group] = []
        overlaps: List[Group] = []
        for group in groups:
            if group.rect_contains(point):
                if not use_hull or group.passes_hull_test(point, self.predicate):
                    candidates.append(group)
                    continue
                # L2 false positive: inside the rectangle but not within eps of
                # every member; it may still overlap some members.
                if not join_any and group.any_within(point, self.predicate):
                    overlaps.append(group)
                continue
            if join_any:
                continue
            if probe_box is None:
                probe_box = Rect.from_point(point, self.eps)
            if probe_box.intersects(group.eps_rect.rect) and group.any_within(
                point, self.predicate
            ):
                overlaps.append(group)
        return candidates, overlaps

    # ------------------------------------------------------------------
    # Procedure 3: ProcessGroupingALL
    # ------------------------------------------------------------------

    def _process_grouping(
        self, index: int, point: Point, candidates: List[Group]
    ) -> None:
        if not candidates:
            self._create_group(index, point)
            return
        if len(candidates) == 1:
            self._insert_into_group(candidates[0], index, point)
            return
        if self.on_overlap is OverlapAction.JOIN_ANY:
            chosen = self._rng.choice(candidates)
            self._insert_into_group(chosen, index, point)
        elif self.on_overlap is OverlapAction.ELIMINATE:
            self._eliminate(index)
        else:  # FORM_NEW_GROUP
            self._defer(index, point)

    def _create_group(self, index: int, point: Point) -> Group:
        group = Group(self._next_gid, self.eps, index, point)
        self._next_gid += 1
        self._groups.append(group)
        self._member_group[index] = group
        if self._group_index is not None:
            group.indexed_rect = group.eps_rect.rect
            self._group_index.insert(group.indexed_rect, group)
        return group

    def _insert_into_group(self, group: Group, index: int, point: Point) -> None:
        group.add(index, point)
        self._member_group[index] = group
        # The fresh rectangle only shrinks, so the (stale) indexed rectangle
        # stays a conservative cover; no R-tree update is needed here.

    def _eliminate(self, index: int) -> None:
        if index not in self._eliminated_flags:
            self._eliminated_flags.add(index)
            self._eliminated.append(index)

    def _defer(self, index: int, point: Point) -> None:
        if index not in self._deferred_flags:
            self._deferred_flags.add(index)
            self._deferred.append((index, point))

    # ------------------------------------------------------------------
    # ProcessOverlap (ELIMINATE / FORM-NEW-GROUP only)
    # ------------------------------------------------------------------

    def _process_overlap(self, point: Point, overlaps: List[Group]) -> None:
        for group in overlaps:
            touched = group.members_within(point, self.predicate)
            self._strip_overlap(group, touched)

    def _strip_overlap(self, group: Group, touched: List[int]) -> None:
        """Remove the overlapping members and eliminate/defer them."""
        if not touched:
            return
        removed = group.remove_indices(touched)
        for idx, pt in removed:
            self._member_group.pop(idx, None)
            if self.on_overlap is OverlapAction.ELIMINATE:
                self._eliminate(idx)
            else:  # FORM_NEW_GROUP
                self._defer(idx, pt)
        self._refresh_group_index_entry(group)

    def _refresh_group_index_entry(self, group: Group) -> None:
        """Re-register a group in the R-tree after its membership shrank."""
        if self._group_index is None or group.indexed_rect is None:
            return
        self._group_index.delete(group.indexed_rect, group)
        if len(group) == 0:
            group.indexed_rect = None
            return
        group.indexed_rect = group.eps_rect.rect
        self._group_index.insert(group.indexed_rect, group)

    # ------------------------------------------------------------------
    # FORM-NEW-GROUP deferred rounds
    # ------------------------------------------------------------------

    def _resolve_deferred(self) -> None:
        """Recursively group the deferred points (paper: SGB-All on S' until empty)."""
        rounds = 0
        pending = self._deferred
        self._deferred = []
        self._deferred_flags = set()
        while pending:
            rounds += 1
            if rounds > _MAX_RECURSION_ROUNDS:
                raise InvalidParameterError(
                    "FORM-NEW-GROUP recursion failed to converge"
                )
            sub = SGBAllGrouper(
                eps=self.eps,
                metric=self.predicate.metric,
                on_overlap=OverlapAction.FORM_NEW_GROUP,
                strategy=self.strategy,
                seed=self._seed,
                index_factory=self._index_factory,
            )
            for idx, pt in pending:
                sub.add(pt, index=idx)
            # Adopt the sub-round's groups; its own deferred set feeds the next round.
            for group in sub._groups:
                if len(group) > 0:
                    self._groups.append(group)
            pending = sub._deferred
        # Deferred points are never eliminated; they always end in some group.


def sgb_all_grouping(
    points: "PointSet | Sequence[Sequence[float]]",
    eps: float,
    metric: "Metric | str" = Metric.L2,
    on_overlap: "OverlapAction | str" = OverlapAction.JOIN_ANY,
    strategy: "SGBAllStrategy | str" = SGBAllStrategy.INDEX,
    seed: int = 0,
    index_factory: Optional[IndexFactory] = None,
    batch: bool = True,
    planner: bool = True,
) -> GroupingResult:
    """Group ``points`` with the SGB-All operator and return the result.

    Parameters mirror the SQL clause: ``eps`` is the ``WITHIN`` threshold,
    ``metric`` the ``DISTANCE-TO-ALL`` metric (``L2``/``LINF``), ``on_overlap``
    the ``ON-OVERLAP`` action, and ``strategy`` selects the paper's All-Pairs,
    Bounds-Checking, or on-the-fly Index algorithm.  ``batch=False`` forces
    the scalar point-at-a-time reference path; both paths produce identical
    results (enforced by the parity test suite).

    With the default pipeline flags (``batch=True``, no explicit index or
    strategy) the cost planner scores the scalar vs frontier candidates and
    records its advisory choice on ``result.plan``;
    explicitly pinned flags — or ``planner=False`` — bypass the planner so
    benchmarks measure the path they named.
    """
    grouper = SGBAllGrouper(
        eps=eps,
        metric=metric,
        on_overlap=on_overlap,
        strategy=strategy,
        seed=seed,
        index_factory=index_factory,
    )
    plan = None
    if (
        planner
        and batch
        and index_factory is None
        and SGBAllStrategy.parse(strategy) is SGBAllStrategy.INDEX
    ):
        from repro.engine.cost import plan_sgb_all
        from repro.engine.stats import collect_stats

        ps = PointSet.from_any(points)
        plan = plan_sgb_all(collect_stats(ps), grouper.eps)
        points = ps
    if batch and not (plan is not None and plan.mode == "scalar"):
        grouper.add_batch(points)
    elif plan is not None and plan.mode == "scalar":
        grouper.add_all(PointSet.from_any(points).to_tuples())
    else:
        grouper.add_all(points)
    result = grouper.finalize()
    result.plan = plan
    return result
