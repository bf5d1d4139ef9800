"""The similarity group-by physical operator (SGB-All / SGB-Any).

This is the executor node the paper adds to PostgreSQL's hash-aggregate path:
incoming tuples are buffered, their grouping attributes are streamed into the
:class:`~repro.core.sgb_all.SGBAllGrouper` or
:class:`~repro.core.sgb_any.SGBAnyGrouper`, and once the input is exhausted
(ELIMINATE / FORM-NEW-GROUP can only finalise then) the buffered tuples are
replayed group-by-group through the aggregate accumulators.

Output rows are ``(key centroid values..., aggregate values...)``: the
representative value reported for each grouping attribute is the per-group
mean, since a similarity group spans a range of attribute values rather than
a single one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from repro.core.overlap import OverlapAction
from repro.core.pointset import PointSet
from repro.core.result import GroupingResult, canonicalize_groups
from repro.core.sgb_all import SGBAllGrouper, SGBAllStrategy
from repro.core.sgb_any import SGBAnyGrouper, SGBAnyStrategy
from repro.engine.cost import (
    forced_plan,
    plan_sgb_all,
    plan_sgb_any,
    planner_delegated,
    resolve_workers,
)
from repro.engine.stats import collect_stats
from repro.engine.workers import sgb_any_sharded
from repro.exceptions import CatalogError, ExecutionError, InvalidParameterError
from repro.minidb.exec.aggregate import AggregateSpec, _AggregateEvaluator
from repro.minidb.exec.operators import PhysicalOperator, Row
from repro.minidb.exec.pushdown import (
    columns_eligible,
    pushdown_eligible,
    sgb_any_pushdown,
)
from repro.minidb.expressions import ColumnRef, Expression, compile_expression
from repro.minidb.schema import Column, Schema
from repro.minidb.types import DataType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.cost import PhysicalPlan

__all__ = ["SGBAggregate"]


class SGBAggregate(PhysicalOperator):
    """Similarity group-by aggregation over multi-dimensional grouping attributes."""

    def __init__(
        self,
        child: PhysicalOperator,
        key_exprs: Sequence[Expression],
        key_names: Sequence[str],
        aggregates: Sequence[AggregateSpec],
        kind: str,
        metric: str,
        eps: float,
        on_overlap: Optional[str] = None,
        strategy: str = "index",
        seed: int = 0,
        workers: "Optional[int | str]" = None,
        window: Optional[int] = None,
        slide: Optional[int] = None,
        cache: object = None,
    ) -> None:
        if kind not in ("all", "any"):
            raise ExecutionError(f"unknown SGB kind {kind!r}")
        if len(key_exprs) < 1:
            raise ExecutionError("similarity group-by requires at least one grouping attribute")
        if window is not None and kind != "any":
            raise ExecutionError("WINDOW is only supported for DISTANCE-TO-ANY")
        self.child = child
        self.kind = kind
        self.metric = metric
        self.eps = float(eps)
        self.on_overlap = on_overlap
        self.strategy = strategy
        self.seed = seed
        self.workers = workers
        self.window = window
        self.slide = slide
        self.cache = cache
        self.key_exprs = list(key_exprs)
        self.aggregates = list(aggregates)
        #: The physical plan the cost planner chose at execution time (None
        #: until rows() has run, and on forced WORKERS plans).
        self.last_plan: "Optional[PhysicalPlan]" = None
        self._key_fns = [compile_expression(e, child.schema) for e in key_exprs]
        self._evaluator = _AggregateEvaluator(aggregates, child.schema)
        columns = (
            [Column("window_id", DataType.INT, None)] if window is not None else []
        )
        columns += [Column(name.lower(), DataType.FLOAT, None) for name in key_names]
        columns += [
            Column(spec.output_name.lower(), spec.output_type(), None)
            for spec in self.aggregates
        ]
        self.schema = Schema(columns)

    # ------------------------------------------------------------------

    def _make_grouper(self):
        if self.kind == "all":
            return SGBAllGrouper(
                eps=self.eps,
                metric=self.metric,
                on_overlap=self.on_overlap or OverlapAction.JOIN_ANY,
                strategy=SGBAllStrategy.parse(self.strategy),
                seed=self.seed,
            )
        return SGBAnyGrouper(eps=self.eps, metric=self.metric, strategy=self._any_strategy())

    def _any_strategy(self) -> SGBAnyStrategy:
        """SGB-Any's strategy: everything but ALL_PAIRS runs the INDEX pipeline."""
        if SGBAllStrategy.parse(self.strategy) is SGBAllStrategy.ALL_PAIRS:
            return SGBAnyStrategy.ALL_PAIRS
        return SGBAnyStrategy.INDEX

    def rows(self) -> Iterator[Row]:
        self.last_plan = None
        fused = self._trace_fusable_join()
        if fused is not None:
            yield from self._fused_join_rows(*fused)
            return
        buffered: List[Row] = []
        # Buffer the child's tuples and collect the grouping attributes into
        # one column vector per key expression; the whole batch then flows
        # through the grouper's columnar pipeline in a single add_batch call
        # (the paper's operator likewise consumes the buffered input at once).
        columns: List[List[float]] = [[] for _ in self._key_fns]
        for row in self.child.rows():
            for column, fn in zip(columns, self._key_fns):
                column.append(self._key_value(fn, row))
            buffered.append(row)
        if self.window is not None:
            yield from self._windowed_rows(buffered, columns)
            return
        dims = len(self.key_exprs)
        # The aggregate replay runs over column slices: every aggregate
        # argument is evaluated once per buffered row into a column vector,
        # and each group feeds its members' slice to the accumulators in one
        # bulk step instead of re-dispatching row by row.  SGB-Any never
        # drops a row, so its columns are evaluated up front and shared by
        # the worker-side push-down and the local replay.  With ELIMINATE
        # semantics some buffered rows belong to no group, and aggregate
        # arguments must never be evaluated on them (e.g. 1/v with v=0 on a
        # dropped row), so the eliminating case replays row-at-a-time.
        agg_columns = self._evaluator.value_columns(buffered) if self.kind == "any" else None
        result, pushed = self._group(buffered, columns, agg_columns)
        if agg_columns is None and not result.eliminated:
            agg_columns = self._evaluator.value_columns(buffered)
        for position, members in enumerate(result.groups):
            if not members:
                continue
            if pushed is not None:
                # The workers already accumulated the aggregates; only the
                # key centroids (order-sensitive float sums) are computed here.
                accumulators = pushed[position]
            else:
                accumulators = self._evaluator.new_accumulators()
                if agg_columns is not None:
                    self._evaluator.step_slice(accumulators, agg_columns, members)
                else:
                    for idx in members:
                        self._evaluator.step(accumulators, buffered[idx])
            centroid = [
                sum(columns[d][idx] for idx in members) / len(members)
                for d in range(dims)
            ]
            yield tuple(centroid) + tuple(self._evaluator.finalize(accumulators))

    def _windowed_rows(
        self, buffered: List[Row], columns: List[List[float]]
    ) -> Iterator[Row]:
        """Stream the buffered input through the windowed SGB-Any subsystem.

        The child's tuples are replayed in arrival order as a count-based
        stream (``WINDOW n [SLIDE m]``); each closed window contributes one
        output row per group, tagged with a leading ``window_id`` column.
        Aggregates replay over the buffered rows of the window's live
        members — always through the column-slice fast path, since SGB-Any
        never eliminates rows.
        """
        if not buffered:
            return
        from repro.stream.session import StreamingSGB

        try:
            points = PointSet.from_columns(columns)
            session = StreamingSGB(
                self.eps,
                metric=self.metric,
                window=self.window,
                slide=self.slide,
                workers=self.workers,
            )
            windows = session.ingest(points)
            windows.extend(session.close())
        except InvalidParameterError as exc:
            raise ExecutionError(
                f"invalid similarity grouping attributes: {exc}"
            ) from exc
        dims = len(self.key_exprs)
        agg_columns = self._evaluator.value_columns(buffered)
        for window in windows:
            for local_members in window.result.groups:
                members = [window.indices[i] for i in local_members]
                accumulators = self._evaluator.new_accumulators()
                self._evaluator.step_slice(accumulators, agg_columns, members)
                centroid = [
                    sum(columns[d][idx] for idx in members) / len(members)
                    for d in range(dims)
                ]
                yield (
                    (window.window_id,)
                    + tuple(centroid)
                    + tuple(self._evaluator.finalize(accumulators))
                )

    def _group(
        self,
        buffered: Sequence[object],
        columns: List[List[float]],
        agg_columns: Optional[List[Optional[List[object]]]] = None,
    ) -> "Tuple[GroupingResult, Optional[List[List[object]]]]":
        """Group the buffered batch through the result cache.

        The cache key is resolved once.  A hit returns the cached grouping
        and the caller replays the aggregates locally; a miss runs
        :meth:`_group_uncached` and stores the grouping it produced, also
        when push-down workers produced it.  Returns the grouping and, when
        the workers accumulated the aggregates (``agg_columns`` given and
        push-down taken), one accumulator list per group.
        """
        if not buffered:
            return GroupingResult.empty(), None
        cache, cache_key = self._cache_lookup(columns)
        if cache is not None:
            hit = cache.get_grouping(cache_key)
            if hit is not None:
                return hit, None
        result, pushed = self._group_uncached(columns, agg_columns)
        if cache is not None:
            cache.put_grouping(cache_key, result)
        return result, pushed

    def _cache_lookup(self, columns: List[List[float]]):
        """Resolve the result cache and this batch's grouping key.

        The fingerprint prefers the base table's version-memoised digest
        (:func:`trace_base_fingerprint`; exact only through Rename wrappers)
        and otherwise hashes the buffered column vectors — both produce the
        same content digest for the same data, so SQL queries and direct
        core-API calls over identical batches share cache entries.
        """
        from repro.storage.cache import resolve_cache, sgb_all_key, sgb_any_key

        cache = resolve_cache(self.cache)
        if cache is None:
            return None, None
        from repro.core.fingerprint import fingerprint_columns
        from repro.minidb.exec.statics import trace_base_fingerprint

        from repro.core.pointset import HAVE_NUMPY

        fingerprint = trace_base_fingerprint(self.child, self.key_exprs)
        if fingerprint is None:
            fingerprint = fingerprint_columns(columns)
        backend = "numpy" if HAVE_NUMPY else "python"
        if self.kind == "any":
            strategy = self._any_strategy().value
            key = sgb_any_key(fingerprint, self.eps, self.metric, strategy, backend)
        else:
            key = sgb_all_key(
                fingerprint,
                self.eps,
                self.metric,
                SGBAllStrategy.parse(self.strategy).value,
                str(self.on_overlap or OverlapAction.JOIN_ANY.value),
                self.seed,
                backend,
            )
        return cache, key

    def _group_uncached(
        self,
        columns: List[List[float]],
        agg_columns: Optional[List[Optional[List[object]]]] = None,
    ) -> "Tuple[GroupingResult, Optional[List[List[object]]]]":
        """Plan once, then group serially, sharded, or sharded with push-down.

        Without an explicit worker count (no WORKERS clause and ``SGB_WORKERS``
        unset or ``auto``) SGB-Any delegates the mode choice to the cost
        planner, which scores serial vs sharded execution from the batch's
        statistics.  SGB-Any with a numeric ``WORKERS > 1`` (clause option,
        session default, or the environment variable) is forced through the
        sharded engine; SGB-All's arbitration is order-dependent, so it
        always runs serially regardless.  A sharded batch with
        ``agg_columns`` pushes the aggregates into the workers when
        :meth:`_pushdown_wanted` allows it; a push-down that degrades (fewer
        than two shards, or a broken pool) goes straight to the serial
        grouper and the caller's replay.
        """
        # The sharded engine runs the INDEX pipeline per shard.
        shardable = self.kind == "any" and self._any_strategy() is SGBAnyStrategy.INDEX
        delegated = shardable and planner_delegated(self.workers)
        # Plan a forced count outside the try below: a bad SGB_WORKERS value
        # is a configuration error and must not be re-labelled as a data error.
        plan = None
        if shardable and not delegated:
            plan = forced_plan("sgb_any", len(columns[0]), self.workers)
        try:
            points = PointSet.from_columns(columns)
            if delegated:
                plan = plan_sgb_any(collect_stats(points), self.eps)
                self.last_plan = plan
            grouped = None
            if plan is not None and plan.mode == "sharded":
                if agg_columns is not None and self._pushdown_wanted(
                    agg_columns, delegated, len(points)
                ):
                    grouped = sgb_any_pushdown(
                        points, self.eps, self.metric, plan.workers, self.aggregates,
                        agg_columns, shards=plan.shards,
                    )
                else:
                    grouped = (
                        sgb_any_sharded(
                            points, eps=self.eps, metric=self.metric,
                            workers=plan.workers, shards=plan.shards,
                        ),
                        None,
                    )
            if grouped is None:
                grouper = self._make_grouper()
                grouper.add_batch(points)
        except InvalidParameterError as exc:
            # Surface core-layer validation (e.g. NaN grouping values) as
            # an executor error so engine callers see a DatabaseError.
            raise ExecutionError(
                f"invalid similarity grouping attributes: {exc}"
            ) from exc
        result, accumulators = grouped or (grouper.finalize(), None)
        result.plan = plan if delegated else None
        return result, accumulators

    def _pushdown_wanted(
        self, agg_columns: List[Optional[List[object]]], delegated: bool, rows: int
    ) -> bool:
        """Whether worker-side aggregate states may replace the replay.

        Only when merging the partial states provably reproduces the
        coordinator replay (see :mod:`repro.minidb.exec.pushdown`): every
        aggregate is mergeable, and additive ones see only int values.
        Under a forced numeric WORKERS count every such list qualifies, and
        under cost-planner delegation so do ``COUNT(*)``-style star lists —
        no value columns are shipped, so the win is unconditional.  Other
        delegated lists are costed: the replay walks every input row once
        per aggregate on the coordinator (``c_point`` each), push-down ships
        one value column per non-star aggregate to the pool (``c_ship`` per
        cell), and the net win must clear the fixed partial-state merge
        overhead (``c_task``), so small inputs keep the reference replay.
        The input cardinality is the statistics derived through the child
        plan — a filtered or joined input is priced at its propagated count
        — floored at the buffered row count.
        """
        if not pushdown_eligible(self.aggregates):
            return False
        if delegated and not all(spec.star for spec in self.aggregates):
            from repro.engine import cost
            from repro.minidb.exec.statics import trace_point_stats

            stats = trace_point_stats(self.child, self.key_exprs, len(self.key_exprs))
            rows = max(rows, stats.count)
            profile = cost.PROFILE
            value_columns = sum(1 for spec in self.aggregates if not spec.star)
            ship_cost = profile.c_ship * rows * value_columns
            replay_cost = profile.c_point * rows * len(self.aggregates)
            if replay_cost - ship_cost <= profile.c_task:
                return False
        return columns_eligible(self.aggregates, agg_columns)

    # ------------------------------------------------------------------
    # fused SIMILARITY JOIN -> SGB route
    # ------------------------------------------------------------------

    def _trace_fusable_join(self):
        """Detect a join→SGB pipeline whose grouping keys are one side's columns.

        Walks the child chain through column-preserving wrappers (``Rename``
        and ``Project`` whose traced outputs are bare column references) down
        to a :class:`SimilarityJoin`, and resolves every grouping key to a
        column position of exactly one join side.  Returns ``(join, wrappers,
        side, key_positions)``, or ``None`` when the pipeline does not have
        that shape (the buffering path then runs unchanged).
        """
        from repro.minidb.exec.join import SimilarityJoin
        from repro.minidb.exec.operators import Project, Rename

        if self.window is not None or self.kind != "any":
            return None
        wrappers: List[PhysicalOperator] = []
        node = self.child
        while isinstance(node, (Rename, Project)):
            wrappers.append(node)
            node = node.child
        if not isinstance(node, SimilarityJoin):
            return None
        join = node
        n_left = len(join.left.schema.columns)
        sides: List[str] = []
        positions: List[int] = []
        for expr in self.key_exprs:
            position = self._trace_key_position(expr, wrappers, join)
            if position is None:
                return None
            if position < n_left:
                sides.append("left")
                positions.append(position)
            else:
                sides.append("right")
                positions.append(position - n_left)
        if len(set(sides)) != 1:
            # Keys mixing both sides vary per pair, not per matched row; the
            # distinct-side rewrite does not apply.
            return None
        return join, wrappers, sides[0], positions

    def _trace_key_position(
        self, expr: Expression, wrappers: List[PhysicalOperator], join
    ) -> Optional[int]:
        """Resolve a grouping key to its position in the join's output row."""
        from repro.minidb.exec.operators import Project

        schema = self.child.schema
        for wrapper in [*wrappers, join]:
            if not isinstance(expr, ColumnRef):
                return None
            try:
                position = schema.index_of(expr.name, expr.qualifier)
            except CatalogError:
                return None
            if wrapper is join:
                return position
            if isinstance(wrapper, Project):
                expr = wrapper.expressions[position]
                schema = wrapper.child.schema
            else:  # Rename: positional passthrough
                expr = ColumnRef(wrapper.child.schema.columns[position].name)
                schema = wrapper.child.schema
        return None

    def _fused_join_rows(
        self,
        join,
        wrappers: List[PhysicalOperator],
        side: str,
        key_positions: List[int],
    ) -> Iterator[Row]:
        """Execute the join→SGB pipeline without grouping the pair relation.

        Every grouping key is a matched-side column, so all pair rows
        carrying the same matched row collapse to one grouping point at
        distance 0 — and with a strictly positive ``WITHIN`` they always land
        in one connected component.  The SGB therefore runs over the
        *distinct* matched rows only, and the components expand back over the
        pair positions; result rows are bit-identical to grouping the
        materialised pair relation (same canonical order, same centroid and
        aggregate addition orders).
        """
        from repro.minidb.exec.operators import Project

        pairs, left_rows, right_rows = join.materialize()
        if not pairs:
            return
        side_rows = left_rows if side == "left" else right_rows
        matched = (
            [i for i, _ in pairs] if side == "left" else [j for _, j in pairs]
        )
        positions_by_row: dict[int, List[int]] = {}
        for position, side_index in enumerate(matched):
            positions_by_row.setdefault(side_index, []).append(position)
        distinct = sorted(positions_by_row)
        key_columns: List[List[float]] = [[] for _ in key_positions]
        for side_index in distinct:
            row = side_rows[side_index]
            for column, key_position in zip(key_columns, key_positions):
                column.append(
                    self._key_value(lambda r, p=key_position: r[p], row)
                )
        compact, _ = self._group(distinct, key_columns)
        groups = canonicalize_groups(
            sorted(
                position
                for member in members
                for position in positions_by_row[distinct[member]]
            )
            for members in compact.groups
        )

        # Aggregates that consume values still need the wrapper-output pair
        # rows; star-only aggregate lists skip that materialisation entirely.
        if any(self._evaluator._arg_fns):
            pair_rows = []
            for i, j in pairs:
                row = left_rows[i] + right_rows[j]
                for wrapper in reversed(wrappers):
                    if isinstance(wrapper, Project):
                        row = tuple(fn(row) for fn in wrapper._compiled)
                pair_rows.append(row)
            agg_columns = self._evaluator.value_columns(pair_rows)
        else:
            agg_columns = [None] * len(self.aggregates)

        rank = {side_index: pos for pos, side_index in enumerate(distinct)}
        dims = len(key_positions)
        for members in groups:
            accumulators = self._evaluator.new_accumulators()
            self._evaluator.step_slice(accumulators, agg_columns, members)
            centroid = [
                sum(key_columns[d][rank[matched[idx]]] for idx in members)
                / len(members)
                for d in range(dims)
            ]
            yield tuple(centroid) + tuple(self._evaluator.finalize(accumulators))

    @staticmethod
    def _key_value(fn, row: Row) -> float:
        value = fn(row)
        if value is None:
            raise ExecutionError("similarity grouping attributes must not be NULL")
        try:
            return float(value)
        except (TypeError, ValueError) as exc:
            raise ExecutionError(
                f"similarity grouping attribute value {value!r} is not numeric"
            ) from exc

    # ------------------------------------------------------------------
    # EXPLAIN support
    # ------------------------------------------------------------------

    def _static_plan(self) -> "Optional[PhysicalPlan]":
        """The plan EXPLAIN shows, mirroring what execution would choose.

        Statistics come from :func:`trace_point_stats`: the base table's
        cached summary when every grouping key traces to one of its columns,
        a synthetic cardinality-only summary otherwise.
        """
        from repro.minidb.exec.statics import trace_point_stats

        if self.window is not None or not planner_delegated(self.workers):
            return None
        stats = trace_point_stats(self.child, self.key_exprs, len(self.key_exprs))
        if self.kind == "all":
            return plan_sgb_all(stats, self.eps)
        if self._any_strategy() is SGBAnyStrategy.ALL_PAIRS:
            return None
        return plan_sgb_any(stats, self.eps)

    def annotations(self) -> List[str]:
        if self.last_plan is not None:
            return [self.last_plan.describe()]
        if self.window is not None:
            slide = self.slide if self.slide is not None else self.window
            return [f"mode=streaming window={self.window} slide={slide}"]
        if not planner_delegated(self.workers):
            count = resolve_workers(self.workers)
            if self.kind == "any" and count > 1:
                return [f"mode=sharded workers={count} (forced by WORKERS)"]
            return [f"mode=serial workers={count} (forced by WORKERS)"]
        plan = self._static_plan()
        if plan is not None:
            return [plan.describe()]
        return []

    def estimated_rows(self) -> Optional[int]:
        plan = self.last_plan if self.last_plan is not None else self._static_plan()
        return plan.est_rows if plan is not None else None

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def describe(self) -> str:
        clause = "DISTANCE-TO-ALL" if self.kind == "all" else "DISTANCE-TO-ANY"
        overlap = f" ON-OVERLAP {self.on_overlap}" if self.kind == "all" else ""
        workers = f" WORKERS {self.workers}" if self.workers is not None else ""
        window = ""
        if self.window is not None:
            window = f" WINDOW {self.window}"
            if self.slide is not None:
                window += f" SLIDE {self.slide}"
        keys = ", ".join(str(e) for e in self.key_exprs)
        return (
            f"SGBAggregate({clause} {self.metric} WITHIN {self.eps}{overlap}{workers}"
            f"{window}; keys=[{keys}]; strategy={self.strategy})"
        )
