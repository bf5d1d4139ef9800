"""The planner: turn a parsed statement into a physical operator tree.

Responsibilities:

* resolve FROM sources (base tables and derived tables) against the catalog;
* rewrite uncorrelated ``IN (SELECT ...)`` predicates into membership tests
  against a materialised value set;
* push single-source predicates below the joins and turn equi-join conjuncts
  into hash joins (left-deep, in FROM order);
* plan standard GROUP BY queries onto :class:`HashAggregate` and similarity
  group-by queries onto :class:`SGBAggregate`;
* substitute aggregate calls / group keys in the SELECT list and HAVING
  clause with references to the aggregate operator's output columns;
* add DISTINCT / ORDER BY / LIMIT decorations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.distance import resolve_metric
from repro.core.overlap import OverlapAction
from repro.exceptions import PlanningError
from repro.minidb.catalog import Catalog
from repro.minidb.exec.aggregate import AggregateSpec, HashAggregate
from repro.minidb.exec.operators import (
    Distinct,
    Filter,
    HashJoin,
    Limit,
    NestedLoopJoin,
    PhysicalOperator,
    Project,
    Rename,
    SeqScan,
    Sort,
)
from repro.minidb.exec.join import SimilarityJoin
from repro.minidb.exec.sgb import SGBAggregate
from repro.minidb.expressions import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    FuncCall,
    InList,
    InSet,
    InSubquery,
    IsNull,
    Literal,
    Star,
    UnaryOp,
    compile_expression,
    contains_aggregate,
    expression_name,
    extract_aggregates,
)
from repro.minidb.plan.optimizer import (
    conjoin,
    expression_sources,
    extract_equi_join,
    rewrite_expression,
    split_conjuncts,
)
from repro.minidb.schema import Schema
from repro.minidb.sql.ast import (
    GroupBySpec,
    SGBSpec,
    SelectItem,
    SelectStatement,
    SimilarityJoinClause,
    SubquerySource,
    TableSource,
)
from repro.minidb.types import DataType, infer_type

__all__ = ["Planner", "PlannerSettings"]


@dataclass
class PlannerSettings:
    """Session-level knobs the planner consults.

    ``sgb_strategy`` selects the algorithm used by similarity group-by nodes
    (``"all-pairs"``, ``"bounds-checking"``, or ``"index"``); ``sgb_seed``
    seeds the JOIN-ANY arbitration so plans are reproducible; ``sgb_workers``
    is the session default for the SGB clause's ``WORKERS`` option (``None``
    defers to the ``SGB_WORKERS`` environment variable, then serial);
    ``cache`` is the result-cache knob handed to the similarity operators
    (resolved at execution time by :func:`repro.storage.resolve_cache`, so
    ``SGB_CACHE=off`` always wins); ``optimizer`` enables the cost-driven
    logical rewrite layer (:mod:`repro.minidb.plan.rewrite` — checked by
    ``Database`` after planning).
    """

    sgb_strategy: str = "index"
    sgb_seed: int = 0
    sgb_workers: "Optional[int | str]" = None
    cache: object = None
    optimizer: bool = True
    extra: Dict[str, object] = field(default_factory=dict)


class Planner:
    """Plans SELECT statements against a catalog."""

    def __init__(self, catalog: Catalog, settings: Optional[PlannerSettings] = None) -> None:
        self.catalog = catalog
        self.settings = settings or PlannerSettings()

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def plan_select(self, stmt: SelectStatement) -> PhysicalOperator:
        """Return the physical plan for a SELECT statement."""
        plan = self._plan_from_where(stmt)
        plan = self._plan_aggregation_and_projection(stmt, plan)
        if stmt.distinct:
            plan = Distinct(plan)
        plan = self._plan_order_limit(stmt, plan)
        return plan

    # ------------------------------------------------------------------
    # FROM / WHERE
    # ------------------------------------------------------------------

    def _plan_from_where(self, stmt: SelectStatement) -> PhysicalOperator:
        sources = [self._plan_source(item) for item in stmt.from_items]
        if not sources:
            raise PlanningError("SELECT without FROM is not supported")

        conjuncts = split_conjuncts(stmt.where)
        for condition in stmt.join_conditions:
            conjuncts.extend(split_conjuncts(condition))
        conjuncts = [self._rewrite_in_subqueries(c) for c in conjuncts]

        schemas = [op.schema for op in sources]

        # Push single-source conjuncts down to their source.
        remaining: List[Expression] = []
        for conjunct in conjuncts:
            try:
                refs = expression_sources(conjunct, schemas)
            except PlanningError:
                remaining.append(conjunct)
                continue
            if len(refs) == 1:
                index = next(iter(refs))
                sources[index] = Filter(sources[index], conjunct)
                schemas[index] = sources[index].schema
            else:
                remaining.append(conjunct)

        # Left-deep joins in FROM order, preferring hash joins on equi-conjuncts.
        # A source joined with SIMILARITY JOIN gets the distance-pairing
        # operator instead; its WHERE conjuncts were pushed below it already
        # and the cross-source ones become post-join filters.
        similarity = dict(stmt.similarity_joins)
        plan = sources[0]
        joined = {0}
        for next_index in range(1, len(sources)):
            clause = similarity.get(next_index)
            if clause is not None:
                plan = self._plan_similarity_join(plan, sources[next_index], clause)
            else:
                plan, remaining = self._join_next(
                    plan, joined, sources, schemas, next_index, remaining
                )
            joined.add(next_index)

        # Whatever could not be attached to a join becomes a post-join filter.
        for conjunct in remaining:
            plan = Filter(plan, conjunct)
        return plan

    def _plan_source(self, item) -> PhysicalOperator:
        if isinstance(item, TableSource):
            table = self.catalog.get_table(item.name)
            return SeqScan(table, alias=item.alias)
        if isinstance(item, SubquerySource):
            child = self.plan_select(item.query)
            return Rename(child, qualifier=item.alias)
        raise PlanningError(f"unsupported FROM item {item!r}")

    def _join_next(
        self,
        plan: PhysicalOperator,
        joined: set,
        sources: List[PhysicalOperator],
        schemas: List[Schema],
        next_index: int,
        conjuncts: List[Expression],
    ) -> Tuple[PhysicalOperator, List[Expression]]:
        right = sources[next_index]
        applicable: List[Expression] = []
        deferred: List[Expression] = []
        for conjunct in conjuncts:
            try:
                refs = expression_sources(conjunct, schemas)
            except PlanningError:
                deferred.append(conjunct)
                continue
            if refs and refs <= joined | {next_index} and next_index in refs:
                applicable.append(conjunct)
            else:
                deferred.append(conjunct)

        left_keys: List[Expression] = []
        right_keys: List[Expression] = []
        residual: List[Expression] = []
        for conjunct in applicable:
            equi = extract_equi_join(conjunct, schemas)
            if equi is not None:
                source_a, expr_a, source_b, expr_b = equi
                if source_a in joined and source_b == next_index:
                    left_keys.append(expr_a)
                    right_keys.append(expr_b)
                    continue
                if source_b in joined and source_a == next_index:
                    left_keys.append(expr_b)
                    right_keys.append(expr_a)
                    continue
            residual.append(conjunct)

        if left_keys:
            join: PhysicalOperator = HashJoin(
                plan, right, left_keys, right_keys, residual=conjoin(residual)
            )
        else:
            join = NestedLoopJoin(plan, right, condition=conjoin(residual))
        return join, deferred

    def _plan_similarity_join(
        self,
        plan: PhysicalOperator,
        right: PhysicalOperator,
        clause: SimilarityJoinClause,
    ) -> PhysicalOperator:
        """Validate one SIMILARITY JOIN clause and build its operator.

        Checks: a positive numeric WITHIN threshold or a positive integer
        KNN count, a metric the core supports, coordinate expressions that
        resolve against their own side (left half against everything joined
        so far, right half against the joined source), and a non-negative
        WORKERS count.
        """
        metric = resolve_metric(clause.metric).value
        eps: Optional[float] = None
        k: Optional[int] = None
        if clause.eps is not None:
            eps_value = self._constant_value(clause.eps)
            if (
                not isinstance(eps_value, (int, float))
                or isinstance(eps_value, bool)
                or eps_value <= 0
            ):
                raise PlanningError(
                    f"WITHIN threshold must be a positive numeric constant, "
                    f"got {eps_value!r}"
                )
            eps = float(eps_value)
        else:
            assert clause.k is not None  # the parser guarantees one of the two
            k = self._positive_int(clause.k, "KNN")
        workers: "Optional[int | str]" = self.settings.sgb_workers
        if clause.workers is not None:
            workers_value = self._constant_value(clause.workers)
            if (
                not isinstance(workers_value, int)
                or isinstance(workers_value, bool)
                or workers_value < 0
            ):
                raise PlanningError(
                    f"WORKERS must be a non-negative integer constant, "
                    f"got {workers_value!r}"
                )
            workers = workers_value
        for expr in clause.left_exprs:
            if not self._resolvable(expr, plan.schema):
                raise PlanningError(
                    f"SIMILARITY JOIN coordinate {expr!r} does not resolve "
                    "against the left side; DISTANCE(...) lists the left "
                    "side's coordinates first, then the right side's"
                )
        for expr in clause.right_exprs:
            if not self._resolvable(expr, right.schema):
                raise PlanningError(
                    f"SIMILARITY JOIN coordinate {expr!r} does not resolve "
                    "against the joined source; DISTANCE(...) lists the left "
                    "side's coordinates first, then the right side's"
                )
        return SimilarityJoin(
            plan,
            right,
            clause.left_exprs,
            clause.right_exprs,
            metric=metric,
            eps=eps,
            k=k,
            workers=workers,
            cache=self.settings.cache,
        )

    # ------------------------------------------------------------------
    # IN (SELECT ...) rewriting
    # ------------------------------------------------------------------

    def _rewrite_in_subqueries(self, expr: Expression) -> Expression:
        if isinstance(expr, InSubquery):
            values = self._materialise_subquery_values(expr.subquery)
            return InSet(
                self._rewrite_in_subqueries(expr.expr), frozenset(values), expr.negated
            )
        if isinstance(expr, BinaryOp):
            return BinaryOp(
                expr.op,
                self._rewrite_in_subqueries(expr.left),
                self._rewrite_in_subqueries(expr.right),
            )
        if isinstance(expr, UnaryOp):
            return UnaryOp(expr.op, self._rewrite_in_subqueries(expr.operand))
        if isinstance(expr, (InList, Between, IsNull, FuncCall)):
            return rewrite_expression(expr, {})
        return expr

    def _materialise_subquery_values(self, subquery: SelectStatement) -> List[object]:
        plan = self.plan_select(subquery)
        if len(plan.schema) != 1:
            raise PlanningError("IN subquery must return exactly one column")
        return [row[0] for row in plan.rows()]

    # ------------------------------------------------------------------
    # aggregation & projection
    # ------------------------------------------------------------------

    def _plan_aggregation_and_projection(
        self, stmt: SelectStatement, plan: PhysicalOperator
    ) -> PhysicalOperator:
        items = self._expand_stars(stmt.items, plan.schema)
        has_aggregates = any(contains_aggregate(item.expr) for item in items) or (
            stmt.having is not None and contains_aggregate(stmt.having)
        )
        if stmt.group_by is None and not has_aggregates:
            if len(items) == 1 and isinstance(items[0].expr, Star):
                return plan
            return self._project(items, plan)
        return self._plan_aggregate(stmt, items, plan)

    def _expand_stars(
        self, items: Sequence[SelectItem], schema: Schema
    ) -> List[SelectItem]:
        expanded: List[SelectItem] = []
        for item in items:
            if isinstance(item.expr, Star) and len(items) > 1:
                for column in schema.columns:
                    expanded.append(
                        SelectItem(ColumnRef(column.name, column.qualifier), None)
                    )
            else:
                expanded.append(item)
        return expanded

    def _project(
        self, items: Sequence[SelectItem], plan: PhysicalOperator
    ) -> PhysicalOperator:
        expressions: List[Expression] = []
        names: List[str] = []
        types: List[DataType] = []
        for item in items:
            if isinstance(item.expr, Star):
                for i, column in enumerate(plan.schema.columns):
                    expressions.append(ColumnRef(column.name, column.qualifier))
                    names.append(column.name)
                    types.append(column.dtype)
                continue
            expressions.append(item.expr)
            names.append(item.alias or expression_name(item.expr))
            types.append(self._infer_type(item.expr, plan.schema))
        names = _deduplicate(names)
        return Project(plan, expressions, names, types)

    def _plan_aggregate(
        self,
        stmt: SelectStatement,
        items: Sequence[SelectItem],
        plan: PhysicalOperator,
    ) -> PhysicalOperator:
        group_by = stmt.group_by or GroupBySpec(keys=())
        key_exprs = list(group_by.keys)

        # Collect every aggregate call appearing in the SELECT list or HAVING.
        agg_calls: List[FuncCall] = []
        for item in items:
            extract_aggregates(item.expr, agg_calls)
        if stmt.having is not None:
            extract_aggregates(stmt.having, agg_calls)
        if not agg_calls and group_by.sgb is None and not key_exprs:
            raise PlanningError("GROUP BY query without aggregates or keys")

        key_names = _deduplicate(
            [expression_name(expr) for expr in key_exprs] or []
        )
        agg_specs = [
            AggregateSpec(
                func=call.name,
                args=call.args,
                star=call.star,
                output_name=f"agg_{i}",
            )
            for i, call in enumerate(agg_calls)
        ]

        if group_by.sgb is not None:
            aggregate_op = self._plan_sgb_aggregate(group_by, key_exprs, key_names, agg_specs, plan)
        else:
            key_types = [self._infer_type(e, plan.schema) for e in key_exprs]
            aggregate_op = HashAggregate(
                plan, key_exprs, key_names, agg_specs, group_types=key_types
            )

        # Build the substitution used to rewrite SELECT / HAVING expressions.
        mapping: Dict[Expression, Expression] = {}
        for name, expr in zip(key_names, key_exprs):
            mapping[expr] = ColumnRef(name)
        for spec, call in zip(agg_specs, agg_calls):
            mapping[call] = ColumnRef(spec.output_name)

        result: PhysicalOperator = aggregate_op
        if stmt.having is not None:
            result = Filter(result, rewrite_expression(stmt.having, mapping))

        expressions: List[Expression] = []
        names: List[str] = []
        types: List[DataType] = []
        for item in items:
            rewritten = rewrite_expression(item.expr, mapping)
            expressions.append(rewritten)
            names.append(item.alias or expression_name(item.expr))
            types.append(self._infer_type(rewritten, result.schema))
        names = _deduplicate(names)
        return Project(result, expressions, names, types)

    def _plan_sgb_aggregate(
        self,
        group_by: GroupBySpec,
        key_exprs: List[Expression],
        key_names: List[str],
        agg_specs: List[AggregateSpec],
        plan: PhysicalOperator,
    ) -> PhysicalOperator:
        sgb = group_by.sgb
        assert sgb is not None
        eps_value = self._constant_value(sgb.eps)
        if not isinstance(eps_value, (int, float)) or eps_value <= 0:
            raise PlanningError(
                f"WITHIN threshold must be a positive numeric constant, got {eps_value!r}"
            )
        metric = resolve_metric(sgb.metric).value
        on_overlap = (
            OverlapAction.parse(sgb.on_overlap).value if sgb.on_overlap else None
        )
        workers: "Optional[int | str]" = self.settings.sgb_workers
        if sgb.workers is not None:
            workers_value = self._constant_value(sgb.workers)
            if not isinstance(workers_value, int) or isinstance(workers_value, bool) or workers_value < 0:
                raise PlanningError(
                    f"WORKERS must be a non-negative integer constant, got {workers_value!r}"
                )
            workers = workers_value
        window, slide = self._window_spec(sgb)
        return SGBAggregate(
            plan,
            key_exprs,
            key_names,
            agg_specs,
            kind=sgb.kind,
            metric=metric,
            eps=float(eps_value),
            on_overlap=on_overlap,
            strategy=self.settings.sgb_strategy,
            seed=self.settings.sgb_seed,
            workers=workers,
            window=window,
            slide=slide,
            cache=self.settings.cache,
        )

    def _window_spec(self, sgb: "SGBSpec") -> "tuple[Optional[int], Optional[int]]":
        """Validate the ``WINDOW n [SLIDE m]`` option of a similarity clause."""
        if sgb.window is None:
            if sgb.slide is not None:  # unreachable via the parser; belt-and-braces
                raise PlanningError("SLIDE requires a WINDOW clause")
            return None, None
        if sgb.kind != "any":
            raise PlanningError(
                "WINDOW requires DISTANCE-TO-ANY: the streaming subsystem has no "
                "order-dependent overlap arbitration to replay"
            )
        from repro.core.sgb_all import SGBAllStrategy

        if SGBAllStrategy.parse(self.settings.sgb_strategy) is SGBAllStrategy.ALL_PAIRS:
            # The streaming session always runs the grid/index pipeline;
            # silently substituting it for a requested all-pairs ablation
            # would make strategy measurements through WINDOW meaningless.
            raise PlanningError(
                "WINDOW cannot run under the all-pairs strategy: the streaming "
                "subsystem groups through the grid/index pipeline only"
            )
        window = self._positive_int(sgb.window, "WINDOW")
        slide: Optional[int] = None
        if sgb.slide is not None:
            slide = self._positive_int(sgb.slide, "SLIDE")
            if slide > window:
                raise PlanningError(
                    f"SLIDE ({slide}) must not exceed the WINDOW size ({window})"
                )
            if window % slide != 0:
                raise PlanningError(
                    f"WINDOW size ({window}) must be a multiple of SLIDE ({slide}) "
                    "so expiry always drops whole epochs"
                )
        return window, slide

    def _positive_int(self, expr: Expression, what: str) -> int:
        value = self._constant_value(expr)
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            raise PlanningError(
                f"{what} must be a positive integer constant, got {value!r}"
            )
        return value

    @staticmethod
    def _constant_value(expr: Expression) -> object:
        """Evaluate a constant expression (WITHIN thresholds)."""
        empty_schema = Schema([])
        try:
            return compile_expression(expr, empty_schema)(())
        except Exception as exc:  # noqa: BLE001 - surfaced as a planning error
            raise PlanningError(f"expected a constant expression, got {expr!r}") from exc

    # ------------------------------------------------------------------
    # ORDER BY / LIMIT
    # ------------------------------------------------------------------

    def _plan_order_limit(
        self, stmt: SelectStatement, plan: PhysicalOperator
    ) -> PhysicalOperator:
        if stmt.order_by:
            keys: List[Expression] = []
            ascending: List[bool] = []
            for order in stmt.order_by:
                expr = order.expr
                if isinstance(expr, Literal) and isinstance(expr.value, int):
                    position = expr.value - 1
                    if not 0 <= position < len(plan.schema):
                        raise PlanningError(
                            f"ORDER BY position {expr.value} is out of range"
                        )
                    column = plan.schema.column_at(position)
                    expr = ColumnRef(column.name, column.qualifier)
                keys.append(expr)
                ascending.append(order.ascending)
            plan = self._place_sort(plan, keys, ascending)
        if stmt.limit is not None:
            plan = Limit(plan, stmt.limit)
        return plan

    def _place_sort(
        self,
        plan: PhysicalOperator,
        keys: List[Expression],
        ascending: List[bool],
    ) -> PhysicalOperator:
        """Attach the Sort either above or below the final projection.

        SQL allows ordering by columns that are not part of the SELECT list
        (``SELECT id FROM t ORDER BY x``).  When a key does not resolve
        against the projected schema but does resolve against the
        projection's input, the sort is placed below the projection (which
        preserves row order), otherwise on top.
        """
        adapted = [self._adapt_to_schema(k, plan.schema) for k in keys]
        if all(self._resolvable(k, plan.schema) for k in adapted):
            return Sort(plan, adapted, ascending)
        if isinstance(plan, Project):
            child = plan.child
            child_keys: List[Expression] = []
            for key in keys:
                candidate = self._adapt_to_schema(key, child.schema)
                if self._resolvable(candidate, child.schema):
                    child_keys.append(candidate)
                    continue
                # The key may reference a SELECT alias: substitute the
                # projected expression it names.
                if isinstance(key, ColumnRef) and plan.schema.has_column(key.name):
                    index = plan.schema.index_of(key.name)
                    child_keys.append(plan.expressions[index])
                    continue
                raise PlanningError(f"cannot resolve ORDER BY expression {key!r}")
            sorted_child = Sort(child, child_keys, ascending)
            names = [c.name for c in plan.schema.columns]
            types = [c.dtype for c in plan.schema.columns]
            return Project(sorted_child, plan.expressions, names, types)
        raise PlanningError("cannot resolve ORDER BY expression against the output")

    def _resolvable(self, expr: Expression, schema: Schema) -> bool:
        """Return True if every column reference in ``expr`` resolves in ``schema``."""
        for ref in [e for e in _walk(expr) if isinstance(e, ColumnRef)]:
            if not schema.has_column(ref.name, ref.qualifier):
                return False
        return True

    # ------------------------------------------------------------------
    # misc helpers
    # ------------------------------------------------------------------

    def _adapt_to_schema(self, expr: Expression, schema: Schema) -> Expression:
        """Strip qualifiers that no longer exist after projection.

        ``ORDER BY r1.x`` after a projection that exposes only the unqualified
        output column ``x`` should still resolve; the qualifier is dropped when
        the qualified lookup fails but the bare name resolves.
        """
        if isinstance(expr, ColumnRef):
            if expr.qualifier and not schema.has_column(expr.name, expr.qualifier):
                if schema.has_column(expr.name):
                    return ColumnRef(expr.name)
            return expr
        mapping: Dict[Expression, Expression] = {}
        for ref in [e for e in _walk(expr) if isinstance(e, ColumnRef)]:
            adapted = self._adapt_to_schema(ref, schema)
            if adapted is not ref:
                mapping[ref] = adapted
        return rewrite_expression(expr, mapping) if mapping else expr

    def _infer_type(self, expr: Expression, schema: Schema) -> DataType:
        if isinstance(expr, ColumnRef) and schema.has_column(expr.name, expr.qualifier):
            return schema.column_at(schema.index_of(expr.name, expr.qualifier)).dtype
        if isinstance(expr, Literal):
            return infer_type(expr.value)
        if isinstance(expr, FuncCall) and expr.name.lower() == "count":
            return DataType.INT
        return DataType.FLOAT


def _walk(expr: Expression):
    """Yield every node of an expression tree (pre-order)."""
    yield expr
    for child in expr.children():
        yield from _walk(child)


def _deduplicate(names: Sequence[str]) -> List[str]:
    """Make output column names unique by suffixing duplicates."""
    seen: Dict[str, int] = {}
    out: List[str] = []
    for name in names:
        key = name.lower()
        if key in seen:
            seen[key] += 1
            out.append(f"{name}_{seen[key]}")
        else:
            seen[key] = 0
            out.append(name)
    return out
