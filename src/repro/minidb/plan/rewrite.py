"""Cost-driven logical plan rewrites (filter placement, join reordering).

The planner (:mod:`repro.minidb.plan.planner`) builds the plan exactly as the
SQL arrived: left-deep joins in FROM order, filters where the WHERE clause put
them.  This module runs *between* that logical planning step and execution and
reshapes the tree when the cost model says a different shape is cheaper:

**Rule A — filter placement.**  Each conjunct of a ``Filter`` sinks as deep as
it soundly can: through ``Rename`` and bare-column ``Project`` wrappers (the
derived-table shells), into the matching input of hash and nested-loop joins
(always a win — fewer rows probed, never more), and into the inputs of an
eps similarity join *when* :func:`repro.engine.cost.filter_placement_gain`
prices the early filter pass cheaper than the larger join (otherwise the
conjunct is deliberately deferred above the join and the trace says so).
kNN joins only accept left-side pushes — filtering the right side would
change each row's neighbour set, and SGB subqueries accept none — every SGB
output column is a group centroid or aggregate, so any predicate on them
must see the finished groups.

**Rule B — join reordering.**  A spine of hash joins, nested-loop joins and
eps similarity joins over three or more leaves is re-sequenced greedily by
estimated intermediate cardinality (histogram-overlap selectivity from the
derived :class:`~repro.engine.stats.PointStats`, eps-pair estimates for
similarity joins).  Bit-identity with the original left-deep plan is restored
mechanically: every leaf is tagged with its row index (:class:`TagRows`), the
reordered join runs, and a final :class:`RestoreOrder` sorts on the original
leaves' row ids — the exact enumeration order of the original plan, because
all three join operators emit pairs lexicographically in (left position,
right position) — and projects the tags away.  A reordering is applied only
when its estimated intermediate volume undercuts the original order by a
clear margin, so plans never churn on estimation noise.

Every applied (or deliberately skipped) rewrite is recorded as one trace
string; ``EXPLAIN`` prints the trace and ``result.rewrites`` carries it to
callers, including over HTTP.  ``Database(optimizer=False)`` bypasses this
module entirely — the paper-figure runners pin the un-rewritten reference
path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.exceptions import PlanningError
from repro.minidb.exec.aggregate import HashAggregate
from repro.minidb.exec.join import SimilarityJoin
from repro.minidb.exec.operators import (
    Distinct,
    Filter,
    HashJoin,
    Limit,
    NestedLoopJoin,
    PhysicalOperator,
    Project,
    Rename,
    RestoreOrder,
    SeqScan,
    Sort,
    TagRows,
)
from repro.minidb.exec.sgb import SGBAggregate
from repro.minidb.exec.statics import (
    estimated_subtree_rows,
    predicate_selectivity,
    trace_point_stats,
    trace_relation_stats,
)
from repro.minidb.expressions import (
    Between,
    BinaryOp,
    ColumnRef,
    Expression,
    IsNull,
    Literal,
    UnaryOp,
)
from repro.minidb.plan.optimizer import (
    conjoin,
    collect_column_refs,
    expression_sources,
    extract_equi_join,
    rewrite_expression,
    split_conjuncts,
)

__all__ = ["optimize_plan"]

#: A reordering must beat the original order's estimated intermediate
#: volume by this factor before it is applied (the rid tag/sort machinery
#: is cheap but not free, and estimates are noisy).
_REORDER_MARGIN = 0.9

#: Selectivity assumed for pool conjuncts the histograms cannot price.
_DEFAULT_JOIN_SELECTIVITY = 0.25

#: Cardinality assumed for a leaf without any estimate.
_DEFAULT_LEAF_ROWS = 1000


def optimize_plan(
    plan: PhysicalOperator,
) -> Tuple[PhysicalOperator, List[str]]:
    """Apply the rewrite rules; return the new plan and its rule trace.

    The trace lists one human-readable line per applied rewrite (and per
    deliberate deferral that the cost model decided); an empty trace means
    the plan came back untouched.
    """
    trace: List[str] = []
    plan = _place_filters(plan, trace)
    plan = _reorder_joins(plan, trace)
    return plan, trace


# ---------------------------------------------------------------------------
# generic tree rebuilding
# ---------------------------------------------------------------------------


def _with_children(
    node: PhysicalOperator, children: Sequence[PhysicalOperator]
) -> PhysicalOperator:
    """Rebuild ``node`` over new children (identity when nothing changed).

    Types this function cannot rebuild are left untouched — their subtrees
    are opaque to the rewrite rules.
    """
    old = node.children()
    if len(old) == len(children) and all(a is b for a, b in zip(old, children)):
        return node
    if isinstance(node, Filter):
        return Filter(children[0], node.predicate)
    if isinstance(node, Rename):
        return Rename(
            children[0], node.qualifier, [c.name for c in node.schema.columns]
        )
    if isinstance(node, Project):
        return Project(
            children[0],
            node.expressions,
            [c.name for c in node.schema.columns],
            [c.dtype for c in node.schema.columns],
        )
    if isinstance(node, HashJoin):
        return HashJoin(
            children[0],
            children[1],
            node.left_keys,
            node.right_keys,
            residual=node.residual,
        )
    if isinstance(node, NestedLoopJoin):
        return NestedLoopJoin(children[0], children[1], condition=node.condition)
    if isinstance(node, SimilarityJoin):
        return SimilarityJoin(
            children[0],
            children[1],
            node.left_exprs,
            node.right_exprs,
            metric=node.metric,
            eps=node.eps,
            k=node.k,
            workers=node.workers,
            cache=node.cache,
        )
    if isinstance(node, Sort):
        return Sort(children[0], node.keys, node.ascending)
    if isinstance(node, Limit):
        return Limit(children[0], node.limit)
    if isinstance(node, Distinct):
        return Distinct(children[0])
    if isinstance(node, TagRows):
        return TagRows(children[0], node.rid_name)
    if isinstance(node, RestoreOrder):
        return RestoreOrder(children[0], node.rid_positions, node.output_positions)
    if isinstance(node, SGBAggregate):
        offset = 1 if node.window is not None else 0
        key_names = [
            c.name
            for c in node.schema.columns[offset : offset + len(node.key_exprs)]
        ]
        return SGBAggregate(
            children[0],
            node.key_exprs,
            key_names,
            node.aggregates,
            kind=node.kind,
            metric=node.metric,
            eps=node.eps,
            on_overlap=node.on_overlap,
            strategy=node.strategy,
            seed=node.seed,
            workers=node.workers,
            window=node.window,
            slide=node.slide,
            cache=node.cache,
        )
    if isinstance(node, HashAggregate):
        n_keys = len(node.group_exprs)
        return HashAggregate(
            children[0],
            node.group_exprs,
            [c.name for c in node.schema.columns[:n_keys]],
            node.aggregates,
            group_types=[c.dtype for c in node.schema.columns[:n_keys]],
        )
    return node


def _expr_text(expr: Expression) -> str:
    """Compact rendering of an expression for trace lines."""
    if isinstance(expr, ColumnRef):
        return expr.display()
    if isinstance(expr, Literal):
        return repr(expr.value)
    if isinstance(expr, BinaryOp):
        return f"{_expr_text(expr.left)} {expr.op} {_expr_text(expr.right)}"
    if isinstance(expr, UnaryOp):
        return f"{expr.op} {_expr_text(expr.operand)}"
    if isinstance(expr, Between):
        word = "NOT BETWEEN" if expr.negated else "BETWEEN"
        return (
            f"{_expr_text(expr.expr)} {word} "
            f"{_expr_text(expr.low)} AND {_expr_text(expr.high)}"
        )
    if isinstance(expr, IsNull):
        word = "IS NOT NULL" if expr.negated else "IS NULL"
        return f"{_expr_text(expr.expr)} {word}"
    return str(expr)


# ---------------------------------------------------------------------------
# Rule A: filter placement
# ---------------------------------------------------------------------------


def _place_filters(node: PhysicalOperator, trace: List[str]) -> PhysicalOperator:
    """Bottom-up pass sinking Filter conjuncts toward the leaves."""
    node = _with_children(
        node, [_place_filters(child, trace) for child in node.children()]
    )
    if not isinstance(node, Filter):
        return node
    child = node.child
    remaining: List[Expression] = []
    moved = False
    for conjunct in split_conjuncts(node.predicate):
        sunk = _sink_conjunct(conjunct, child, trace)
        if sunk is None:
            remaining.append(conjunct)
            continue
        child, landing = sunk
        moved = True
        trace.append(f"filter-pushdown: ({_expr_text(conjunct)}) -> {landing}")
    if not moved:
        return node
    predicate = conjoin(remaining)
    return Filter(child, predicate) if predicate is not None else child


def _sink_conjunct(
    conjunct: Expression, node: PhysicalOperator, trace: List[str]
) -> Optional[Tuple[PhysicalOperator, str]]:
    """Place ``conjunct`` somewhere inside ``node``'s subtree, if sound.

    Returns ``(new_subtree, landing_description)``; ``None`` means the
    conjunct must stay above ``node``.
    """
    if isinstance(node, Filter):
        below = _sink_conjunct(conjunct, node.child, trace)
        if below is None:
            return None
        inner, landing = below
        return Filter(inner, node.predicate), landing
    if isinstance(node, Rename):
        remapped = _remap_through_rename(conjunct, node)
        if remapped is None:
            return None
        below = _sink_conjunct(remapped, node.child, trace)
        if below is None:
            inner: PhysicalOperator = Filter(node.child, remapped)
            landing = f"below {node.describe()}"
        else:
            inner, landing = below
        rebuilt = Rename(
            inner, node.qualifier, [c.name for c in node.schema.columns]
        )
        return rebuilt, landing
    if isinstance(node, Project):
        remapped = _remap_through_project(conjunct, node)
        if remapped is None:
            return None
        below = _sink_conjunct(remapped, node.child, trace)
        if below is None:
            inner = Filter(node.child, remapped)
            landing = f"below {node.describe()}"
        else:
            inner, landing = below
        rebuilt = Project(
            inner,
            node.expressions,
            [c.name for c in node.schema.columns],
            [c.dtype for c in node.schema.columns],
        )
        return rebuilt, landing
    if isinstance(node, (HashJoin, NestedLoopJoin)):
        side = _join_side(conjunct, node)
        if side is None:
            return None
        which, operand = side
        below = _sink_conjunct(conjunct, operand, trace)
        if below is None:
            new_operand: PhysicalOperator = Filter(operand, conjunct)
            landing = f"into {which} input of {type(node).__name__}"
        else:
            new_operand, landing = below
        if which == "left":
            rebuilt = _with_children(node, [new_operand, node.right])
        else:
            rebuilt = _with_children(node, [node.left, new_operand])
        return rebuilt, landing
    if isinstance(node, SimilarityJoin):
        return _sink_into_similarity_join(conjunct, node, trace)
    return None


def _remap_through_rename(
    conjunct: Expression, node: Rename
) -> Optional[Expression]:
    """Re-express a conjunct over the Rename's child columns."""
    mapping: Dict[Expression, Expression] = {}
    child_schema = node.child.schema
    for ref in collect_column_refs(conjunct):
        if not node.schema.has_column(ref.name, ref.qualifier):
            return None
        position = node.schema.index_of(ref.name, ref.qualifier)
        column = child_schema.columns[position]
        mapping[ref] = ColumnRef(column.name, column.qualifier)
    return rewrite_expression(conjunct, mapping)


def _remap_through_project(
    conjunct: Expression, node: Project
) -> Optional[Expression]:
    """Re-express a conjunct over the Project's input, when every referenced
    output column is a bare pass-through of an input column."""
    mapping: Dict[Expression, Expression] = {}
    for ref in collect_column_refs(conjunct):
        if not node.schema.has_column(ref.name, ref.qualifier):
            return None
        source = node.expressions[node.schema.index_of(ref.name, ref.qualifier)]
        if not isinstance(source, ColumnRef):
            return None
        mapping[ref] = source
    return rewrite_expression(conjunct, mapping)


def _join_side(
    conjunct: Expression, node: PhysicalOperator
) -> Optional[Tuple[str, PhysicalOperator]]:
    """The single join input a conjunct's references resolve into, if any."""
    n_left = len(node.left.schema)
    positions = []
    for ref in collect_column_refs(conjunct):
        if not node.schema.has_column(ref.name, ref.qualifier):
            return None
        positions.append(node.schema.index_of(ref.name, ref.qualifier))
    if all(p < n_left for p in positions):
        return "left", node.left
    if positions and all(p >= n_left for p in positions):
        return "right", node.right
    return None


def _sink_into_similarity_join(
    conjunct: Expression, node: SimilarityJoin, trace: List[str]
) -> Optional[Tuple[PhysicalOperator, str]]:
    side = _join_side(conjunct, node)
    if side is None:
        return None
    which, operand = side
    if node.k is not None:
        if which == "right":
            # Filtering the right side of a kNN join changes every left
            # row's neighbour set — never sound.
            return None
        # Left-side pushes are always profitable for kNN: every removed
        # left row is one index probe saved, and no other row's neighbours
        # depend on it.
        landing = "into left input of kNN join"
    else:
        from repro.engine.cost import filter_placement_gain

        dims = len(node.left_exprs)
        side_exprs = node.left_exprs if which == "left" else node.right_exprs
        other_exprs = node.right_exprs if which == "left" else node.left_exprs
        other_node = node.right if which == "left" else node.left
        side_stats = trace_point_stats(operand, side_exprs, dims)
        other_stats = trace_point_stats(other_node, other_exprs, dims)
        selectivity = predicate_selectivity(operand, conjunct)
        gain = filter_placement_gain(
            side_stats, other_stats, node.eps, selectivity
        )
        if gain <= 0.0:
            trace.append(
                f"filter-deferral: ({_expr_text(conjunct)}) kept above "
                f"eps-join (est gain {gain:.6f}s)"
            )
            return None
        landing = (
            f"into {which} input of eps-join (est gain {gain:.6f}s, "
            f"selectivity {selectivity:.3f})"
        )
    below = _sink_conjunct(conjunct, operand, trace)
    new_operand = below[0] if below is not None else Filter(operand, conjunct)
    if which == "left":
        rebuilt = _with_children(node, [new_operand, node.right])
    else:
        rebuilt = _with_children(node, [node.left, new_operand])
    return rebuilt, landing


# ---------------------------------------------------------------------------
# Rule B: join reordering
# ---------------------------------------------------------------------------


def _is_spine_join(node: PhysicalOperator) -> bool:
    """Joins the reorderer may decompose.

    kNN joins are excluded: their output is ordered by distance rank, not by
    right-row position, so a rid sort cannot restore it — a kNN subtree is
    an opaque leaf instead.
    """
    if isinstance(node, (HashJoin, NestedLoopJoin)):
        return True
    return isinstance(node, SimilarityJoin) and node.eps is not None


def _reorder_joins(node: PhysicalOperator, trace: List[str]) -> PhysicalOperator:
    if _is_spine_join(node):
        reordered = _try_reorder_spine(node, trace)
        if reordered is not None:
            return reordered
    return _with_children(
        node, [_reorder_joins(child, trace) for child in node.children()]
    )


def _decompose_spine(
    node: PhysicalOperator,
    leaves: List[PhysicalOperator],
    pool: List[Expression],
    sims: Dict[int, SimilarityJoin],
) -> None:
    """Flatten a left-deep join spine into leaves + conjunct pool + sim clauses."""
    if isinstance(node, HashJoin):
        _decompose_spine(node.left, leaves, pool, sims)
        leaves.append(node.right)
        for left_key, right_key in zip(node.left_keys, node.right_keys):
            pool.append(BinaryOp("=", left_key, right_key))
        if node.residual is not None:
            pool.extend(split_conjuncts(node.residual))
        return
    if isinstance(node, NestedLoopJoin):
        _decompose_spine(node.left, leaves, pool, sims)
        leaves.append(node.right)
        if node.condition is not None:
            pool.extend(split_conjuncts(node.condition))
        return
    if isinstance(node, SimilarityJoin) and node.eps is not None:
        _decompose_spine(node.left, leaves, pool, sims)
        leaves.append(node.right)
        sims[len(leaves) - 1] = node
        return
    leaves.append(node)


def _leaf_label(node: PhysicalOperator, index: int) -> str:
    """A short name for a join leaf (alias of the scan it wraps)."""
    current: Optional[PhysicalOperator] = node
    while current is not None:
        if isinstance(current, SeqScan):
            return current.alias
        if isinstance(current, Rename) and current.qualifier:
            return current.qualifier
        children = current.children()
        current = children[0] if children else None
    return f"leaf{index}"


def _pool_selectivity(
    conjunct: Expression,
    leaves: List[PhysicalOperator],
    leaf_schemas: List,
) -> float:
    """Estimated selectivity of one pool conjunct over the cross product."""
    equi = extract_equi_join(conjunct, leaf_schemas)
    if equi is not None:
        source_a, expr_a, source_b, expr_b = equi
        if isinstance(expr_a, ColumnRef) and isinstance(expr_b, ColumnRef):
            stats_a = trace_relation_stats(leaves[source_a], [expr_a])
            stats_b = trace_relation_stats(leaves[source_b], [expr_b])
            if stats_a is not None and stats_b is not None:
                if stats_a.count == 0 or stats_b.count == 0:
                    return 0.0
                return max(
                    0.0, min(1.0, stats_a.cross_pair_fraction(stats_b, 0, 0.0))
                )
        return _DEFAULT_JOIN_SELECTIVITY
    if not collect_column_refs(conjunct):
        return 1.0
    return _DEFAULT_JOIN_SELECTIVITY


def _sim_selectivity(node: SimilarityJoin) -> float:
    """Per-pair selectivity of one eps similarity clause."""
    dims = len(node.left_exprs)
    left_stats = trace_point_stats(node.left, node.left_exprs, dims)
    right_stats = trace_point_stats(node.right, node.right_exprs, dims)
    n_pairs = max(1, left_stats.count * right_stats.count)
    est = left_stats.estimated_join_pairs(right_stats, node.eps)
    return max(0.0, min(1.0, est / n_pairs))


def _order_cost(
    order: List[int],
    sizes: List[float],
    pool_refs: List[Set[int]],
    pool_sel: List[float],
    sims: Dict[int, SimilarityJoin],
    sim_prereqs: Dict[int, Set[int]],
    sim_sel: Dict[int, float],
) -> Optional[float]:
    """Total estimated intermediate row volume of one join order.

    ``None`` when the order is infeasible (a similarity right side entering
    before the leaves its left coordinates reference).
    """
    chosen: Set[int] = set()
    placed: Set[int] = set()
    current = 0.0
    total = 0.0
    for step, index in enumerate(order):
        if index in sims and not sim_prereqs[index] <= chosen:
            return None
        if step == 0:
            if index in sims:
                return None
            current = sizes[index]
        else:
            current = current * sizes[index]
            if index in sims:
                current *= sim_sel[index]
            for c, refs in enumerate(pool_refs):
                if c in placed:
                    continue
                if refs <= chosen | {index} and index in refs:
                    current *= pool_sel[c]
                    placed.add(c)
        chosen.add(index)
        total += current
    return total


def _greedy_order(
    sizes: List[float],
    pool_refs: List[Set[int]],
    pool_sel: List[float],
    sims: Dict[int, SimilarityJoin],
    sim_prereqs: Dict[int, Set[int]],
    sim_sel: Dict[int, float],
) -> Optional[List[int]]:
    """Greedily sequence the leaves by estimated intermediate cardinality."""
    m = len(sizes)
    chosen: List[int] = []
    chosen_set: Set[int] = set()
    placed: Set[int] = set()
    current = 0.0
    while len(chosen) < m:
        best: Optional[Tuple[float, int, Set[int]]] = None
        for index in range(m):
            if index in chosen_set:
                continue
            if index in sims:
                if not chosen:
                    continue
                if not sim_prereqs[index] <= chosen_set:
                    continue
            if not chosen:
                estimate = sizes[index]
                newly: Set[int] = set()
            else:
                estimate = current * sizes[index]
                if index in sims:
                    estimate *= sim_sel[index]
                newly = set()
                for c, refs in enumerate(pool_refs):
                    if c in placed:
                        continue
                    if refs <= chosen_set | {index} and index in refs:
                        estimate *= pool_sel[c]
                        newly.add(c)
            if best is None or (estimate, index) < (best[0], best[1]):
                best = (estimate, index, newly)
        if best is None:
            return None
        current = best[0]
        chosen.append(best[1])
        chosen_set.add(best[1])
        placed |= best[2]
    return chosen


def _try_reorder_spine(
    node: PhysicalOperator, trace: List[str]
) -> Optional[PhysicalOperator]:
    """Reorder one join spine, or ``None`` to leave it to generic recursion."""
    leaves: List[PhysicalOperator] = []
    pool: List[Expression] = []
    sims: Dict[int, SimilarityJoin] = {}
    _decompose_spine(node, leaves, pool, sims)
    m = len(leaves)
    if m < 3:
        return None
    leaf_schemas = [leaf.schema for leaf in leaves]
    try:
        pool_refs = [expression_sources(c, leaf_schemas) for c in pool]
        sim_prereqs = {
            index: set().union(
                *(
                    expression_sources(e, leaf_schemas)
                    for e in sim.left_exprs
                )
            )
            for index, sim in sims.items()
        }
    except PlanningError:
        return None
    if any(index in refs for index, refs in sim_prereqs.items()):
        return None  # a sim clause referencing its own right side: bail out
    pool_sel = [_pool_selectivity(c, leaves, leaf_schemas) for c in pool]
    sim_sel = {index: _sim_selectivity(sim) for index, sim in sims.items()}
    sizes = [
        float(estimated_subtree_rows(leaf) or _DEFAULT_LEAF_ROWS)
        for leaf in leaves
    ]
    identity = list(range(m))
    original_cost = _order_cost(
        identity, sizes, pool_refs, pool_sel, sims, sim_prereqs, sim_sel
    )
    order = _greedy_order(sizes, pool_refs, pool_sel, sims, sim_prereqs, sim_sel)
    if order is None or order == identity or original_cost is None:
        return None
    new_cost = _order_cost(
        order, sizes, pool_refs, pool_sel, sims, sim_prereqs, sim_sel
    )
    if new_cost is None or new_cost > original_cost * _REORDER_MARGIN:
        return None
    # Optimize inside each leaf subtree before rebuilding the spine.
    leaves = [_reorder_joins(leaf, trace) for leaf in leaves]
    rebuilt = _rebuild_spine(leaves, order, pool, pool_refs, sims)
    labels = [_leaf_label(leaf, i) for i, leaf in enumerate(leaves)]
    trace.append(
        "join-reorder: ["
        + ", ".join(labels)
        + "] -> ["
        + ", ".join(labels[i] for i in order)
        + f"] (est volume {original_cost:.0f} -> {new_cost:.0f} rows)"
    )
    return rebuilt


def _rebuild_spine(
    leaves: List[PhysicalOperator],
    order: List[int],
    pool: List[Expression],
    pool_refs: List[Set[int]],
    sims: Dict[int, SimilarityJoin],
) -> PhysicalOperator:
    """Left-deep join over ``leaves`` in ``order``, rid-tagged and re-sorted.

    Each leaf is tagged with its row index under the unique name ``#ridI``
    (``I`` = original FROM position); the trailing :class:`RestoreOrder`
    sorts on the rids in original significance order and projects the
    original concatenated column layout back out.
    """
    leaf_schemas = [leaf.schema for leaf in leaves]
    tagged = [
        TagRows(leaf, f"#rid{index}") for index, leaf in enumerate(leaves)
    ]
    plan: PhysicalOperator = tagged[order[0]]
    chosen: Set[int] = {order[0]}
    placed: Set[int] = set()
    for index in order[1:]:
        applicable: List[int] = []
        for c, refs in enumerate(pool_refs):
            if c in placed:
                continue
            if refs <= chosen | {index} and index in refs:
                applicable.append(c)
                placed.add(c)
        if index in sims:
            sim = sims[index]
            plan = SimilarityJoin(
                plan,
                tagged[index],
                sim.left_exprs,
                sim.right_exprs,
                metric=sim.metric,
                eps=sim.eps,
                k=None,
                workers=sim.workers,
                cache=sim.cache,
            )
            residual = [pool[c] for c in applicable]
            predicate = conjoin(residual)
            if predicate is not None:
                plan = Filter(plan, predicate)
        else:
            left_keys: List[Expression] = []
            right_keys: List[Expression] = []
            residual = []
            for c in applicable:
                equi = extract_equi_join(pool[c], leaf_schemas)
                if equi is not None:
                    source_a, expr_a, source_b, expr_b = equi
                    if source_a in chosen and source_b == index:
                        left_keys.append(expr_a)
                        right_keys.append(expr_b)
                        continue
                    if source_b in chosen and source_a == index:
                        left_keys.append(expr_b)
                        right_keys.append(expr_a)
                        continue
                residual.append(pool[c])
            if left_keys:
                plan = HashJoin(
                    plan,
                    tagged[index],
                    left_keys,
                    right_keys,
                    residual=conjoin(residual),
                )
            else:
                plan = NestedLoopJoin(
                    plan, tagged[index], condition=conjoin(residual)
                )
        chosen.add(index)
    # Positions in the rebuilt concat schema are arithmetic: the tagged leaf
    # at step s starts at the total width of the tagged leaves before it.
    starts: Dict[int, int] = {}
    offset = 0
    for index in order:
        starts[index] = offset
        offset += len(leaf_schemas[index]) + 1
    rid_positions = [
        starts[index] + len(leaf_schemas[index]) for index in range(len(leaves))
    ]
    output_positions: List[int] = []
    for index in range(len(leaves)):
        output_positions.extend(
            starts[index] + column for column in range(len(leaf_schemas[index]))
        )
    return RestoreOrder(plan, rid_positions, output_positions)
