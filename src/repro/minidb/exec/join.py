"""The similarity-join physical operator (``SIMILARITY JOIN ... ON DISTANCE``).

Both inputs are materialised, their join attributes are evaluated once into
column vectors (exactly like the SGB executor buffers its grouping
attributes), and the matched index pairs come from the set-at-a-time
:func:`repro.join.sim_join` — the eps-grid join for ``WITHIN eps`` (sharded
across worker processes when WORKERS allows), the expanding index-probe join
for ``KNN k``.  Matched row pairs then stream into the surrounding Volcano
pipeline like any other join's output: left row columns followed by right
row columns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence

from repro.core.pointset import PointSet
from repro.exceptions import ExecutionError, InvalidParameterError
from repro.minidb.exec.operators import PhysicalOperator, Row
from repro.minidb.expressions import Expression, compile_expression

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.cost import PhysicalPlan

__all__ = ["SimilarityJoin"]


class SimilarityJoin(PhysicalOperator):
    """Inner join pairing rows whose join attributes are similar.

    ``eps`` set: every cross pair within the threshold (lexicographic pair
    order).  ``k`` set: each left row with its k nearest right rows
    (distance ties break towards the earlier right row).  Exactly one of the
    two is set — the planner enforces it.
    """

    def __init__(
        self,
        left: PhysicalOperator,
        right: PhysicalOperator,
        left_exprs: Sequence[Expression],
        right_exprs: Sequence[Expression],
        metric: str,
        eps: Optional[float] = None,
        k: Optional[int] = None,
        workers: "Optional[int | str]" = None,
        cache: object = None,
    ) -> None:
        if len(left_exprs) != len(right_exprs) or not left_exprs:
            raise ExecutionError(
                "similarity join requires matching, non-empty coordinate lists"
            )
        if (eps is None) == (k is None):
            raise ExecutionError(
                "similarity join requires exactly one of eps (WITHIN) and k (KNN)"
            )
        self.left = left
        self.right = right
        self.left_exprs = list(left_exprs)
        self.right_exprs = list(right_exprs)
        self.metric = metric
        self.eps = float(eps) if eps is not None else None
        self.k = k
        self.workers = workers
        self.cache = cache
        self.schema = left.schema.concat(right.schema)
        self._left_fns = [compile_expression(e, left.schema) for e in left_exprs]
        self._right_fns = [compile_expression(e, right.schema) for e in right_exprs]
        #: The physical plan the cost planner chose at execution time (None
        #: until the join has run, and on forced WORKERS plans).
        self.last_plan: "Optional[PhysicalPlan]" = None

    def rows(self) -> Iterator[Row]:
        pairs, left_rows, right_rows = self.materialize()
        for i, j in pairs:
            yield left_rows[i] + right_rows[j]

    def materialize(self) -> "tuple[list, list, list]":
        """Materialise both inputs and run the join once.

        Returns ``(pairs, left_rows, right_rows)`` without building the
        concatenated pair rows — the fused join→SGB route consumes the
        matched indices directly, so only :meth:`rows` ever pays for the
        pair-row construction.
        """
        from repro.join.api import sim_join

        left_rows = list(self.left.rows())
        right_rows = list(self.right.rows())
        if not left_rows or not right_rows:
            return [], left_rows, right_rows
        left_columns = [
            [self._coordinate(fn, row) for row in left_rows] for fn in self._left_fns
        ]
        right_columns = [
            [self._coordinate(fn, row) for row in right_rows] for fn in self._right_fns
        ]
        cache, cache_key = self._cache_lookup(left_columns, right_columns)
        if cache is not None:
            hit = cache.get_pairs(cache_key)
            if hit is not None:
                self.last_plan = None
                return hit, left_rows, right_rows
        try:
            pairs = sim_join(
                PointSet.from_columns(left_columns),
                PointSet.from_columns(right_columns),
                eps=self.eps,
                k=self.k,
                metric=self.metric,
                workers=self.workers,
            )
        except InvalidParameterError as exc:
            # Surface core-layer validation (e.g. NaN join attributes) as an
            # executor error so engine callers see a DatabaseError.
            raise ExecutionError(f"invalid similarity join attributes: {exc}") from exc
        self.last_plan = getattr(pairs, "plan", None)
        if cache is not None:
            cache.put_pairs(cache_key, pairs)
        return pairs, left_rows, right_rows

    def _cache_lookup(self, left_columns, right_columns):
        """Resolve the result cache and this join's pair-list key.

        Each side's fingerprint prefers its base table's version-memoised
        digest (strict Rename-only trace) and otherwise hashes the buffered
        coordinate columns; either way the digest is content-addressed, so
        SQL joins and direct :func:`repro.join.sim_join` calls over the same
        relations share entries.
        """
        from repro.storage.cache import join_key, resolve_cache

        cache = resolve_cache(self.cache)
        if cache is None:
            return None, None
        from repro.core.fingerprint import fingerprint_columns
        from repro.core.pointset import HAVE_NUMPY
        from repro.minidb.exec.statics import trace_base_fingerprint

        left_fp = trace_base_fingerprint(self.left, self.left_exprs)
        if left_fp is None:
            left_fp = fingerprint_columns(left_columns)
        right_fp = trace_base_fingerprint(self.right, self.right_exprs)
        if right_fp is None:
            right_fp = fingerprint_columns(right_columns)
        backend = "numpy" if HAVE_NUMPY else "python"
        return cache, join_key(
            left_fp, right_fp, self.eps, self.k, self.metric, backend
        )

    @staticmethod
    def _coordinate(fn, row: Row) -> float:
        value = fn(row)
        if value is None:
            raise ExecutionError("similarity join attributes must not be NULL")
        try:
            return float(value)
        except (TypeError, ValueError) as exc:
            raise ExecutionError(
                f"similarity join attribute value {value!r} is not numeric"
            ) from exc

    def _static_plan(self) -> "Optional[PhysicalPlan]":
        """The plan EXPLAIN shows, mirroring what execution would choose."""
        from repro.engine.cost import plan_eps_join, plan_knn_join, planner_delegated
        from repro.minidb.exec.statics import trace_point_stats

        if not planner_delegated(self.workers):
            return None
        dims = len(self.left_exprs)
        left_stats = trace_point_stats(self.left, self.left_exprs, dims)
        right_stats = trace_point_stats(self.right, self.right_exprs, dims)
        if self.eps is not None:
            return plan_eps_join(left_stats, right_stats, self.eps)
        return plan_knn_join(left_stats, right_stats, int(self.k or 1))

    def annotations(self) -> List[str]:
        if self.last_plan is not None:
            return [self.last_plan.describe()]
        from repro.engine.cost import planner_delegated, resolve_workers

        if not planner_delegated(self.workers):
            count = resolve_workers(self.workers)
            mode = "sharded" if count > 1 else "serial"
            return [f"mode={mode} workers={count} (forced by WORKERS)"]
        plan = self._static_plan()
        return [plan.describe()] if plan is not None else []

    def estimated_rows(self) -> Optional[int]:
        plan = self.last_plan if self.last_plan is not None else self._static_plan()
        return plan.est_rows if plan is not None else None

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.left, self.right)

    def describe(self) -> str:
        coords = ", ".join(
            str(e) for e in (*self.left_exprs, *self.right_exprs)
        )
        if self.eps is not None:
            clause = f"WITHIN {self.eps}"
        else:
            clause = f"KNN {self.k}"
        workers = f" WORKERS {self.workers}" if self.workers is not None else ""
        return (
            f"SimilarityJoin(DISTANCE({coords}) {clause} {self.metric}{workers})"
        )
