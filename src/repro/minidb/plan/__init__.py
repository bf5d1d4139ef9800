"""Query planning: statement AST -> physical operator tree (+ rewrites)."""

from repro.minidb.plan.planner import Planner, PlannerSettings
from repro.minidb.plan.optimizer import (
    collect_column_refs,
    expression_sources,
    split_conjuncts,
)
from repro.minidb.plan.rewrite import optimize_plan

__all__ = [
    "Planner",
    "PlannerSettings",
    "split_conjuncts",
    "collect_column_refs",
    "expression_sources",
    "optimize_plan",
]
