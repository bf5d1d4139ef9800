"""Acceptance: the logical rewrite layer pays for itself on its target shapes.

Two workloads from the cost-driven optimizer: a selective filter over a
derived similarity join (the push-down rule sinks the predicate into the
eps-join's left input) and a three-relation join chain written worst-first
(the reorder rule moves the small relation forward using histogram-overlap
selectivities).  The optimized plans must run at least 2x faster than
``optimizer=False`` on the same data AND return bit-identical rows — the
equivalence contract is asserted on every benchmarked query, not sampled.
"""

from __future__ import annotations

import random
import time
from typing import Dict

import pytest

from repro.minidb import Database

EPS = 3.0
MIN_SPEEDUP = 2.0
SEED = 47


def _optimizer_tables(db: Database, n: int, seed: int) -> None:
    rng = random.Random(seed)
    db.execute("CREATE TABLE pa (x FLOAT, y FLOAT)")
    db.execute("CREATE TABLE pb (x FLOAT, y FLOAT)")
    db.insert_rows(
        "pa", [(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)) for _ in range(n)]
    )
    db.insert_rows(
        "pb", [(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)) for _ in range(n)]
    )
    db.execute("CREATE TABLE r1 (k INT, v FLOAT)")
    db.execute("CREATE TABLE r2 (k INT, j INT)")
    db.execute("CREATE TABLE r3 (j INT, w FLOAT)")
    m = max(200, n // 2)
    db.insert_rows("r1", [(i % 10, float(i)) for i in range(m)])
    db.insert_rows("r2", [(i % 10, i) for i in range(m)])
    db.insert_rows("r3", [(j, float(j) * 0.5) for j in range(20)])


def _optimizer_queries(eps: float) -> Dict[str, str]:
    # Workload 1: a selective predicate over a derived similarity join —
    # the push-down rule sinks it through the derived table into the
    # eps-join's left input, shrinking the pair enumeration itself.
    filtered_sim = (
        "SELECT d.ax, d.ay, d.bx FROM "
        "(SELECT a.x AS ax, a.y AS ay, b.x AS bx FROM pa AS a "
        f"SIMILARITY JOIN pb AS b ON DISTANCE(a.x, a.y, b.x, b.y) WITHIN {eps}) AS d "
        "WHERE d.ax < 5.0"
    )
    # Workload 2: a 3-relation chain written worst-first — r1 >< r2 explodes
    # (both keys take 10 values), while r2 >< r3 is tiny.  The reorder rule
    # moves r3 forward using histogram-overlap selectivities.
    join_chain = (
        "SELECT r1.v, r3.w FROM r1, r2, r3 "
        "WHERE r1.k = r2.k AND r2.j = r3.j"
    )
    return {"filtered-sim-join": filtered_sim, "join-reorder": join_chain}


def _timed(fn, repeats: int = 3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.fixture(scope="module")
def optimizer_dbs(scale):
    n = 5_000 * scale
    # cache=False: a warm result cache would flatten the repeat timings and
    # hide the plan-shape difference this benchmark exists to measure.
    optimized = Database(optimizer=True, cache=False)
    reference = Database(optimizer=False, cache=False)
    for db in (optimized, reference):
        _optimizer_tables(db, n, SEED)
    return optimized, reference


@pytest.mark.parametrize("workload", sorted(_optimizer_queries(EPS)))
def test_rewrite_speedup_and_bit_identity(optimizer_dbs, workload):
    optimized, reference = optimizer_dbs
    sql = _optimizer_queries(EPS)[workload]
    opt_seconds, opt_result = _timed(lambda: optimized.execute(sql))
    ref_seconds, ref_result = _timed(lambda: reference.execute(sql))
    assert opt_result.rows == ref_result.rows, (
        f"optimizer changed the output of {workload!r}"
    )
    assert opt_result.columns == ref_result.columns
    assert opt_result.rewrites, f"no rewrite fired on {workload!r}"
    assert not ref_result.rewrites
    speedup = ref_seconds / opt_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"{workload}: optimized {opt_seconds:.4f}s vs reference "
        f"{ref_seconds:.4f}s — only {speedup:.2f}x"
    )


def test_rewrite_trace_names_the_rules(optimizer_dbs):
    optimized, _ = optimizer_dbs
    queries = _optimizer_queries(EPS)
    sim = optimized.execute(queries["filtered-sim-join"])
    assert any(entry.startswith("filter-pushdown:") for entry in sim.rewrites)
    chain = optimized.execute(queries["join-reorder"])
    assert any(entry.startswith("join-reorder:") for entry in chain.rewrites)
