"""The cost-driven rewrite layer: rule behaviour + randomized bit-identity.

The unit tests pin each rule's observable contract — where a conjunct lands,
what the trace says, when the ``optimizer=False`` switch wins.  The randomized suite is
the real safety net: for every query family the optimizer touches
(multi-join chains, filtered derived similarity joins, SGB subqueries) the
optimized plan must return *bit-identical* rows to ``optimizer=False`` on
both PointSet backends and at 1 and 2 workers.
"""

from __future__ import annotations

import random

import pytest

import repro.core.pointset as pointset
from repro.core.pointset import HAVE_NUMPY
from repro.minidb.database import Database

BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])


def _point_tables(db: Database, n: int = 120, seed: int = 5) -> None:
    rng = random.Random(seed)
    db.execute("CREATE TABLE pa (x FLOAT, y FLOAT)")
    db.execute("CREATE TABLE pb (x FLOAT, y FLOAT)")
    for name in ("pa", "pb"):
        db.insert_rows(
            name,
            [(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)) for _ in range(n)],
        )


def _chain_tables(db: Database, n: int = 200, seed: int = 7) -> None:
    rng = random.Random(seed)
    db.execute("CREATE TABLE t1 (k INT, v FLOAT)")
    db.execute("CREATE TABLE t2 (k INT, j INT)")
    db.execute("CREATE TABLE t3 (j INT, w FLOAT)")
    db.insert_rows("t1", [(rng.randrange(8), float(i)) for i in range(n)])
    db.insert_rows("t2", [(rng.randrange(8), rng.randrange(n)) for i in range(n)])
    db.insert_rows("t3", [(j, float(j) * 0.5) for j in range(12)])


FILTERED_SIM = (
    "SELECT d.ax, d.bx FROM "
    "(SELECT a.x AS ax, a.y AS ay, b.x AS bx FROM pa AS a "
    "SIMILARITY JOIN pb AS b ON DISTANCE(a.x, a.y, b.x, b.y) WITHIN 0.5) AS d "
    "WHERE d.ax < 1.0"
)

CHAIN = "SELECT t1.v, t3.w FROM t1, t2, t3 WHERE t1.k = t2.k AND t2.j = t3.j"


# ---------------------------------------------------------------------------
# escape hatches
# ---------------------------------------------------------------------------


class TestEscapeHatches:
    def test_constructor_off_disables_rewrites(self):
        db = Database(optimizer=False)
        _chain_tables(db)
        assert db.execute(CHAIN).rewrites == []

# ---------------------------------------------------------------------------
# filter placement
# ---------------------------------------------------------------------------


class TestFilterPlacement:
    def test_selective_predicate_sinks_into_eps_join_input(self):
        db = Database()
        _point_tables(db)
        result = db.execute(FILTERED_SIM)
        assert any(
            entry.startswith("filter-pushdown:") and "eps-join" in entry
            for entry in result.rewrites
        )

    def test_pushdown_is_bit_identical(self):
        on, off = Database(optimizer=True), Database(optimizer=False)
        for db in (on, off):
            _point_tables(db)
        a, b = on.execute(FILTERED_SIM), off.execute(FILTERED_SIM)
        assert a.rows == b.rows and a.columns == b.columns

    def test_non_selective_predicate_is_deferred(self):
        db = Database()
        _point_tables(db)
        sql = FILTERED_SIM.replace("d.ax < 1.0", "d.ax < 1000.0")
        result = db.execute(sql)
        assert any(entry.startswith("filter-deferral:") for entry in result.rewrites)
        reference = Database(optimizer=False)
        _point_tables(reference)
        assert result.rows == reference.execute(sql).rows

    def test_knn_right_side_predicate_stays_put(self):
        """A predicate on the kNN join's right side would change neighbour
        sets if pushed below the join — it must never sink."""
        db = Database()
        _point_tables(db)
        sql = (
            "SELECT d.ax, d.bx FROM "
            "(SELECT a.x AS ax, b.x AS bx FROM pa AS a "
            "SIMILARITY JOIN pb AS b ON DISTANCE(a.x, a.y, b.x, b.y) KNN 3) AS d "
            "WHERE d.bx < 5.0"
        )
        result = db.execute(sql)
        assert not any("into" in e and "kNN" in e for e in result.rewrites)
        reference = Database(optimizer=False)
        _point_tables(reference)
        assert result.rows == reference.execute(sql).rows

    def test_knn_left_side_predicate_sinks(self):
        db = Database()
        _point_tables(db)
        sql = (
            "SELECT d.ax, d.bx FROM "
            "(SELECT a.x AS ax, b.x AS bx FROM pa AS a "
            "SIMILARITY JOIN pb AS b ON DISTANCE(a.x, a.y, b.x, b.y) KNN 3) AS d "
            "WHERE d.ax < 5.0"
        )
        result = db.execute(sql)
        assert any("left input of kNN join" in e for e in result.rewrites)
        reference = Database(optimizer=False)
        _point_tables(reference)
        assert result.rows == reference.execute(sql).rows

    def test_sgb_subquery_filter_stays_above_aggregate(self):
        """Every SGB output column is a centroid key or aggregate, so no
        predicate can soundly sink below the aggregate."""
        db = Database()
        _point_tables(db, n=60)
        sql = (
            "SELECT g.cnt FROM "
            "(SELECT count(*) AS cnt FROM pa "
            "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1) AS g "
            "WHERE g.cnt > 2"
        )
        result = db.execute(sql)
        explain = db.explain(sql)
        # the conjunct may sink through the derived-table wrappers but the
        # SGBAggregate must stay below it in the plan tree
        filter_line = next(
            i for i, line in enumerate(explain.splitlines()) if "Filter" in line
        )
        sgb_line = next(
            i for i, line in enumerate(explain.splitlines()) if "SGBAggregate" in line
        )
        assert filter_line < sgb_line
        reference = Database(optimizer=False)
        _point_tables(reference, n=60)
        assert result.rows == reference.execute(sql).rows


# ---------------------------------------------------------------------------
# join reordering
# ---------------------------------------------------------------------------


class TestJoinReorder:
    def test_chain_is_reordered_with_trace(self):
        db = Database()
        _chain_tables(db)
        result = db.execute(CHAIN)
        assert any(entry.startswith("join-reorder:") for entry in result.rewrites)

    def test_reorder_is_bit_identical(self):
        on, off = Database(optimizer=True), Database(optimizer=False)
        for db in (on, off):
            _chain_tables(db)
        a, b = on.execute(CHAIN), off.execute(CHAIN)
        assert a.rows == b.rows and a.columns == b.columns

    def test_explain_shows_rewrites_and_order(self):
        db = Database()
        _chain_tables(db)
        explain = db.explain(CHAIN)
        trace_lines = [l for l in explain.splitlines() if l.startswith("rewrite: ")]
        assert any("join-reorder:" in l and "->" in l for l in trace_lines)
        # the chosen order names the leaves
        reorder = next(l for l in trace_lines if "join-reorder:" in l)
        for name in ("t1", "t2", "t3"):
            assert name in reorder

    def test_two_way_join_left_alone(self):
        db = Database()
        _chain_tables(db)
        sql = "SELECT t1.v FROM t1, t2 WHERE t1.k = t2.k"
        result = db.execute(sql)
        assert not any(e.startswith("join-reorder:") for e in result.rewrites)


# ---------------------------------------------------------------------------
# propagated statistics
# ---------------------------------------------------------------------------


class TestPropagatedStats:
    def test_filter_estimate_reflects_range_selectivity(self):
        db = Database()
        _point_tables(db, n=500)
        explain = db.explain("SELECT x FROM pa WHERE x < 2.0")
        filter_line = next(l for l in explain.splitlines() if "Filter" in l)
        assert "est_rows=" in filter_line
        est = int(filter_line.split("est_rows=")[1].split(")")[0])
        # uniform on [0, 10): x < 2 keeps about a fifth, not a synthetic 25%
        assert 50 <= est <= 160

    def test_derived_relation_reports_propagated_stats(self):
        """A filter above a derived projection estimates from the base
        table's histogram, not the synthetic fallback."""
        db = Database()
        _point_tables(db, n=500)
        explain = db.explain(
            "SELECT d.ax FROM (SELECT x AS ax FROM pa) AS d WHERE d.ax < 2.0"
        )
        filter_lines = [l for l in explain.splitlines() if "Filter" in l]
        assert filter_lines, explain
        est = int(filter_lines[0].split("est_rows=")[1].split(")")[0])
        assert 50 <= est <= 160


# ---------------------------------------------------------------------------
# randomized bit-identity: optimized vs reference plans
# ---------------------------------------------------------------------------


def _random_chain_query(rng: random.Random) -> str:
    cols = rng.sample(["t1.v", "t2.j", "t3.w", "t1.k"], k=rng.randrange(2, 4))
    sql = (
        f"SELECT {', '.join(cols)} FROM t1, t2, t3 "
        "WHERE t1.k = t2.k AND t2.j = t3.j"
    )
    if rng.random() < 0.5:
        sql += f" AND t1.v < {rng.uniform(20.0, 180.0):.1f}"
    return sql


def _random_sim_query(rng: random.Random) -> str:
    eps = round(rng.uniform(0.2, 0.8), 2)
    bound = round(rng.uniform(0.5, 12.0), 1)
    return (
        "SELECT d.ax, d.bx FROM "
        "(SELECT a.x AS ax, a.y AS ay, b.x AS bx FROM pa AS a "
        f"SIMILARITY JOIN pb AS b ON DISTANCE(a.x, a.y, b.x, b.y) WITHIN {eps}) AS d "
        f"WHERE d.ax < {bound}"
    )


def _random_sgb_query(rng: random.Random) -> str:
    eps = round(rng.uniform(0.5, 1.5), 2)
    cutoff = rng.randrange(1, 4)
    return (
        "SELECT g.cnt FROM "
        "(SELECT count(*) AS cnt FROM pa "
        f"GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN {eps}) AS g "
        f"WHERE g.cnt > {cutoff}"
    )


FAMILIES = {
    "chain": _random_chain_query,
    "sim": _random_sim_query,
    "sgb": _random_sgb_query,
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_randomized_bit_identity(monkeypatch, backend, workers, family):
    if backend == "python":
        monkeypatch.setattr(pointset, "HAVE_NUMPY", False)
    rng = random.Random(hash((backend, workers, family)) & 0xFFFF)
    optimized = Database(optimizer=True, sgb_workers=workers)
    reference = Database(optimizer=False, sgb_workers=workers)
    for db in (optimized, reference):
        _point_tables(db, n=90, seed=13)
        _chain_tables(db, n=120, seed=17)
    for trial in range(4):
        sql = FAMILIES[family](rng)
        a = optimized.execute(sql)
        b = reference.execute(sql)
        assert a.columns == b.columns, f"{family} trial {trial}: {sql}"
        assert a.rows == b.rows, f"{family} trial {trial} diverged: {sql}"
        assert b.rewrites == []
