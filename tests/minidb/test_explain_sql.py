"""``EXPLAIN SELECT``: lexer → parser → planner → plan-tree rows.

EXPLAIN never executes the query; the similarity operators show the cost
planner's *static* choice (from base-table statistics or synthetic
estimates), with mode, worker/shard fan-out, and estimated cost.
"""

from __future__ import annotations

import random

import pytest

from repro.engine.cost import ENV_WORKERS
from repro.exceptions import SqlSyntaxError
from repro.minidb.database import Database


@pytest.fixture(autouse=True)
def _delegated_environment(monkeypatch):
    monkeypatch.delenv(ENV_WORKERS, raising=False)


@pytest.fixture()
def db():
    database = Database()
    database.create_table("pts", [("x", "FLOAT"), ("y", "FLOAT"), ("v", "INT")])
    rng = random.Random(0)
    database.insert_rows(
        "pts", [(rng.random(), rng.random(), i % 7) for i in range(400)]
    )
    database.create_table("pois", [("x", "FLOAT"), ("y", "FLOAT")])
    database.insert_rows("pois", [(rng.random(), rng.random()) for _ in range(200)])
    return database


def _plan_text(db, sql):
    result = db.execute(sql)
    assert result.columns == ["QUERY PLAN"]
    assert result.rowcount == len(result.rows)
    return "\n".join(line for (line,) in result.rows)


class TestExplainStatement:
    def test_explain_sgb_any_shows_mode_and_cost(self, db):
        text = _plan_text(
            db,
            "EXPLAIN SELECT x, y, COUNT(*) AS n FROM pts "
            "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.05",
        )
        assert "SGBAggregate" in text
        assert "sgb_any: mode=" in text
        assert "est_cost=" in text
        assert "est_rows=" in text
        assert "SeqScan(pts)" in text

    def test_explain_sgb_all_shows_plan(self, db):
        text = _plan_text(
            db,
            "EXPLAIN SELECT x, y, COUNT(*) AS n FROM pts "
            "GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 0.05",
        )
        assert "sgb_all: mode=" in text and "est_cost=" in text

    def test_explain_window_query(self, db):
        text = _plan_text(
            db,
            "EXPLAIN SELECT x, y, COUNT(*) AS n FROM pts "
            "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.05 WINDOW 100 SLIDE 50",
        )
        assert "WINDOW 100 SLIDE 50" in text
        assert "mode=streaming window=100 slide=50" in text

    def test_explain_similarity_join(self, db):
        text = _plan_text(
            db,
            "EXPLAIN SELECT COUNT(*) AS n FROM pts "
            "SIMILARITY JOIN pois ON DISTANCE(pts.x, pts.y, pois.x, pois.y) "
            "WITHIN 0.05",
        )
        assert "SimilarityJoin" in text
        assert "eps_join: mode=" in text and "est_cost=" in text

    def test_explain_knn_join(self, db):
        text = _plan_text(
            db,
            "EXPLAIN SELECT COUNT(*) AS n FROM pts "
            "SIMILARITY JOIN pois ON DISTANCE(pts.x, pts.y, pois.x, pois.y) KNN 3",
        )
        assert "knn_join: mode=" in text

    def test_explain_forced_workers_bypasses_planner(self, db):
        text = _plan_text(
            db,
            "EXPLAIN SELECT x, y, COUNT(*) AS n FROM pts "
            "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.05 WORKERS 2",
        )
        assert "mode=sharded workers=2 (forced by WORKERS)" in text
        assert "sgb_any: mode=" not in text

    def test_explain_does_not_execute(self, db, monkeypatch):
        import repro.minidb.exec.sgb as sgb_mod

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("EXPLAIN must not execute the query")

        monkeypatch.setattr(sgb_mod.SGBAggregate, "rows", boom)
        _plan_text(
            db,
            "EXPLAIN SELECT x, y, COUNT(*) AS n FROM pts "
            "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.05",
        )

    def test_explain_plain_select(self, db):
        text = _plan_text(db, "EXPLAIN SELECT x FROM pts WHERE x > 0.5")
        assert "SeqScan(pts)" in text
        assert "est_rows=400" in text

    def test_explain_non_select_rejected(self, db):
        with pytest.raises(SqlSyntaxError, match="only SELECT"):
            db.execute("EXPLAIN INSERT INTO pts VALUES (1.0, 2.0, 3)")
        with pytest.raises(SqlSyntaxError, match="only SELECT"):
            db.execute("EXPLAIN CREATE TABLE t (x FLOAT)")

    def test_database_explain_accepts_both_forms(self, db):
        sql = (
            "SELECT x, y, COUNT(*) AS n FROM pts "
            "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.05"
        )
        assert db.explain(sql) == db.explain("EXPLAIN " + sql)


class TestQueryResultPlan:
    def test_select_result_carries_plan(self, db):
        result = db.execute(
            "SELECT x, y, COUNT(*) AS n FROM pts "
            "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.05"
        )
        assert result.plan is not None
        assert result.plan.op == "sgb_any"
        assert result.plan.mode in ("scalar", "batch", "sharded")

    def test_join_result_carries_plan(self, db):
        result = db.execute(
            "SELECT COUNT(*) AS n FROM pts "
            "SIMILARITY JOIN pois ON DISTANCE(pts.x, pts.y, pois.x, pois.y) "
            "WITHIN 0.05"
        )
        assert result.plan is not None and result.plan.op == "eps_join"

    def test_plain_select_has_no_plan(self, db):
        assert db.execute("SELECT x FROM pts LIMIT 5").plan is None

    def test_forced_workers_has_no_plan(self, db):
        result = db.execute(
            "SELECT x, y, COUNT(*) AS n FROM pts "
            "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.05 WORKERS 1"
        )
        assert result.plan is None


class TestStaticStatistics:
    def test_table_stats_cached_until_mutation(self, db):
        table = db.table("pts")
        first = table.point_stats([0, 1])
        assert table.point_stats([0, 1]) is first
        db.insert_rows("pts", [(0.5, 0.5, 1)])
        second = table.point_stats([0, 1])
        assert second is not first
        assert second.count == first.count + 1

    def test_non_numeric_columns_degrade_to_count(self):
        db = Database()
        db.create_table("t", [("name", "TEXT"), ("x", "FLOAT")])
        db.insert_rows("t", [("a", 1.0), ("b", 2.0)])
        stats = db.table("t").point_stats([0, 1])
        assert stats.count == 2  # synthetic fallback, never an error

    def test_derived_table_uses_synthetic_stats(self, db):
        # The SGB input is a projection of a derived table: EXPLAIN must
        # still produce a plan line (synthetic statistics path).
        text = _plan_text(
            db,
            "EXPLAIN SELECT m.a, m.b, COUNT(*) AS n FROM "
            "(SELECT x + 0.0 AS a, y + 0.0 AS b FROM pts) m "
            "GROUP BY m.a, m.b DISTANCE-TO-ANY L2 WITHIN 0.05",
        )
        assert "sgb_any: mode=" in text
