"""The SGB clause's WORKERS option: parsing, planning, and executor parity."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import PlanningError
from repro.minidb.database import Database
from repro.minidb.sql.parser import parse_sql

QUERY = (
    "SELECT x, y, count(*) AS c, sum(v) AS s, avg(v) AS a "
    "FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.8{workers} ORDER BY x, y"
)


def _make_db(**kwargs) -> Database:
    db = Database(**kwargs)
    db.create_table("t", [("x", "FLOAT"), ("y", "FLOAT"), ("v", "FLOAT")])
    rng = random.Random(42)
    db.insert_rows(
        "t",
        [
            (rng.uniform(0, 15), rng.uniform(0, 15), rng.uniform(0, 1))
            for _ in range(400)
        ],
    )
    return db


class TestParsing:
    def test_workers_clause_is_parsed(self):
        stmt = parse_sql(
            "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5 WORKERS 4"
        )
        assert stmt.group_by.sgb.workers is not None

    def test_workers_clause_is_optional(self):
        stmt = parse_sql(
            "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5"
        )
        assert stmt.group_by.sgb.workers is None

    def test_workers_after_on_overlap(self):
        stmt = parse_sql(
            "SELECT count(*) FROM t GROUP BY x, y "
            "DISTANCE-TO-ALL LINF WITHIN 0.5 ON-OVERLAP ELIMINATE WORKERS 2"
        )
        sgb = stmt.group_by.sgb
        assert sgb.on_overlap == "ELIMINATE"
        assert sgb.workers is not None


class TestPlanning:
    def test_explain_shows_workers(self):
        db = _make_db()
        plan = db.explain(
            "SELECT count(*) FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.8 WORKERS 3"
        )
        assert "WORKERS 3" in plan

    @pytest.mark.parametrize("bad", ["-1", "0.5", "'two'"])
    def test_invalid_workers_rejected(self, bad):
        db = _make_db()
        with pytest.raises(PlanningError):
            db.execute(
                "SELECT count(*) FROM t GROUP BY x, y "
                f"DISTANCE-TO-ANY L2 WITHIN 0.8 WORKERS {bad}"
            )

    def test_workers_zero_means_auto(self):
        # WORKERS 0 = use every core; must still match the serial result.
        db = _make_db()
        serial = db.execute(QUERY.format(workers=""))
        auto = db.execute(QUERY.format(workers=" WORKERS 0"))
        assert auto.rows == serial.rows


class TestExecutionParity:
    def test_parallel_query_matches_serial(self):
        db = _make_db()
        serial = db.execute(QUERY.format(workers=""))
        for w in (2, 4):
            parallel = db.execute(QUERY.format(workers=f" WORKERS {w}"))
            assert parallel.rows == serial.rows

    def test_session_default_workers(self):
        serial = _make_db().execute(QUERY.format(workers=""))
        parallel = _make_db(sgb_workers=2).execute(QUERY.format(workers=""))
        assert parallel.rows == serial.rows

    def test_environment_default_workers(self, monkeypatch):
        monkeypatch.delenv("SGB_WORKERS", raising=False)
        serial = _make_db().execute(QUERY.format(workers=""))
        monkeypatch.setenv("SGB_WORKERS", "2")
        monkeypatch.setattr("repro.engine.cost.MIN_PARALLEL_POINTS", 32)
        parallel = _make_db().execute(QUERY.format(workers=""))
        assert parallel.rows == serial.rows

    def test_sgb_all_accepts_workers_but_stays_serial(self):
        # SGB-All arbitration is order-dependent; WORKERS parses and the
        # query runs, with results identical to the serial plan.
        sql = (
            "SELECT x, y, count(*) AS c FROM t GROUP BY x, y "
            "DISTANCE-TO-ALL L2 WITHIN 0.8 ON-OVERLAP ELIMINATE{workers} ORDER BY x, y"
        )
        serial = _make_db().execute(sql.format(workers=""))
        parallel = _make_db().execute(sql.format(workers=" WORKERS 2"))
        assert parallel.rows == serial.rows
