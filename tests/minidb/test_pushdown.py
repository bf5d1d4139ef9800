"""Shard-level aggregate push-down: exact state merging vs the row replay."""

from __future__ import annotations

import random

import pytest

from repro.minidb.database import Database
from repro.minidb.exec.pushdown import (
    columns_eligible,
    pushdown_eligible,
    sgb_any_pushdown,
)
from repro.minidb.functions import create_aggregate


def _make_db(values="int", n=400, seed=42) -> Database:
    value_type = "INT" if values == "int" else "FLOAT"
    db = Database()
    db.create_table("t", [("x", "FLOAT"), ("y", "FLOAT"), ("v", value_type)])
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        v = rng.randrange(-50, 50) if values == "int" else rng.uniform(0, 1)
        rows.append((rng.uniform(0, 15), rng.uniform(0, 15), v))
    db.insert_rows("t", rows)
    return db


INT_QUERY = (
    "SELECT x, y, count(*) AS c, count(v) AS cv, sum(v) AS s, avg(v) AS a, "
    "min(v) AS lo, max(v) AS hi "
    "FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.8{workers} ORDER BY x, y"
)


class TestMergedEqualsReplay:
    @pytest.mark.parametrize("seed", [7, 23, 61])
    def test_randomized_parallel_matches_serial(self, seed):
        # Serial runs the replay path, WORKERS 2 runs push-down (verified
        # below by the spy test); the rows must be bit-identical.
        serial = _make_db(seed=seed).execute(INT_QUERY.format(workers=""))
        pushed = _make_db(seed=seed).execute(INT_QUERY.format(workers=" WORKERS 2"))
        assert pushed.rows == serial.rows

    def test_pushdown_actually_engages_for_int_aggregates(self, monkeypatch):
        import repro.minidb.exec.sgb as sgb_module

        calls = []
        real = sgb_module.sgb_any_pushdown

        def spy(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append(result is not None)
            return result

        monkeypatch.setattr(sgb_module, "sgb_any_pushdown", spy)
        _make_db().execute(INT_QUERY.format(workers=" WORKERS 2"))
        assert calls == [True]

    def test_float_sum_stays_on_replay_path(self, monkeypatch):
        # Float addition is order-sensitive, so sum/avg over FLOAT columns
        # must never attempt state merging — the runtime gate bails before
        # sgb_any_pushdown is even called.
        import repro.minidb.exec.sgb as sgb_module

        calls = []
        monkeypatch.setattr(
            sgb_module, "sgb_any_pushdown",
            lambda *a, **k: calls.append(True) or None,
        )
        db = _make_db(values="float")
        serial = db.execute(INT_QUERY.format(workers=""))
        parallel = db.execute(INT_QUERY.format(workers=" WORKERS 2"))
        assert calls == []
        assert parallel.rows == serial.rows

    def test_float_min_max_count_still_push_down(self):
        # min/max/count are order-free for floats too; only the additive
        # aggregates need the int gate.
        query = (
            "SELECT x, y, count(*) AS c, min(v) AS lo, max(v) AS hi "
            "FROM t GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.8{workers} "
            "ORDER BY x, y"
        )
        db = _make_db(values="float")
        serial = db.execute(query.format(workers=""))
        parallel = db.execute(query.format(workers=" WORKERS 2"))
        assert parallel.rows == serial.rows

    def test_array_agg_never_pushes_down(self, monkeypatch):
        # Order-sensitive aggregate: the static gate refuses it.
        import repro.minidb.exec.sgb as sgb_module

        calls = []
        monkeypatch.setattr(
            sgb_module, "sgb_any_pushdown",
            lambda *a, **k: calls.append(True) or None,
        )
        query = (
            "SELECT x, y, array_agg(v) AS vs FROM t "
            "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.8 WORKERS 2 ORDER BY x, y"
        )
        db = _make_db()
        assert db.execute(query).rows
        assert calls == []

    def test_sgb_all_eliminate_stays_row_at_a_time(self, monkeypatch):
        # SGB-All (including ELIMINATE) groups serially and replays rows;
        # push-down must never trigger regardless of WORKERS.
        import repro.minidb.exec.sgb as sgb_module

        calls = []
        monkeypatch.setattr(
            sgb_module, "sgb_any_pushdown",
            lambda *a, **k: calls.append(True) or None,
        )
        query = (
            "SELECT x, y, count(*) AS c, sum(v) AS s FROM t GROUP BY x, y "
            "DISTANCE-TO-ALL L2 WITHIN 0.8 ON-OVERLAP ELIMINATE{workers} "
            "ORDER BY x, y"
        )
        serial = _make_db().execute(query.format(workers=""))
        parallel = _make_db().execute(query.format(workers=" WORKERS 2"))
        assert calls == []
        assert parallel.rows == serial.rows


class TestPartialStateProtocol:
    @pytest.mark.parametrize("func", ["count", "sum", "avg", "min", "max"])
    def test_random_partition_merge_equals_replay(self, func):
        rng = random.Random(101)
        values = [rng.randrange(-100, 100) for _ in range(200)]
        for trial in range(5):
            replay = create_aggregate(func)
            replay.step_many(values)

            cut = rng.randrange(1, len(values))
            merged = create_aggregate(func)
            for chunk in (values[:cut], values[cut:]):
                part = create_aggregate(func)
                part.step_many(chunk)
                merged.absorb(part.partial())
            assert merged.final() == replay.final()

    def test_count_star_merges_constant_steps(self):
        merged = create_aggregate("count", star=True)
        for n in (3, 0, 7):
            part = create_aggregate("count", star=True)
            part.step_count(n)
            merged.absorb(part.partial())
        assert merged.final() == 10

    def test_empty_partial_absorbs_as_identity(self):
        expected = {"sum": 6, "min": 1, "max": 3}
        for func, result in expected.items():
            merged = create_aggregate(func)
            merged.step_many([1, 2, 3])
            empty = create_aggregate(func)
            merged.absorb(empty.partial())
            assert merged.final() == result

    def test_non_mergeable_aggregates_raise(self):
        from repro.exceptions import AggregateError

        acc = create_aggregate("array_agg")
        with pytest.raises(AggregateError):
            acc.partial()
        with pytest.raises(AggregateError):
            acc.absorb([1])


class TestEligibilityGates:
    def test_static_gate(self):
        from repro.minidb.exec.aggregate import AggregateSpec

        ok = [AggregateSpec("count", [], True, "c"), AggregateSpec("sum", [], False, "s")]
        assert pushdown_eligible(ok)
        bad = ok + [AggregateSpec("array_agg", [], False, "v")]
        assert not pushdown_eligible(bad)
        assert not pushdown_eligible([AggregateSpec("st_polygon", [], False, "p")])

    def test_runtime_gate_rejects_floats_and_bools(self):
        from repro.minidb.exec.aggregate import AggregateSpec

        specs = [AggregateSpec("sum", [], False, "s")]
        assert columns_eligible(specs, [[1, 2, None, 3]])
        assert not columns_eligible(specs, [[1, 2.5, 3]])
        assert not columns_eligible(specs, [[1, True, 3]])
        # Non-additive aggregates ignore the value types entirely.
        minmax = [AggregateSpec("min", [], False, "lo")]
        assert columns_eligible(minmax, [[1.5, 2.5]])

    def test_direct_pushdown_degrades_to_none_when_serial(self):
        from repro.core.pointset import PointSet
        from repro.minidb.exec.aggregate import AggregateSpec

        points = PointSet.from_any([(0.0, 0.0), (1.0, 1.0)])
        specs = [AggregateSpec("count", [], True, "c")]
        # Two points plan serial: the caller's replay path must take over.
        assert sgb_any_pushdown(points, 0.5, "L2", 2, specs, [None]) is None


class TestCacheCoherence:
    """The push-down route goes through the result cache like every route."""

    COUNT = (
        "SELECT x, y, count(*) AS c FROM t "
        "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.8{workers} ORDER BY x, y"
    )
    COUNT_AVG = (
        "SELECT x, y, count(*) AS c, avg(v) AS a FROM t "
        "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.8{workers} ORDER BY x, y"
    )

    @pytest.fixture(autouse=True)
    def _cache_env(self, monkeypatch):
        # The cache-off CI lane sets SGB_CACHE=off, which would bypass the
        # explicit cache below and invert every assertion.
        monkeypatch.delenv("SGB_CACHE", raising=False)

    @staticmethod
    def _cached_db(values="int"):
        from repro.storage.cache import ResultCache

        cache = ResultCache.memory()
        db = _make_db(values=values)
        db.settings.cache = cache
        return db, cache

    @staticmethod
    def _spy(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def spy(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append(result)
            return result

        monkeypatch.setattr(module, name, spy)
        return calls

    def test_repeat_is_a_hit_and_pushes_down_only_on_the_miss(self, monkeypatch):
        import repro.minidb.exec.sgb as sgb_module

        pushed = self._spy(monkeypatch, sgb_module, "sgb_any_pushdown")
        db, cache = self._cached_db()
        sql = self.COUNT.format(workers=" WORKERS 2")
        cold = db.execute(sql)
        assert (cache.hits, cache.misses, cache.puts) == (0, 1, 1)
        assert len(pushed) == 1 and pushed[0] is not None
        warm = db.execute(sql)
        assert (cache.hits, cache.puts) == (1, 1)
        assert len(pushed) == 1
        assert warm.rows == cold.rows

    def test_aggregate_lists_share_one_grouping(self):
        db, cache = self._cached_db()
        counted = db.execute(self.COUNT.format(workers=" WORKERS 2"))
        averaged = db.execute(self.COUNT_AVG.format(workers=" WORKERS 2"))
        assert (cache.puts, cache.hits) == (1, 1)
        assert [row[:3] for row in averaged.rows] == counted.rows
        reference = _make_db().execute(self.COUNT_AVG.format(workers=""))
        assert averaged.rows == reference.rows

    @pytest.mark.parametrize("query", [COUNT, COUNT_AVG])
    def test_delegated_batch_plans_and_evaluates_once(self, query, monkeypatch):
        # No WORKERS clause: the cost planner decides, forced to sharded here,
        # and the push-down cost gate is forced open.  The count(*) list then
        # pushes down; the float avg passes the gate but not the int check
        # and replays from the same value columns.
        import repro.minidb.exec.sgb as sgb_module
        from repro.engine.calibrate import CostProfile
        from repro.engine.cost import PhysicalPlan
        from repro.minidb.exec.aggregate import _AggregateEvaluator

        reference = _make_db(values="float").execute(query.format(workers=""))
        monkeypatch.delenv("SGB_WORKERS", raising=False)
        monkeypatch.setattr(
            sgb_module,
            "plan_sgb_any",
            lambda stats, eps, cpu_count=None, profile=None: PhysicalPlan(
                op="sgb_any", mode="sharded", workers=2, shards=2, reason="forced"
            ),
        )
        monkeypatch.setattr(
            "repro.engine.calibrate.load_profile",
            lambda: CostProfile(
                c_point=1.0, c_pair=1.0, c_task=0.0, c_ship=0.0
            ),
        )
        stats = self._spy(monkeypatch, sgb_module, "collect_stats")
        plans = self._spy(monkeypatch, sgb_module, "plan_sgb_any")
        values = self._spy(monkeypatch, _AggregateEvaluator, "value_columns")
        pushed = self._spy(monkeypatch, sgb_module, "sgb_any_pushdown")
        db, _ = self._cached_db(values="float")
        result = db.execute(query.format(workers=""))
        assert (len(stats), len(plans), len(values)) == (1, 1, 1)
        assert result.plan is not None and result.plan.mode == "sharded"
        assert len(pushed) == (1 if query == self.COUNT else 0)
        assert result.rows == reference.rows
