"""Randomized equivalence: every planner-chosen mode is bit-identical to serial.

The cost planner is advisory about *time* only.  This suite generates
randomized workloads (uniform, clustered, skewed, duplicate-heavy) and
asserts that the delegated "auto" path — whatever mode the planner picks,
including modes forced through a monkeypatched planner — produces exactly
the groups/pairs of the serial scalar reference, on both point-set
backends.
"""

from __future__ import annotations

import random

import pytest

from repro.core.pointset import HAVE_NUMPY, PointSet
from repro.engine.cost import PhysicalPlan
from repro.engine.cost import ENV_WORKERS
from repro import sgb_all, sgb_any, sim_join

BACKENDS = ["numpy", "python"] if HAVE_NUMPY else ["python"]


@pytest.fixture(autouse=True)
def _delegated_environment(monkeypatch):
    """Leave the mode choice to the planner."""
    monkeypatch.delenv(ENV_WORKERS, raising=False)


def _workload(kind: str, n: int, seed: int):
    rng = random.Random(seed)
    if kind == "uniform":
        return [(rng.random(), rng.random()) for _ in range(n)]
    if kind == "clustered":
        centres = [(rng.random() * 10, rng.random() * 10) for _ in range(max(1, n // 40))]
        return [
            (cx + rng.gauss(0, 0.05), cy + rng.gauss(0, 0.05))
            for cx, cy in (rng.choice(centres) for _ in range(n))
        ]
    if kind == "skewed":
        hot = int(n * 0.7)
        pts = [(rng.gauss(5.0, 0.1), rng.random()) for _ in range(hot)]
        pts += [(rng.random() * 10.0, rng.random()) for _ in range(n - hot)]
        return pts
    if kind == "duplicates":
        distinct = [(rng.random(), rng.random()) for _ in range(max(1, n // 10))]
        return [rng.choice(distinct) for _ in range(n)]
    raise AssertionError(kind)


WORKLOADS = ["uniform", "clustered", "skewed", "duplicates"]


class TestSGBAnyEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", WORKLOADS)
    def test_auto_matches_serial(self, backend, kind):
        pts = _workload(kind, 300, seed=hash(kind) % 1000)
        ps = PointSet.from_any(pts, backend=backend)
        reference = sgb_any(ps, eps=0.2, workers=1)
        auto = sgb_any(ps, eps=0.2)
        assert auto.groups == reference.groups
        assert auto.plan is not None

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_forced_sharded_plan_matches_serial(self, backend, monkeypatch):
        # Make the planner pick sharded regardless of size, so the pool path
        # really runs even on small inputs and one-core machines.
        import repro.engine.cost as cost_mod

        def always_sharded(stats, eps, cpu_count=None):
            return PhysicalPlan(
                op="sgb_any", mode="sharded", workers=2, shards=4, reason="forced"
            )

        monkeypatch.setattr(cost_mod, "plan_sgb_any", always_sharded)
        for seed in range(3):
            pts = _workload("clustered", 400, seed=seed)
            ps = PointSet.from_any(pts, backend=backend)
            reference = sgb_any(ps, eps=0.15, workers=1)
            auto = sgb_any(ps, eps=0.15)
            assert auto.groups == reference.groups
            assert auto.plan.mode == "sharded"

    def test_eliminated_flag_and_labels_match(self):
        pts = _workload("uniform", 200, seed=5)
        reference = sgb_any(pts, eps=0.1, workers=1)
        auto = sgb_any(pts, eps=0.1)
        assert auto.labels() == reference.labels()
        assert auto.eliminated == reference.eliminated


class TestSGBAllEquivalence:
    @pytest.mark.parametrize("kind", ["uniform", "clustered"])
    def test_auto_matches_forced_modes(self, kind, monkeypatch):
        import repro.engine.cost as cost_mod

        pts = _workload(kind, 150, seed=11)
        baseline = sgb_all(pts, eps=0.2, on_overlap="eliminate")

        for mode in ("scalar", "frontier"):
            def force(stats, eps, frontier_eligible, _mode=mode):
                return PhysicalPlan(op="sgb_all", mode=_mode, reason="forced")

            monkeypatch.setattr(cost_mod, "plan_sgb_all", force)
            forced = sgb_all(pts, eps=0.2, on_overlap="eliminate")
            # The stub was consulted: result.plan is the plan it returned.
            assert forced.plan.mode == mode and forced.plan.reason == "forced"
            assert forced.groups == baseline.groups
            assert forced.eliminated == baseline.eliminated


class TestJoinEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_eps_join_auto_matches_serial(self, backend):
        left = PointSet.from_any(_workload("uniform", 250, seed=21), backend=backend)
        right = PointSet.from_any(_workload("clustered", 200, seed=22), backend=backend)
        reference = sim_join(left, right, eps=0.15, workers=1)
        auto = sim_join(left, right, eps=0.15)
        assert list(auto) == list(reference)
        assert auto.plan is not None

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_knn_join_auto_matches_serial(self, backend):
        left = PointSet.from_any(_workload("skewed", 150, seed=31), backend=backend)
        right = PointSet.from_any(_workload("uniform", 180, seed=32), backend=backend)
        reference = sim_join(left, right, k=3, workers=1)
        auto = sim_join(left, right, k=3)
        assert list(auto) == list(reference)

    def test_forced_sharded_join_matches_serial(self, monkeypatch):
        import repro.engine.cost as cost_mod

        def always_sharded(left, right, eps, cpu_count=None):
            return PhysicalPlan(
                op="eps_join", mode="sharded", workers=2, shards=4, reason="forced"
            )

        monkeypatch.setattr(cost_mod, "plan_eps_join", always_sharded)
        left = _workload("uniform", 300, seed=41)
        right = _workload("uniform", 300, seed=42)
        reference = sim_join(left, right, eps=0.1, workers=1)
        auto = sim_join(left, right, eps=0.1)
        assert list(auto) == list(reference)
        assert auto.plan.mode == "sharded"


class TestSQLEquivalence:
    def test_delegated_sql_matches_forced_serial(self, monkeypatch):
        from repro.minidb.database import Database

        rng = random.Random(7)
        rows = [(rng.random(), rng.random(), i % 5) for i in range(400)]
        sql = (
            "SELECT x, y, COUNT(*) AS n, SUM(v) AS s FROM pts "
            "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.1"
        )

        def run():
            db = Database()
            db.create_table("pts", [("x", "FLOAT"), ("y", "FLOAT"), ("v", "INT")])
            db.insert_rows("pts", rows)
            return db.execute(sql)

        reference = run().rows

        # Force the executor's delegated plan to sharded; rows must not change.
        import repro.minidb.exec.sgb as sgb_mod

        def always_sharded(stats, eps, cpu_count=None):
            return PhysicalPlan(
                op="sgb_any", mode="sharded", workers=2, shards=4, reason="forced"
            )

        monkeypatch.setattr(sgb_mod, "plan_sgb_any", always_sharded)
        forced = run()
        assert forced.rows == reference
        assert forced.plan is not None and forced.plan.mode == "sharded"
