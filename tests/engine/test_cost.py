"""Planner decision regression suite and the worker-clamp contract.

Pins the cost planner's mode choice for the canonical scenarios: tiny
batches stay serial, large uniform batches shard one slab per worker,
skewed batches over-decompose (fan-out > workers), and SGB-All never
shards and reports the path its grouper takes.  All scenarios pin
``cpu_count`` so they are machine-independent (the unit costs are a
constant).
"""

from __future__ import annotations

import random
import warnings

import pytest

from repro.core.api import sgb_any
from repro.core.pointset import PointSet
from repro.engine.cost import (
    ENV_WORKERS,
    forced_plan,
    plan_eps_join,
    plan_knn_join,
    plan_sgb_all,
    plan_sgb_any,
    plan_stream_flush,
    planner_delegated,
    resolve_workers,
)
from repro.engine.stats import collect_stats, synthetic_stats
from repro.join import eps_join
from repro.minidb import Database


def _skewed_stats(count=60_000, hot_fraction=0.7, seed=42):
    """Statistics of a hot-cluster-plus-uniform-background distribution.

    The gaussian cluster spans a few histogram bins, so equal-count cuts at
    one-slab-per-worker are capped by the hot bins while a finer fan-out can
    still split the cluster — exactly the shape that rewards F > W.
    """
    rng = random.Random(seed)
    hot = int(count * hot_fraction)
    pts = [(rng.gauss(5.0, 0.3), rng.random()) for _ in range(hot)]
    pts += [(rng.random() * 10.0, rng.random()) for _ in range(count - hot)]
    return collect_stats(PointSet.from_any(pts))


class TestDelegation:
    def test_no_workers_and_no_env_delegates(self, monkeypatch):
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        assert planner_delegated(None)

    def test_auto_and_zero_delegate(self):
        assert planner_delegated("auto")
        assert planner_delegated(" AUTO ")
        assert planner_delegated(0)

    def test_numeric_argument_is_forced(self):
        assert not planner_delegated(1)
        assert not planner_delegated(4)
        assert not planner_delegated("3")

    def test_numeric_environment_is_forced(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "2")
        assert not planner_delegated(None)

    def test_auto_environment_delegates(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "auto")
        assert planner_delegated(None)
        monkeypatch.setenv(ENV_WORKERS, "0")
        assert planner_delegated(None)


class TestSGBAnyDecisions:
    def test_tiny_batch_stays_scalar(self):
        plan = plan_sgb_any(synthetic_stats(10), 0.1, cpu_count=8)
        assert plan.mode == "scalar" and not plan.parallel

    def test_small_batch_stays_serial_batch(self):
        plan = plan_sgb_any(synthetic_stats(500), 0.1, cpu_count=8)
        assert plan.mode == "batch" and not plan.parallel

    def test_single_core_never_shards(self):
        plan = plan_sgb_any(synthetic_stats(500_000), 0.004, cpu_count=1)
        assert plan.mode == "batch" and not plan.parallel

    def test_large_uniform_shards_one_slab_per_worker(self):
        plan = plan_sgb_any(synthetic_stats(500_000), 0.004, cpu_count=8)
        assert plan.mode == "sharded"
        assert plan.workers == 8
        assert plan.shards == 8

    def test_skewed_batch_over_decomposes(self):
        stats = _skewed_stats()
        assert stats.axis_imbalance(0) > 1.5
        plan = plan_sgb_any(stats, 0.02, cpu_count=8)
        assert plan.mode == "sharded"
        assert plan.shards > plan.workers

    def test_details_table_names_every_candidate(self):
        plan = plan_sgb_any(synthetic_stats(500_000), 0.004, cpu_count=8)
        assert "batch" in plan.details
        assert any(key.startswith("sharded@") for key in plan.details)

    def test_describe_mentions_mode_and_cost(self):
        plan = plan_sgb_any(synthetic_stats(100), 0.1, cpu_count=8)
        text = plan.describe()
        assert "sgb_any" in text and "mode=" in text and "est_cost=" in text


class TestSGBAllDecisions:
    def test_never_sharded(self):
        for count in (10, 1000, 500_000):
            for eligible in (False, True):
                plan = plan_sgb_all(synthetic_stats(count), 0.004, eligible)
                assert plan.workers == 1 and plan.shards == 1
                assert plan.mode in ("scalar", "frontier")

    def test_tiny_scalar_large_frontier(self):
        # The mode follows the grouper's frontier eligibility at every size.
        for count in (8, 10_000):
            assert plan_sgb_all(synthetic_stats(count), 0.1, False).mode == "scalar"
            assert plan_sgb_all(synthetic_stats(count), 0.1, True).mode == "frontier"


class TestJoinDecisions:
    def test_tiny_join_prefers_allpairs(self):
        plan = plan_eps_join(synthetic_stats(20), synthetic_stats(20), 0.5, cpu_count=8)
        assert plan.mode == "allpairs"

    def test_selective_join_prefers_grid(self):
        plan = plan_eps_join(
            synthetic_stats(5000),
            synthetic_stats(5000),
            0.001,
            cpu_count=1,
        )
        assert plan.mode == "grid"

    def test_huge_selective_join_shards(self):
        plan = plan_eps_join(
            synthetic_stats(400_000),
            synthetic_stats(400_000),
            0.01,
            cpu_count=8,
        )
        assert plan.mode == "sharded" and plan.workers == 8

    def test_knn_small_serial_large_sharded(self):
        small = plan_knn_join(
            synthetic_stats(100), synthetic_stats(100), 4, cpu_count=8
        )
        assert small.mode == "serial"
        large = plan_knn_join(
            synthetic_stats(2_000_000),
            synthetic_stats(2_000_000),
            4,
            cpu_count=8,
        )
        assert large.mode == "sharded"

    def test_join_estimates_track_histogram_overlap(self):
        rng = random.Random(0)
        near = collect_stats(
            PointSet.from_any([(rng.random(), rng.random()) for _ in range(500)])
        )
        far = collect_stats(
            PointSet.from_any(
                [(rng.random() + 50.0, rng.random()) for _ in range(500)]
            )
        )
        overlapping = plan_eps_join(near, near, 0.05, cpu_count=1)
        disjoint = plan_eps_join(near, far, 0.05, cpu_count=1)
        assert overlapping.est_rows > disjoint.est_rows == 0


class TestStreamDecisions:
    def test_small_window_stays_incremental(self):
        plan = plan_stream_flush(256, 0.05, cpu_count=8)
        assert plan.mode == "incremental"

    def test_single_core_stays_incremental(self):
        plan = plan_stream_flush(1_000_000, 0.001, cpu_count=1)
        assert plan.mode == "incremental"


class TestWorkerClamp:
    """Satellite: numeric worker requests above capacity clamp with a warning."""

    def test_argument_clamped_with_warning(self):
        with pytest.warns(RuntimeWarning, match="clamping the pool"):
            assert resolve_workers(16, cpu_count=2) == 2

    def test_environment_clamped_with_warning(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "16")
        monkeypatch.setattr("repro.engine.cost.os.cpu_count", lambda: 2)
        with pytest.warns(RuntimeWarning, match="clamping the pool"):
            assert resolve_workers(None) == 2

    def test_forced_plan_numeric_path_clamped(self):
        with pytest.warns(RuntimeWarning, match="clamping the pool"):
            plan = forced_plan("sgb_any", 100_000, workers=64, cpu_count=4)
        assert plan.mode == "sharded" and plan.workers == 4

    def test_within_capacity_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_workers(4, cpu_count=8) == 4

    def test_cap_never_below_two(self):
        # The forced-parallel CI lane (SGB_WORKERS=2) must keep a real pool
        # even on one-core machines.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert resolve_workers(2, cpu_count=1) == 2


def _forced_sql(points):
    db = Database()
    db.create_table("pts", [("x", "FLOAT"), ("y", "FLOAT")])
    db.insert_rows("pts", points)
    return db.execute(
        "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.3 WORKERS 16"
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda pts: sgb_any(pts, 0.3, workers=16),
        lambda pts: eps_join(pts, pts, 0.3, workers=16),
        _forced_sql,
    ],
    ids=["sgb_any", "eps_join", "sql"],
)
def test_forced_call_warns_once_about_the_clamp(call, monkeypatch):
    """A forced call resolves its worker count once, so it warns once."""
    monkeypatch.delenv(ENV_WORKERS, raising=False)
    monkeypatch.setattr("repro.engine.cost.os.cpu_count", lambda: 2)
    rng = random.Random(7)
    points = [(rng.random() * 10.0, rng.random() * 10.0) for _ in range(200)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call(points)
    clamps = [w for w in caught if "clamping the pool" in str(w.message)]
    assert [w.category for w in clamps] == [RuntimeWarning]
