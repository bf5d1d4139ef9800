"""Acceptance: the planner-chosen mode is never far behind the best forced mode.

At 10k and 50k points the delegated "auto" path must stay within 1.3x of
the fastest forced mode (serial batch, or the sharded engine at 2/4
workers).  The strict ratio check needs real parallel hardware, so — like
the parallel-scaling acceptance — it runs only on machines with at least 4
CPU cores and is skipped (not silently passed) elsewhere; the
decision-shape assertions run everywhere.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.api import sgb_any
from repro.engine.cost import ENV_WORKERS
from repro.workloads.synthetic import clustered_points

EPS = 0.3
SIZES = (10_000, 50_000)
FORCED_WORKERS = (1, 2, 4)
_CPUS = os.cpu_count() or 1
SLACK = 1.3


@pytest.fixture(autouse=True)
def _delegated_environment(monkeypatch):
    monkeypatch.delenv(ENV_WORKERS, raising=False)


def _points(n: int):
    return clustered_points(
        n, clusters=max(20, n // 250), spread=0.005, low=0.0, high=100.0, seed=23
    )


def _timed(fn, repeats=2):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.mark.parametrize("n", SIZES)
class TestPlannerDecisionQuality:
    def test_auto_result_matches_every_forced_mode(self, n):
        points = _points(n)
        auto = sgb_any(points, eps=EPS)
        assert auto.plan is not None
        for workers in FORCED_WORKERS:
            if workers > 1 and _CPUS < 2:
                continue
            forced = sgb_any(points, eps=EPS, workers=workers)
            assert forced.groups == auto.groups

    @pytest.mark.skipif(
        _CPUS < 4, reason="ratio acceptance needs >=4 cores to be meaningful"
    )
    def test_auto_within_slack_of_best_forced(self, n):
        points = _points(n)
        # Warm the pools outside the timed region.
        for workers in FORCED_WORKERS[1:]:
            sgb_any(points[:2048], eps=EPS, workers=workers)
        sgb_any(points[:2048], eps=EPS)

        forced_times = {}
        for workers in FORCED_WORKERS:
            forced_times[workers], _ = _timed(
                lambda w=workers: sgb_any(points, eps=EPS, workers=w)
            )
        auto_time, auto = _timed(lambda: sgb_any(points, eps=EPS))
        best = min(forced_times.values())
        assert auto_time <= best * SLACK, (
            f"auto={auto_time:.3f}s (plan {auto.plan.describe()}) vs "
            f"best forced {best:.3f}s {forced_times}"
        )
