"""Sharded eps-join: partition/stitch exactness and the pool fallbacks."""

from __future__ import annotations

import random

import pytest

from repro.engine.partition import partition_pointset
from repro.engine.cost import ENV_WORKERS
from repro.core.pointset import PointSet
from repro.join import eps_join, eps_join_sharded

EPS = 1.0


def _boundary_heavy_sides(seed=23, n=120):
    """Points deliberately crowded around eps-grid lines along x.

    Chains that stradde slab cuts are the hard case for halo stitching:
    every cross pair discovered in a band must be emitted exactly once.
    """
    rng = random.Random(seed)
    left, right = [], []
    for i in range(n):
        cell = rng.randrange(0, 12)
        x = cell * EPS + rng.choice([0.02, 0.5, 0.98])  # hug the grid lines
        y = rng.uniform(0, 3.0)
        (left if i % 2 else right).append((x, y))
    # Exact-boundary pairs across a grid line.
    left.append((3.0, 1.0))
    right.append((4.0, 1.0))  # distance exactly EPS, cells 2/3 vs 4
    right.append((3.0, 1.0))  # duplicate of a left point
    return left, right


class TestShardedExactness:
    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_forced_shards_match_serial(self, shards):
        left, right = _boundary_heavy_sides()
        serial = eps_join(left, right, EPS, workers=1)
        assert eps_join_sharded(left, right, EPS, shards=shards) == serial

    def test_no_duplicate_pairs_from_the_bands(self):
        left, right = _boundary_heavy_sides(seed=31)
        pairs = eps_join_sharded(left, right, EPS, shards=4)
        assert len(pairs) == len(set(pairs))

    def test_single_sided_slabs_contribute_nothing(self):
        # All left points low, all right points high: most slabs hold one
        # side only; only the pairs near the split can (and must) survive.
        left = [(float(i) * 0.3, 0.0) for i in range(40)]
        right = [(12.0 + i * 0.3, 0.0) for i in range(40)]
        serial = eps_join(left, right, EPS, workers=1)
        assert eps_join_sharded(left, right, EPS, shards=3) == serial

    def test_degenerate_input_falls_back_to_serial(self):
        # One occupied cell: no valid cut exists, the sharded entry point
        # must still return the exact join.
        left = [(0.1, 0.1), (0.2, 0.2)]
        right = [(0.15, 0.15)]
        assert eps_join_sharded(left, right, EPS, shards=4) == eps_join(
            left, right, EPS, workers=1
        )

    def test_combined_partition_is_reused_from_the_engine(self):
        # The join shards on the union of both relations with the engine's
        # partitioner; sanity-check the union really is cuttable here so the
        # forced-shards tests above exercise the sharded path, not fallback.
        left, right = _boundary_heavy_sides(seed=47)
        combined = PointSet.concat(
            [PointSet.from_any(left), PointSet.from_any(right)]
        )
        assert partition_pointset(combined, EPS, 3) is not None


class TestWorkerPoolPath:
    def test_pool_execution_matches_serial(self):
        left, right = _boundary_heavy_sides(seed=59, n=200)
        serial = eps_join(left, right, EPS, workers=1)
        assert eps_join(left, right, EPS, workers=2) == serial

    def test_env_workers_are_honoured(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "2")
        monkeypatch.setattr("repro.engine.cost.MIN_PARALLEL_POINTS", 8)
        left, right = _boundary_heavy_sides(seed=61, n=150)
        assert eps_join(left, right, EPS) == eps_join(left, right, EPS, workers=1)

    def test_below_the_parallel_floor_stays_serial(self):
        left = [(0.0, 0.0), (1.0, 1.0)]
        right = [(0.1, 0.1)]
        # Tiny payloads plan serial even with workers requested; the result
        # is the exact join either way.
        assert eps_join(left, right, EPS, workers=2) == [(0, 0)]
