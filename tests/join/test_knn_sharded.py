"""Sharded kNN-join: left-partition exactness and the serial fallbacks."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import InvalidParameterError
from repro.join import knn_join, knn_join_sharded


def _clustered_sides(seed: int, n: int = 150):
    rng = random.Random(seed)
    centers = [(rng.uniform(0, 20), rng.uniform(0, 20)) for _ in range(8)]
    left, right = [], []
    for i in range(n):
        cx, cy = centers[rng.randrange(len(centers))]
        pt = (cx + rng.gauss(0, 0.5), cy + rng.gauss(0, 0.5))
        (left if i % 3 else right).append(pt)
    return left, right


class TestShardedExactness:
    @pytest.mark.parametrize("shards", [2, 3, 5])
    def test_forced_shards_match_serial(self, shards):
        left, right = _clustered_sides(7)
        serial = knn_join(left, right, 3, workers=1)
        sharded = knn_join_sharded(left, right, 3, workers=2, shards=shards)
        assert sharded == serial

    @pytest.mark.parametrize("metric", ["L2", "LINF", "L1"])
    def test_metrics_match_serial(self, metric):
        left, right = _clustered_sides(13, n=90)
        serial = knn_join(left, right, 2, metric=metric, workers=1)
        assert knn_join_sharded(
            left, right, 2, metric=metric, workers=2, shards=3
        ) == serial

    def test_pool_execution_matches_serial(self):
        left, right = _clustered_sides(19, n=300)
        serial = knn_join(left, right, 3, workers=1)
        assert knn_join_sharded(left, right, 3, workers=2) == serial

    def test_workers_route_through_knn_join(self):
        # The public knn_join entry point dispatches to the sharded path
        # whenever the resolved worker count allows it.
        left, right = _clustered_sides(23, n=300)
        serial = knn_join(left, right, 3, workers=1)
        assert knn_join(left, right, 3, workers=2) == serial

    def test_k_exceeding_right_side(self):
        left, right = _clustered_sides(29, n=45)
        serial = knn_join(left, right, len(right) + 5, workers=1)
        sharded = knn_join_sharded(left, right, len(right) + 5, workers=2, shards=3)
        assert sharded == serial
        assert len(sharded) == len(left) * len(right)

    def test_duplicate_and_boundary_points(self):
        # Ties and duplicates stress the (distance, right_index) rank order;
        # the merge must preserve it shard by shard.
        left = [(0.0, 0.0), (1.0, 1.0), (0.0, 0.0), (2.0, 2.0), (1.0, 1.0),
                (3.0, 0.0), (0.0, 3.0), (1.5, 1.5)]
        right = [(1.0, 0.0), (0.0, 1.0), (1.0, 0.0), (2.0, 2.0), (1.0, 1.0)]
        serial = knn_join(left, right, 3, workers=1)
        assert knn_join_sharded(left, right, 3, workers=2, shards=4) == serial


class TestShardedFallbacks:
    def test_empty_sides(self):
        assert knn_join_sharded([], [(0.0, 0.0)], 2) == []
        assert knn_join_sharded([(0.0, 0.0)], [], 2) == []

    def test_degenerate_left_extent_falls_back_to_serial(self):
        # All left points at one location: no cut exists, the entry point
        # must still return the exact join.
        left = [(5.0, 5.0)] * 12
        right = [(float(i), 0.0) for i in range(10)]
        serial = knn_join(left, right, 2, workers=1)
        assert knn_join_sharded(left, right, 2, workers=2, shards=4) == serial

    def test_tiny_input_stays_serial(self):
        left = [(0.0, 0.0), (1.0, 0.0)]
        right = [(0.5, 0.0)]
        assert knn_join_sharded(left, right, 1, workers=2) == [(0, 0), (1, 0)]

    def test_invalid_k_rejected(self):
        with pytest.raises(InvalidParameterError):
            knn_join_sharded([(0.0, 0.0)], [(1.0, 0.0)], 0)
