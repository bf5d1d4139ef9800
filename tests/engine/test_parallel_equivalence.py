"""Randomized equivalence: parallel shards == serial batch == scalar.

The acceptance bar of the sharded engine: for any input, worker count, and
shard count, the parallel group assignments are identical — same canonical
``GroupingResult`` — to the serial batch pipeline and to the scalar
point-at-a-time reference path.  Covers dims 2–4, duplicate points, clusters
deliberately straddling shard boundaries, both metrics, and both PointSet
backends; worker counts 2 and 4 exercise the real process pool.
"""

from __future__ import annotations

import random

import pytest

from repro.core.api import sgb_any
from repro.core.pointset import HAVE_NUMPY, PointSet
from repro.core.sgb_any import sgb_any_grouping
from repro.engine import sgb_any_sharded

BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])
WORKER_COUNTS = [1, 2, 4]


def _clustered(n, seed, dims=2, duplicate_fraction=0.0):
    rng = random.Random(seed)
    centers = [tuple(rng.uniform(0, 25) for _ in range(dims)) for _ in range(7)]
    pts = []
    for _ in range(n):
        if rng.random() < 0.8:
            c = rng.choice(centers)
            pts.append(tuple(x + rng.uniform(-0.7, 0.7) for x in c))
        else:
            pts.append(tuple(rng.uniform(0, 25) for _ in range(dims)))
    duplicates = int(n * duplicate_fraction)
    for _ in range(duplicates):
        pts.append(pts[rng.randrange(len(pts))])
    rng.shuffle(pts)
    return pts


def _key(result):
    return (result.groups, result.eliminated, result.points)


class TestParallelEquivalence:
    @pytest.mark.parametrize("dims", [2, 3, 4])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_workers_match_serial_and_scalar(self, dims, seed):
        pts = _clustered(300, seed=seed, dims=dims)
        scalar = sgb_any_grouping(pts, eps=0.9, batch=False)
        serial = sgb_any_grouping(pts, eps=0.9, batch=True)
        assert _key(serial) == _key(scalar)
        for workers in WORKER_COUNTS:
            parallel = sgb_any_sharded(pts, eps=0.9, workers=workers, shards=4)
            assert _key(parallel) == _key(scalar), f"workers={workers}, dims={dims}"

    @pytest.mark.parametrize("metric", ["L2", "LINF"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_metrics_and_backends(self, metric, backend):
        ps = PointSet.from_any(_clustered(250, seed=9), backend=backend)
        scalar = sgb_any_grouping(ps, eps=1.1, metric=metric, batch=False)
        for workers in (1, 2):
            parallel = sgb_any_sharded(ps, eps=1.1, metric=metric, workers=workers, shards=3)
            assert _key(parallel) == _key(scalar)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_duplicate_points(self, seed):
        pts = _clustered(200, seed=seed, duplicate_fraction=0.3)
        scalar = sgb_any_grouping(pts, eps=0.8, batch=False)
        for workers in WORKER_COUNTS:
            parallel = sgb_any_sharded(pts, eps=0.8, workers=workers, shards=3)
            assert _key(parallel) == _key(scalar)

    def test_boundary_straddling_chain_stays_one_group(self):
        # A chain spaced at 0.9 * eps spanning the whole extent: every cut
        # severs it spatially, and only the halo-band merge can reconnect it.
        eps = 1.0
        pts = [(0.9 * i, 0.0) for i in range(120)]
        rng = random.Random(13)
        rng.shuffle(pts)
        scalar = sgb_any_grouping(pts, eps=eps, batch=False)
        assert len(scalar.groups) == 1
        for workers in WORKER_COUNTS:
            for shards in (2, 3, 4, 8):
                parallel = sgb_any_sharded(pts, eps=eps, workers=workers, shards=shards)
                assert _key(parallel) == _key(scalar), (workers, shards)

    def test_boundary_straddling_clusters(self):
        # Tight clusters centred exactly on eps-grid lines, so shard cuts run
        # through the middle of a cluster whenever one lands on the boundary.
        eps = 0.5
        rng = random.Random(21)
        pts = []
        for c in range(10):
            center = (c * 3.0, 0.0)  # multiples of eps
            for _ in range(30):
                pts.append(
                    (
                        center[0] + rng.uniform(-0.2, 0.2),
                        center[1] + rng.uniform(-0.2, 0.2),
                    )
                )
        rng.shuffle(pts)
        scalar = sgb_any_grouping(pts, eps=eps, batch=False)
        for workers in WORKER_COUNTS:
            parallel = sgb_any_sharded(pts, eps=eps, workers=workers, shards=4)
            assert _key(parallel) == _key(scalar)


class TestApiIntegration:
    def test_api_workers_parameter(self):
        pts = _clustered(400, seed=6)
        baseline = sgb_any(pts, eps=0.9)
        for workers in (2, "auto"):
            assert _key(sgb_any(pts, eps=0.9, workers=workers)) == _key(baseline)

    def test_environment_default_routes_through_engine(self, monkeypatch):
        monkeypatch.setenv("SGB_WORKERS", "2")
        monkeypatch.setattr("repro.engine.cost.MIN_PARALLEL_POINTS", 32)
        pts = _clustered(300, seed=8)
        monkeypatch.delenv("SGB_WORKERS", raising=False)
        baseline = sgb_any(pts, eps=0.9)
        monkeypatch.setenv("SGB_WORKERS", "2")
        assert _key(sgb_any(pts, eps=0.9)) == _key(baseline)

    def test_explicit_index_factory_pins_serial_path(self):
        from repro.spatial.rtree import RTree

        pts = _clustered(200, seed=12)
        baseline = sgb_any(pts, eps=0.9)
        with_index = sgb_any(
            pts, eps=0.9, workers=2, index_factory=lambda: RTree(max_entries=8)
        )
        assert _key(with_index) == _key(baseline)

    def test_empty_and_tiny_inputs(self):
        assert sgb_any_sharded([], eps=0.5, workers=2).groups == []
        single = sgb_any_sharded([(1.0, 1.0)], eps=0.5, workers=4)
        assert single.groups == [[0]]
