"""Unit tests for the sharded SGB engine: partitioner, planner, merge stage.

The load-bearing invariant is the halo-band completeness check: every
within-eps pair that crosses a shard boundary must land with *both* endpoints
inside the halo band of that boundary, because those bands are the only place
cross-shard edges are ever discovered.
"""

from __future__ import annotations

import random

import pytest

from repro.core.pointset import HAVE_NUMPY, PointSet
from repro.dstruct.union_find import UnionFind
from repro.engine.merge import canonical_groups, merge_shard_forests
from repro.engine.partition import partition_pointset
from repro.engine.cost import ENV_WORKERS, forced_plan, resolve_workers
from repro.exceptions import InvalidParameterError

BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])


def _clustered(n, seed, dims=2):
    rng = random.Random(seed)
    centers = [tuple(rng.uniform(0, 30) for _ in range(dims)) for _ in range(8)]
    pts = []
    for _ in range(n):
        if rng.random() < 0.8:
            c = rng.choice(centers)
            pts.append(tuple(x + rng.uniform(-0.8, 0.8) for x in c))
        else:
            pts.append(tuple(rng.uniform(0, 30) for _ in range(dims)))
    return pts


class TestPartitioner:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dims", [2, 3])
    def test_shards_partition_the_input(self, backend, dims):
        ps = PointSet.from_any(_clustered(400, seed=3, dims=dims), backend=backend)
        part = partition_pointset(ps, eps=0.9, n_shards=4)
        assert part is not None
        all_indices = sorted(i for shard in part.shards for i in shard.indices)
        assert all_indices == list(range(len(ps)))
        assert part.n_points == len(ps)
        for shard in part.shards:
            assert len(shard.points) == len(shard.indices)

    def test_cuts_keep_minimum_slab_width(self):
        ps = PointSet.from_any(_clustered(500, seed=5))
        part = partition_pointset(ps, eps=0.5, n_shards=6)
        assert part is not None
        cuts = part.cut_cells
        assert all(b - a >= 2 for a, b in zip(cuts, cuts[1:]))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_halo_bands_cover_every_cross_shard_edge(self, backend):
        eps = 0.9
        ps = PointSet.from_any(_clustered(350, seed=7), backend=backend)
        part = partition_pointset(ps, eps=eps, n_shards=3)
        assert part is not None
        shard_of = {}
        for shard in part.shards:
            for i in shard.indices:
                shard_of[i] = shard.sid
        band_sets = [set(band.indices) for band in part.bands]
        for i, j in ps.pairwise_within(eps):
            if shard_of[i] == shard_of[j]:
                continue
            assert abs(shard_of[i] - shard_of[j]) == 1
            assert any(i in band and j in band for band in band_sets), (
                f"cross-shard edge ({i}, {j}) missed by every halo band"
            )

    def test_band_membership_matches_flanking_cells(self):
        import math

        eps = 0.7
        ps = PointSet.from_any(_clustered(300, seed=11))
        part = partition_pointset(ps, eps=eps, n_shards=3)
        assert part is not None
        axis = part.axis
        for band in part.bands:
            expected = {
                i
                for i in range(len(ps))
                if math.floor(ps.point(i)[axis] / eps) in (band.cut_cell - 1, band.cut_cell)
            }
            assert set(band.indices) == expected

    def test_degenerate_inputs_fall_back_to_serial(self):
        assert partition_pointset(PointSet.from_any([(1.0, 2.0)]), 0.5, 4) is None
        same = PointSet.from_any([(3.0, 3.0)] * 50)
        assert partition_pointset(same, 0.5, 4) is None
        ps = PointSet.from_any(_clustered(100, seed=1))
        assert partition_pointset(ps, 0.5, 1) is None

    def test_invalid_parameters_raise(self):
        ps = PointSet.from_any(_clustered(50, seed=2))
        with pytest.raises(InvalidParameterError):
            partition_pointset(ps, eps=0.0, n_shards=2)
        with pytest.raises(InvalidParameterError):
            partition_pointset(ps, eps=0.5, n_shards=2, axis=5)

    def test_explicit_axis_is_honoured(self):
        ps = PointSet.from_any(_clustered(300, seed=4, dims=3))
        part = partition_pointset(ps, eps=0.9, n_shards=2, axis=1)
        assert part is not None
        assert part.axis == 1


class TestPlanner:
    def test_explicit_workers_win_over_environment(self, monkeypatch):
        monkeypatch.setenv(ENV_WORKERS, "8")
        assert resolve_workers(3, cpu_count=8) == 3
        assert resolve_workers(None, cpu_count=8) == 8

    def test_environment_default_and_serial_fallback(self, monkeypatch):
        monkeypatch.delenv(ENV_WORKERS, raising=False)
        assert resolve_workers(None) == 1
        monkeypatch.setenv(ENV_WORKERS, "")
        assert resolve_workers(None) == 1

    def test_auto_uses_cpu_count(self):
        import os

        assert resolve_workers("auto") == (os.cpu_count() or 1)
        assert resolve_workers(0) == (os.cpu_count() or 1)

    def test_invalid_workers_raise(self, monkeypatch):
        with pytest.raises(InvalidParameterError):
            resolve_workers("three")
        with pytest.raises(InvalidParameterError):
            resolve_workers(-2)
        monkeypatch.setenv(ENV_WORKERS, "not-a-number")
        with pytest.raises(InvalidParameterError):
            resolve_workers(None)

    def test_small_payloads_stay_serial(self):
        plan = forced_plan("sgb_any", 10, workers=4, cpu_count=8)
        assert plan.mode == "serial" and not plan.parallel and plan.workers == 1

    def test_min_points_constant_override(self, monkeypatch):
        monkeypatch.setattr("repro.engine.cost.MIN_PARALLEL_POINTS", 5)
        plan = forced_plan("sgb_any", 10, workers=4, cpu_count=8)
        assert plan.mode == "sharded" and plan.parallel

    def test_parallel_plan_shape(self):
        plan = forced_plan("sgb_any", 10_000, workers=4, cpu_count=8)
        assert plan.mode == "sharded"
        assert plan.workers == 4 and plan.shards == 4

    def test_auto_is_capped_by_cpu_count(self):
        plan = forced_plan("sgb_any", 10_000, workers="auto", cpu_count=2)
        assert plan.workers <= 2


class TestMergeStage:
    def test_merge_combines_forests_and_boundary_edges(self):
        # Shard 0 holds rows [0, 1, 2] grouped {0,1}+{2}; shard 1 holds rows
        # [3, 4] grouped {3,4}; the boundary edge (2, 3) bridges the shards.
        uf = merge_shard_forests(
            5,
            [[0, 1, 2], [3, 4]],
            [{0: 0, 1: 0, 2: 2}, {0: 0, 1: 0}],
            [(2, 3)],
        )
        assert uf.connected(0, 1)
        assert uf.connected(2, 3) and uf.connected(2, 4)
        assert not uf.connected(0, 2)
        assert canonical_groups(uf) == [[0, 1], [2, 3, 4]]

    def test_unsharded_rows_survive_as_singletons(self):
        uf = merge_shard_forests(3, [], [], [])
        assert canonical_groups(uf) == [[0], [1], [2]]

    def test_canonical_groups_order(self):
        uf = UnionFind(range(6))
        uf.union(5, 2)
        uf.union(4, 1)
        assert canonical_groups(uf) == [[0], [1, 4], [2, 5], [3]]
