"""Frontier-based batch SGB-All: parity with the per-point reference paths.

The frontier path pre-computes the whole batch's eps-adjacency in one sweep
and verifies each point against entire candidate groups at once.  It only
engages where the per-point candidate decision is a pure adjacency function
(ALL_PAIRS always; LINF any dims; L2 in 2-d where the hull test is exact) —
everywhere else ``add_batch`` silently keeps the per-point loop.  Either
way the results must be bit-identical to the scalar ``batch=False`` path:
same groups, same eliminated set, same point order.
"""

from __future__ import annotations

import random

import pytest

from repro.core.api import sgb_all
from repro.core.pointset import HAVE_NUMPY

BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])
OVERLAPS = ["JOIN-ANY", "ELIMINATE", "FORM-NEW-GROUP"]
STRATEGIES = ["all-pairs", "bounds-checking", "index"]


def _clustered(seed: int, n: int = 120, dims: int = 2):
    rng = random.Random(seed)
    centers = [
        tuple(rng.uniform(0, 10) for _ in range(dims)) for _ in range(5)
    ]
    return [
        tuple(c + rng.gauss(0, 0.35) for c in centers[rng.randrange(len(centers))])
        for _ in range(n)
    ]


def _assert_parity(points, **kwargs):
    frontier = sgb_all(points, batch=True, **kwargs)
    scalar = sgb_all(points, batch=False, **kwargs)
    assert frontier.groups == scalar.groups
    assert frontier.eliminated == scalar.eliminated
    assert frontier.points == scalar.points


class TestFrontierParity:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("on_overlap", OVERLAPS)
    @pytest.mark.parametrize("seed", [3, 17])
    def test_l2_2d(self, strategy, on_overlap, seed):
        _assert_parity(
            _clustered(seed), eps=0.5, metric="L2",
            on_overlap=on_overlap, strategy=strategy,
        )

    @pytest.mark.parametrize("on_overlap", OVERLAPS)
    @pytest.mark.parametrize("dims", [2, 3])
    def test_linf_any_dims(self, on_overlap, dims):
        _assert_parity(
            _clustered(29, dims=dims), eps=0.5, metric="LINF",
            on_overlap=on_overlap, strategy="index",
        )

    @pytest.mark.parametrize("metric", ["L1", "L2"])
    @pytest.mark.parametrize("on_overlap", OVERLAPS)
    def test_ineligible_configs_fall_back_unchanged(self, metric, on_overlap):
        # L1 (any dims) and L2 beyond 2-d use rectangle filters that accept
        # false positives, so the frontier gate must refuse them on indexed
        # strategies — parity still holds because the per-point loop runs.
        _assert_parity(
            _clustered(41, dims=3), eps=0.6, metric=metric,
            on_overlap=on_overlap, strategy="index",
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_agree(self, backend):
        from repro.core.pointset import PointSet

        points = PointSet.from_any(_clustered(53), backend=backend)
        frontier = sgb_all(points, eps=0.5, on_overlap="ELIMINATE", batch=True)
        scalar = sgb_all(points, eps=0.5, on_overlap="ELIMINATE", batch=False)
        assert frontier.groups == scalar.groups
        assert frontier.eliminated == scalar.eliminated

    def test_dense_single_cluster_all_pairs(self):
        # Everything within eps of everything: one group, zero eliminations,
        # the strongest case for whole-frontier verification.
        rng = random.Random(61)
        points = [(rng.gauss(0, 0.05), rng.gauss(0, 0.05)) for _ in range(80)]
        _assert_parity(points, eps=1.0, on_overlap="JOIN-ANY", strategy="all-pairs")

    def test_consecutive_batches_see_prior_points(self):
        # The adjacency sweep must include edges to points from earlier
        # batches, not just within the incoming batch.
        from repro.core.sgb_all import SGBAllGrouper

        points = _clustered(71, n=90)
        reference = sgb_all(points, eps=0.5, on_overlap="ELIMINATE", batch=False)

        grouper = SGBAllGrouper(eps=0.5, on_overlap="ELIMINATE")
        for start in range(0, len(points), 30):
            grouper.add_batch(points[start:start + 30])
        result = grouper.finalize()
        assert result.groups == reference.groups
        assert result.eliminated == reference.eliminated

    def test_empty_batch_is_a_noop(self):
        from repro.core.sgb_all import SGBAllGrouper

        grouper = SGBAllGrouper(eps=0.5)
        grouper.add_batch([])
        assert grouper.finalize().groups == []
