"""Randomized interleaved ``add`` / ``add_batch`` ingestion parity.

The streaming subsystem feeds groupers with arbitrary mixes of scalar and
batched admissions, so the invariant behind it is checked head-on here: any
interleaving of ``add`` calls and ``add_batch`` chunks over the same point
sequence must be bit-identical to the pure-scalar reference, on both
PointSet backends and for both operators.
"""

from __future__ import annotations

import random

import pytest

from repro.core.pointset import HAVE_NUMPY, PointSet
from repro.core.sgb_all import SGBAllGrouper
from repro.core.sgb_any import SGBAnyGrouper

BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])


def _clustered(n, seed, dims=2):
    rng = random.Random(seed)
    centers = [tuple(rng.uniform(0, 15) for _ in range(dims)) for _ in range(5)]
    pts = []
    for _ in range(n):
        if rng.random() < 0.75:
            c = rng.choice(centers)
            pts.append(tuple(x + rng.uniform(-0.6, 0.6) for x in c))
        else:
            pts.append(tuple(rng.uniform(0, 15) for _ in range(dims)))
    return pts


def _mixed_ingest(grouper, points, seed, backend):
    """Feed ``points`` through a random mix of add / add_batch calls."""
    rng = random.Random(seed * 131 + 17)
    i = 0
    while i < len(points):
        if rng.random() < 0.4:
            grouper.add(points[i])
            i += 1
        else:
            size = rng.choice([0, 1, 2, 5, 9])
            chunk = points[i : i + size]
            if chunk:
                chunk = PointSet.from_any(chunk, backend=backend)
            grouper.add_batch(chunk)
            i += size


def _result_key(result):
    return (result.groups, result.eliminated, result.points)


class TestSgbAnyInterleaving:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("metric", ["L2", "LINF"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mixed_sequences_match_scalar_reference(self, backend, metric, seed):
        points = _clustered(180, seed)
        reference = SGBAnyGrouper(eps=0.9, metric=metric)
        reference.add_all(points)
        mixed = SGBAnyGrouper(eps=0.9, metric=metric)
        _mixed_ingest(mixed, points, seed, backend)
        assert _result_key(mixed.finalize()) == _result_key(reference.finalize())

    @pytest.mark.parametrize("seed", [4, 5])
    def test_mixed_sequences_in_higher_dims(self, seed):
        points = _clustered(120, seed, dims=4)
        reference = SGBAnyGrouper(eps=1.2)
        reference.add_all(points)
        mixed = SGBAnyGrouper(eps=1.2)
        _mixed_ingest(mixed, points, seed, BACKENDS[-1])
        assert _result_key(mixed.finalize()) == _result_key(reference.finalize())


class TestSgbAllInterleaving:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("on_overlap", ["JOIN-ANY", "ELIMINATE", "FORM-NEW-GROUP"])
    @pytest.mark.parametrize("seed", [6, 7])
    def test_mixed_sequences_match_scalar_reference(self, backend, on_overlap, seed):
        points = _clustered(150, seed)
        reference = SGBAllGrouper(eps=0.9, on_overlap=on_overlap, seed=3)
        reference.add_all(points)
        mixed = SGBAllGrouper(eps=0.9, on_overlap=on_overlap, seed=3)
        _mixed_ingest(mixed, points, seed, backend)
        assert _result_key(mixed.finalize()) == _result_key(reference.finalize())


class TestSgbAllLazyUpkeep:
    """The group R-tree and the group rectangles exist only once read."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("metric", ["L2", "LINF"])
    @pytest.mark.parametrize("on_overlap", ["JOIN-ANY", "ELIMINATE", "FORM-NEW-GROUP"])
    def test_frontier_batches_build_no_index_and_no_rectangles(
        self, backend, metric, on_overlap, monkeypatch
    ):
        from repro.spatial.rtree import RTree

        def refuse(*args, **kwargs):
            raise AssertionError("the frontier path touched the group R-tree")

        monkeypatch.setattr(RTree, "insert", refuse)
        monkeypatch.setattr(RTree, "load", refuse)
        points = _clustered(150, 8)
        grouper = SGBAllGrouper(eps=0.9, metric=metric, on_overlap=on_overlap)
        assert grouper.frontier_eligible(2)
        for start in (0, 60):
            grouper.add_batch(PointSet.from_any(points[start : start + 60], backend=backend))
        assert grouper._group_index is None
        assert grouper._groups
        assert all(group._eps_rect is None for group in grouper._groups)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("metric", ["L2", "LINF"])
    @pytest.mark.parametrize("on_overlap", ["JOIN-ANY", "ELIMINATE", "FORM-NEW-GROUP"])
    @pytest.mark.parametrize("seed", [9, 10])
    def test_batch_scalar_batch_matches_scalar_reference(
        self, backend, metric, on_overlap, seed
    ):
        # The scalar adds build the index over the groups the first batch
        # left behind; the second batch keeps it up to date, and under
        # ELIMINATE / FORM-NEW-GROUP strips overlaps from indexed groups.
        points = _clustered(160, seed)
        reference = SGBAllGrouper(eps=0.9, metric=metric, on_overlap=on_overlap, seed=3)
        reference.add_all(points)
        mixed = SGBAllGrouper(eps=0.9, metric=metric, on_overlap=on_overlap, seed=3)
        mixed.add_batch(PointSet.from_any(points[:70], backend=backend))
        assert mixed._group_index is None
        for point in points[70:80]:
            mixed.add(point)
        assert mixed._group_index is not None
        mixed.add_batch(PointSet.from_any(points[80:], backend=backend))
        assert _result_key(mixed.finalize()) == _result_key(reference.finalize())
