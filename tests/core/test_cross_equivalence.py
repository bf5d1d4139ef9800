"""Cross-strategy and cross-path (scalar vs batch) equivalence suite.

For seeded random inputs the SGB operators must produce the same grouping:

* across every candidate-discovery strategy (the paper proves the three
  SGB-All procedures and the two SGB-Any procedures compute the same
  semantics), and
* across the scalar ``add`` reference path and the columnar ``add_batch``
  pipeline (bit-identical ``GroupingResult``, including the seed-dependent
  JOIN-ANY arbitration and the ELIMINATE row set).
"""

from __future__ import annotations

import random

import pytest

from repro.core.pointset import HAVE_NUMPY, PointSet
from repro.core.sgb_all import SGBAllGrouper, sgb_all_grouping
from repro.core.sgb_any import SGBAnyGrouper, sgb_any_grouping
from repro.exceptions import InvalidParameterError

METRICS = ["L2", "LINF", "L1"]
OVERLAPS = ["JOIN-ANY", "ELIMINATE", "FORM-NEW-GROUP"]
BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])


def _clustered(n, seed, dims=2):
    """A mix of tight clusters and background noise, deterministic per seed."""
    rng = random.Random(seed)
    pts = []
    centers = [tuple(rng.uniform(0, 20) for _ in range(dims)) for _ in range(6)]
    for _ in range(n):
        if rng.random() < 0.8:
            c = rng.choice(centers)
            pts.append(tuple(x + rng.uniform(-0.6, 0.6) for x in c))
        else:
            pts.append(tuple(rng.uniform(0, 20) for _ in range(dims)))
    return pts


def _as_key(result):
    return (result.groups, result.eliminated, result.points)


class TestSgbAnyEquivalence:
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("seed", [1, 2])
    def test_strategies_and_paths_agree(self, metric, seed):
        pts = _clustered(250, seed)
        results = {}
        for strategy in ("all-pairs", "index"):
            for batch in (False, True):
                r = sgb_any_grouping(
                    pts, eps=0.9, metric=metric, strategy=strategy, batch=batch
                )
                results[(strategy, batch)] = _as_key(r)
        reference = results[("all-pairs", False)]
        assert all(v == reference for v in results.values())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_backends_agree_with_scalar(self, backend):
        pts = _clustered(200, seed=5)
        scalar = sgb_any_grouping(pts, eps=0.8, batch=False)
        batched = sgb_any_grouping(
            PointSet.from_any(pts, backend=backend), eps=0.8, batch=True
        )
        assert _as_key(batched) == _as_key(scalar)

    def test_many_small_batches_match_scalar(self):
        """Repeated batches flush the index tail incrementally; results and
        group structure must still match the scalar path exactly."""
        pts = _clustered(400, seed=12)
        reference = sgb_any_grouping(pts, eps=0.8, batch=False)
        grouper = SGBAnyGrouper(eps=0.8)
        for k in range(0, 400, 50):
            grouper.add_batch(pts[k : k + 50])
        assert _as_key(grouper.finalize()) == _as_key(reference)

    def test_incremental_mix_of_add_and_add_batch(self):
        pts = _clustered(300, seed=6)
        reference = sgb_any_grouping(pts, eps=0.8, batch=False)
        grouper = SGBAnyGrouper(eps=0.8)
        grouper.add_batch(pts[:100])
        for p in pts[100:140]:
            grouper.add(p)
        grouper.add_batch(pts[140:])
        assert _as_key(grouper.finalize()) == _as_key(reference)

    @pytest.mark.parametrize("dims", [1, 3])
    def test_higher_and_lower_dimensions(self, dims):
        pts = _clustered(150, seed=7, dims=dims)
        scalar = sgb_any_grouping(pts, eps=0.8, batch=False)
        batched = sgb_any_grouping(pts, eps=0.8, batch=True)
        assert _as_key(batched) == _as_key(scalar)

    @pytest.mark.parametrize("metric", ["L2", "L1", "LINF"])
    @pytest.mark.parametrize("dims", [8, 12, 32])
    def test_exact_boundary_parity_in_high_dimensions(self, metric, dims):
        """Regression: naive ``.sum(axis=-1)`` switches to pairwise summation
        past 8 dimensions, flipping exact-boundary eps decisions vs the
        scalar left-to-right loops.  Set eps to the exact pair distance so
        the predicate sits on the boundary; both paths must still agree."""
        from repro.core.distance import get_distance_function

        rng = random.Random(dims)
        dist = get_distance_function(metric)
        for trial in range(25):
            p = tuple(rng.uniform(-5, 5) for _ in range(dims))
            q = tuple(rng.uniform(-5, 5) for _ in range(dims))
            eps = dist(p, q)
            if eps <= 0:
                continue
            scalar = sgb_any_grouping([p, q], eps=eps, metric=metric, batch=False)
            batched = sgb_any_grouping([p, q], eps=eps, metric=metric, batch=True)
            assert scalar.groups == batched.groups, (metric, dims, trial)

    def test_empty_and_single_point_batches(self):
        grouper = SGBAnyGrouper(eps=0.5)
        grouper.add_batch([])
        assert grouper.finalize().groups == []
        grouper = SGBAnyGrouper(eps=0.5)
        grouper.add_batch([(1.0, 1.0)])
        assert grouper.finalize().groups == [[0]]


class TestSgbAllEquivalence:
    @pytest.mark.parametrize("metric", ["L2", "LINF"])
    @pytest.mark.parametrize("on_overlap", OVERLAPS)
    @pytest.mark.parametrize("seed", [3, 4])
    def test_strategies_and_paths_agree(self, metric, on_overlap, seed):
        pts = _clustered(220, seed)
        results = {}
        for strategy in ("all-pairs", "bounds-checking", "index"):
            for batch in (False, True):
                r = sgb_all_grouping(
                    pts,
                    eps=0.9,
                    metric=metric,
                    on_overlap=on_overlap,
                    strategy=strategy,
                    seed=17,
                    batch=batch,
                )
                results[(strategy, batch)] = _as_key(r)
        reference = results[("all-pairs", False)]
        assert all(v == reference for v in results.values())

    @pytest.mark.parametrize("on_overlap", OVERLAPS)
    def test_join_any_arbitration_is_seed_stable_across_paths(self, on_overlap):
        pts = _clustered(260, seed=9)
        for seed in (0, 1, 99):
            scalar = sgb_all_grouping(
                pts, eps=1.1, on_overlap=on_overlap, seed=seed, batch=False
            )
            batched = sgb_all_grouping(
                pts, eps=1.1, on_overlap=on_overlap, seed=seed, batch=True
            )
            assert _as_key(batched) == _as_key(scalar)

    def test_result_is_partition_under_both_paths(self):
        pts = _clustered(180, seed=10)
        for batch in (False, True):
            r = sgb_all_grouping(pts, eps=0.7, on_overlap="ELIMINATE", batch=batch)
            assert r.is_partition()


class TestDuplicateIndexRegression:
    """Regression: an explicit duplicate ``index`` used to corrupt state silently."""

    def test_scalar_add_rejects_non_finite_like_batch(self):
        # The scalar and batch paths must agree on input validation too.
        for grouper in (SGBAnyGrouper(eps=0.5), SGBAllGrouper(eps=0.5)):
            with pytest.raises(InvalidParameterError):
                grouper.add((float("nan"), 0.0))
            with pytest.raises(InvalidParameterError):
                grouper.add((0.0, float("inf")))

    def test_sgb_any_rejects_duplicate_explicit_index(self):
        grouper = SGBAnyGrouper(eps=0.5)
        grouper.add((0.0, 0.0), index=3)
        with pytest.raises(InvalidParameterError):
            grouper.add((5.0, 5.0), index=3)

    def test_sgb_any_rejects_auto_index_collision(self):
        grouper = SGBAnyGrouper(eps=0.5)
        grouper.add((0.0, 0.0), index=1)
        # The auto index for the second point is len(points) == 1, colliding
        # with the explicit index above; it must be rejected rather than
        # silently overwrite _point_by_index.
        with pytest.raises(InvalidParameterError):
            grouper.add((9.0, 9.0))

    def test_sgb_all_rejects_duplicate_explicit_index(self):
        grouper = SGBAllGrouper(eps=0.5)
        grouper.add((0.0, 0.0), index=7)
        with pytest.raises(InvalidParameterError):
            grouper.add((5.0, 5.0), index=7)

    def test_sgb_all_duplicate_does_not_corrupt_groups(self):
        grouper = SGBAllGrouper(eps=0.5)
        grouper.add((0.0, 0.0))
        with pytest.raises(InvalidParameterError):
            grouper.add((0.1, 0.1), index=0)
        result = grouper.finalize()
        assert result.groups == [[0]]
