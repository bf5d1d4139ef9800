"""Tests for the convex-hull L2 refinement (Procedure 6)."""

import math

import pytest

from repro.core.distance import Metric
from repro.core.hull_filter import convex_hull_test
from repro.core.predicates import SimilarityPredicate
from repro.geometry.convex_hull import convex_hull


@pytest.fixture
def predicate():
    return SimilarityPredicate(Metric.L2, 6.0)


class TestConvexHullTest:
    def test_point_inside_hull_accepted(self, predicate):
        hull = convex_hull([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert convex_hull_test((2, 2), hull, predicate)

    def test_point_on_hull_boundary_accepted(self, predicate):
        hull = convex_hull([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert convex_hull_test((4, 2), hull, predicate)

    def test_outside_point_accepted_when_farthest_vertex_within_eps(self, predicate):
        hull = convex_hull([(0, 0), (3, 0), (3, 3), (0, 3)])
        # (5, 1.5): farthest hull vertex is (0, 0) or (0, 3), distance ~5.2 <= 6.
        assert convex_hull_test((5, 1.5), hull, predicate)

    def test_outside_point_rejected_when_farthest_vertex_too_far(self, predicate):
        hull = convex_hull([(0, 0), (3, 0), (3, 3), (0, 3)])
        # (9, 1.5): farthest vertex (0,0)/(0,3) is ~9.1 away > 6.
        assert not convex_hull_test((9, 1.5), hull, predicate)

    def test_empty_hull_is_accepted(self, predicate):
        assert convex_hull_test((1, 1), [], predicate)

    def test_singleton_hull_uses_distance_to_the_point(self, predicate):
        assert convex_hull_test((3, 4), [(0.0, 0.0)], predicate)       # distance 5
        assert not convex_hull_test((30, 40), [(0.0, 0.0)], predicate)

    def test_equivalence_with_exhaustive_check_on_random_groups(self):
        """The hull test must agree with the exact all-members check."""
        import random

        rng = random.Random(5)
        eps = 1.0
        predicate = SimilarityPredicate(Metric.L2, eps)
        for _ in range(50):
            # Build a clique: points inside a circle of diameter eps.
            cx, cy = rng.uniform(0, 10), rng.uniform(0, 10)
            members = []
            while len(members) < 6:
                x = cx + rng.uniform(-eps / 2, eps / 2) * 0.7
                y = cy + rng.uniform(-eps / 2, eps / 2) * 0.7
                if all(math.dist((x, y), m) <= eps for m in members):
                    members.append((x, y))
            hull = convex_hull(members)
            probe = (cx + rng.uniform(-eps, eps), cy + rng.uniform(-eps, eps))
            exact = all(math.dist(probe, m) <= eps for m in members)
            assert convex_hull_test(probe, hull, predicate) == exact


def _collinear_clusters(seed, eps=1.0, per_cluster=4):
    """Three clusters on one line, collinear in the reals (built from cos/sin).

    Float rounding makes the hull of a cluster a sliver, which an
    inside-the-hull shortcut takes to contain points beyond its ends.
    """
    import random

    rng = random.Random(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    ox, oy = rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)
    dx, dy = math.cos(theta), math.sin(theta)
    points = []
    for centre in (0.0, 0.8 * eps, 1.6 * eps):
        for _ in range(per_cluster):
            t = centre + rng.uniform(-0.3, 0.3) * eps
            points.append((ox + t * dx, oy + t * dy))
    rng.shuffle(points)
    return points


@pytest.mark.parametrize("strategy", ["all-pairs", "bounds-checking", "index"])
def test_scalar_sgb_all_groups_are_cliques_on_collinear_clusters(strategy):
    from repro import sgb_all

    eps = 1.0
    for seed in range(100):
        points = _collinear_clusters(seed, eps)
        result = sgb_all(points, eps, strategy=strategy, batch=False)
        for group in result.groups:
            diameter = max(math.dist(points[i], points[j]) for i in group for j in group)
            assert diameter <= eps, (seed, group, diameter)
