"""The kNN-join against a brute-force nested loop, on generated edge cases.

Each case draws a right side with duplicates, lattice ties (many right
points at exactly the same distance from a probe), axes of zero extent and
large or negative offsets, and probes near the right side and far outside
its bounding box.  ``knn_join`` (both backends) and ``knn_join_sharded``
(two and three forced shards) must equal the nested loop over
``metric.distance`` sorted by ``(distance, j)`` exactly, for
``k`` in {1, 3, len(right), len(right) + 5}.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.distance import Metric
from repro.core.pointset import HAVE_NUMPY, PointSet
from repro.join import knn_join, knn_join_sharded

BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])
METRICS = [Metric.L1, Metric.L2, Metric.LINF]


def _brute(left, right, k, metric):
    pairs = []
    for i, p in enumerate(left):
        ranked = sorted((metric.distance(p, q), j) for j, q in enumerate(right))
        pairs.extend((i, j) for _, j in ranked[:k])
    return pairs


@st.composite
def join_cases(draw, max_right=60, max_left=25):
    """(left, right, k, metric): kNN inputs on the kernel's edges."""
    dims = draw(st.integers(1, 4))
    metric = draw(st.sampled_from(METRICS))
    origin = draw(st.sampled_from([0.0, 1e6, -37.3]))
    flat = draw(st.lists(st.booleans(), min_size=dims, max_size=dims))
    kind = draw(st.sampled_from(["lattice", "clustered", "duplicates"]))
    coord = (
        st.integers(-3, 3).map(float)
        if kind == "lattice"
        else st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
    )

    def point():
        return tuple(
            origin + (0.0 if flat[a] else draw(coord)) for a in range(dims)
        )

    n_right = draw(st.integers(1, max_right))
    right = [point() for _ in range(n_right)]
    if kind == "duplicates":
        right = [right[draw(st.integers(0, len(right) - 1))] for _ in right]
    left = []
    for _ in range(draw(st.integers(1, max_left))):
        roll = draw(st.sampled_from(["near", "copy", "far"]))
        if roll == "copy":
            left.append(right[draw(st.integers(0, len(right) - 1))])
        elif roll == "far":
            scale = draw(st.sampled_from([-1e3, 40.0, 1e4]))
            left.append(tuple(x + scale * (a + 1) for a, x in enumerate(point())))
        else:
            left.append(point())
    k = draw(st.sampled_from([1, 3, n_right, n_right + 5]))
    return left, right, k, metric


SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestKnnJoinProperties:
    @pytest.mark.parametrize("backend", BACKENDS)
    @SETTINGS
    @given(case=join_cases())
    def test_serial_matches_nested_loop(self, backend, case):
        left, right, k, metric = case
        expected = _brute(left, right, k, metric)
        assert knn_join(left, right, k, metric=metric, workers=1, backend=backend) == expected

    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=60, deadline=None)
    @given(case=join_cases())
    def test_sharded_matches_nested_loop(self, shards, backend, case):
        left, right, k, metric = case
        sides = [PointSet.from_any(pts, backend=backend) for pts in (left, right)]
        sharded = knn_join_sharded(*sides, k, metric=metric, workers=1, shards=shards)
        assert sharded == _brute(left, right, k, metric)

    @SETTINGS
    @given(case=join_cases(max_right=200, max_left=60))
    def test_numpy_blocks_match_nested_loop(self, case):
        # Tiny ranking blocks split every gather across many blocks, and
        # larger sides reach the grid where small ones rank by brute force.
        pytest.importorskip("numpy")
        from repro.core import cellgrid

        left, right, k, metric = case
        expected = _brute(left, right, k, metric)
        saved = cellgrid._KNN_BLOCK
        cellgrid._KNN_BLOCK = 7
        try:
            pairs = knn_join(left, right, k, metric=metric, workers=1, backend="numpy")
        finally:
            cellgrid._KNN_BLOCK = saved
        assert pairs == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_no_rtree_is_built(backend, monkeypatch):
    from repro.spatial.rtree import RTree

    def refuse(*args, **kwargs):
        raise AssertionError("the kNN-join built an R-tree")

    monkeypatch.setattr(RTree, "insert", refuse)
    monkeypatch.setattr(RTree, "load", refuse)
    right = [(float(i % 13), float(i // 13)) for i in range(300)]
    left = [(x + 0.25, y - 0.5) for x, y in right[::7]]
    assert knn_join(left, right, 2, workers=1, backend=backend) == _brute(
        left, right, 2, Metric.L2
    )


@pytest.mark.parametrize("metric", METRICS)
def test_clustered_sides_match_nested_loop_on_a_refined_grid(metric):
    # Tight clusters in a wide box: the occupancy refinement shrinks the
    # cell side well below the volume-based start, and probes far outside
    # the clusters take the doubling and second-round paths.
    np = pytest.importorskip("numpy")
    from repro.core import cellgrid

    rng = np.random.default_rng(5)
    centres = rng.uniform(0, 100, size=(12, 3))
    right = centres[rng.integers(0, 12, 3000)] + rng.normal(0, 0.01, (3000, 3))
    left = np.concatenate(
        [right[:300] + rng.normal(0, 0.02, (300, 3)), rng.uniform(-50, 150, (100, 3))]
    )
    volume = np.prod(right.max(axis=0) - right.min(axis=0))
    grid = cellgrid._KnnGrid(right, [0, 1, 2], 4)
    assert grid.side < 0.1 * (volume * 4 / len(right)) ** (1 / 3)

    expected = cellgrid.knn_brute(left, right, 4, metric)
    assert (cellgrid.knn_table(left, right, 4, metric) == expected).all()
    sample = list(range(0, 400, 20))
    assert _brute(left[sample].tolist(), right.tolist(), 4, metric) == [
        (i, int(j)) for i, row in enumerate(expected[sample]) for j in row
    ]
    pairs = [(i, int(j)) for i, row in enumerate(expected) for j in row]
    python = knn_join(
        left.tolist(), right.tolist(), 4, metric=metric, workers=1, backend="python"
    )
    assert python == pairs
