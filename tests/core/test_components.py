"""The SGB-Any connectivity kernel, ``PointSet.components``.

Every labelling is checked against the paper's reference algorithm, the
scalar per-tuple SGB-Any (``sgb_any_grouping(..., batch=False)``), on both
backends, all metrics and 1-7 dimensions, over inputs that sit on the
predicate's edges: lattices spaced exactly eps (or one sub-cell) apart,
points a ulp inside sub-cell edges, collinear runs, heavy duplicates, and
large or negative coordinates.  The sharded and windowed consumers, a
checkpoint round trip, and the kernel's memory bound are checked too.
"""

from __future__ import annotations

import math
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distance import Metric
from repro.core.pointset import HAVE_NUMPY, PointSet
from repro.core.sgb_any import sgb_any_grouping
from repro.engine.workers import sgb_any_sharded
from repro.stream.session import StreamingSGB

BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])
METRICS = [Metric.L2, Metric.LINF, Metric.L1]


def _groups(labels):
    """Canonical groups of a labelling; checks it is smallest-row labelled."""
    groups = {}
    for row, label in enumerate(labels):
        groups.setdefault(label, []).append(row)
    for label, members in groups.items():
        assert label == members[0]
    return list(groups.values())


def _reference(points, eps, metric):
    return sgb_any_grouping(points, eps, metric=metric, batch=False).groups


def _side(eps, metric, dims):
    return eps / {Metric.L2: math.sqrt(dims), Metric.LINF: 1.0, Metric.L1: dims}[metric]


@st.composite
def edge_cases(draw, max_dims=7, max_points=40):
    """(points, eps, metric): inputs whose pairs sit on the predicate's edges."""
    dims = draw(st.integers(1, max_dims))
    metric = draw(st.sampled_from(METRICS))
    eps = draw(st.sampled_from([0.05, 0.1, 0.3, 1.0, 2.5]))
    origin = draw(st.sampled_from([0.0, -7.3, -1e6 + 0.1, 1e6, 2.0 ** 30, -(2.0 ** 33)]))
    kind = draw(st.sampled_from(["lattice", "subcell", "collinear", "duplicates", "uniform"]))
    n = draw(st.integers(1, max_points))
    ints = st.integers(-4, 4)
    if kind in ("lattice", "subcell"):
        # Exactly eps (or exactly one sub-cell side) apart, some points
        # nudged a ulp down so they sit on the far edge of their cell.
        step = eps if kind == "lattice" else _side(eps, metric, dims)
        nudge = st.booleans()
        points = []
        for _ in range(n):
            coords = []
            for k in draw(st.lists(ints, min_size=dims, max_size=dims)):
                x = origin + k * step
                coords.append(math.nextafter(x, -math.inf) if draw(nudge) else x)
            points.append(tuple(coords))
    elif kind == "collinear":
        direction = draw(
            st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), min_size=dims, max_size=dims)
        )
        step = eps * draw(st.sampled_from([0.5, 0.999, 1.0, 1.001]))
        points = [tuple(origin + t * step * c for c in direction) for t in range(n)]
    elif kind == "duplicates":
        distinct = [
            tuple(
                origin + k * eps * 0.7
                for k in draw(st.lists(ints, min_size=dims, max_size=dims))
            )
            for _ in range(draw(st.integers(1, 4)))
        ]
        points = [distinct[draw(st.integers(0, len(distinct) - 1))] for _ in range(n)]
    else:
        coord = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)
        points = [
            tuple(origin + c * eps for c in draw(st.lists(coord, min_size=dims, max_size=dims)))
            for _ in range(n)
        ]
    return points, eps, metric


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=300, deadline=None)
@given(case=edge_cases())
def test_matches_scalar_reference(backend, case):
    points, eps, metric = case
    labels = PointSet.from_any(points, backend=backend).components(eps, metric)
    assert _groups(labels) == _reference(points, eps, metric)


@settings(max_examples=150, deadline=None)
@given(case=edge_cases(max_dims=4), coarse=st.sampled_from([0.25, 0.5]))
def test_split_cells_match_scalar_reference(case, coarse):
    """Cells far wider than a clique fail their proof and are split.

    Shrinking the side divisor makes sub-cells several eps wide (the
    neighbour reach only gets looser), so most cells hold non-neighbours:
    this drives the duplicate-unit split, the intra-cell unit pairs and the
    member tests of undecided pairs.
    """
    pytest.importorskip("numpy")
    from repro.core import cellgrid

    points, eps, metric = case
    widened = {m: (lambda d, f=f: f(d) * coarse) for m, f in cellgrid._SIDE_DIVISOR.items()}
    with mock.patch.dict(cellgrid._SIDE_DIVISOR, widened):
        labels = PointSet.from_any(points, backend="numpy").components(eps, metric)
    assert _groups(labels) == _reference(points, eps, metric)


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("dims", [2, 3, 5])
def test_numpy_matches_python_backend_at_scale(metric, dims):
    pytest.importorskip("numpy")
    rng = random.Random(dims * 7 + len(metric.value))
    centres = [[rng.uniform(-50, 50) for _ in range(dims)] for _ in range(12)]
    points = [
        tuple(rng.gauss(c, 1.5) for c in rng.choice(centres)) for _ in range(1500)
    ]
    points += points[:200]  # exact duplicates
    eps = 0.6
    fast = PointSet.from_any(points, backend="numpy").components(eps, metric)
    slow = PointSet.from_any(points, backend="python").components(eps, metric)
    assert fast == slow


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("metric", METRICS)
def test_rounding_reaches_a_cell_two_away(backend, metric):
    # -1e-20 is in eps-cell -1, 0.1 in eps-cell 1, and 0.1 - (-1e-20) rounds
    # to 0.1: the predicate links them although their cells are two apart.
    points = [(-1e-20,), (0.1,)]
    ps = PointSet.from_any(points, backend=backend)
    assert ps.components(0.1, metric) == [0, 0]
    assert list(ps.pairwise_within(0.1, metric)) == [(0, 1)]
    assert sorted(ps.cross_within([(0.1,)], 0.1, metric)) == [(0, 0), (1, 0)]
    assert _reference(points, 0.1, metric) == [[0, 1]]


@pytest.mark.parametrize("backend", BACKENDS)
def test_rounded_window_edge_is_verified(backend):
    # -999999.9 + 0.05 rounds to -999999.85, but the two points are
    # 0.0500000000466 apart: the predicate rejects the pair, and so must
    # every path, the scalar reference's LINF window included.
    points = [(-999999.9, 0.0), (-999999.85, 0.0)]
    ps = PointSet.from_any(points, backend=backend)
    assert ps.components(0.05, Metric.LINF) == [0, 1]
    assert _reference(points, 0.05, Metric.LINF) == [[0], [1]]


@pytest.mark.parametrize("backend", BACKENDS)
def test_edge_inputs(backend):
    assert PointSet.from_any([], backend=backend).components(1.0) == []
    assert PointSet.from_any([(3.0, 4.0)], backend=backend).components(1.0) == [0]
    far = PointSet.from_any([(0.0,), (1e13,), (0.5,)], backend=backend)
    assert far.components(1.0) == [0, 1, 0]


def test_dense_duplicate_cell_pair_memory_is_bounded():
    """Two neighbour cells of 1,500 points each (two duplicate stacks per
    cell): 2.25M member pairs.

    The bounds cannot decide the pair, so members are tested, in blocks of
    ``PAIR_BLOCK`` pairs; one unblocked ``1500 x 1500`` distance matrix
    alone would be 18 MB.
    """
    np = pytest.importorskip("numpy")
    points = np.repeat(np.asarray([[0.1], [0.9], [1.5], [1.95]]), 750, axis=0)
    ps = PointSet.from_any(points)
    tracemalloc.start()
    try:
        labels = ps.components(1.0, Metric.L2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert set(labels) == {0}
    assert peak < 2 * 2 ** 20


def _spread(seed, n, dims=2, scale=12.0):
    rng = random.Random(seed)
    return [tuple(rng.uniform(0, scale) for _ in range(dims)) for _ in range(n)]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("metric", METRICS)
def test_sharded_matches_scalar_reference(backend, metric):
    points = _spread(3, 600) + _spread(3, 50)  # duplicates straddle the cuts
    ps = PointSet.from_any(points, backend=backend)
    sharded = sgb_any_sharded(ps, 0.35, metric=metric, workers=1, shards=2)
    assert sharded.groups == _reference(points, 0.35, metric)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("metric", METRICS)
def test_sharded_paths_keep_a_rounded_pair_across_the_cut(backend, metric):
    # The balanced cut falls on grid line 0, between -1e-20 (cell -1) and
    # 0.1 (cell 1): the halo band must still hold both.
    from repro.join.sharded import eps_join_sharded

    points = [(-0.5 * k, 0.0) for k in range(1, 9)] + [(0.1 + 0.5 * k, 0.0) for k in range(1, 9)]
    points += [(-1e-20, 0.0), (0.1, 0.0)]
    ps = PointSet.from_any(points, backend=backend)
    sharded = sgb_any_sharded(ps, 0.1, metric=metric, workers=1, shards=2)
    assert sharded.groups == _reference(points, 0.1, metric)
    assert [16, 17] in sharded.groups
    pairs = eps_join_sharded(ps, ps, 0.1, metric=metric, workers=1, shards=2)
    assert (16, 17) in pairs and (17, 16) in pairs


def _flush_key(window):
    return (
        window.window_id,
        window.start,
        window.end,
        list(window.indices),
        window.result.groups,
        [(d.kind.value, d.group, d.members, d.added, d.sources) for d in window.deltas],
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_windows_match_reference_and_resume_bit_identical(backend, tmp_path):
    points = _spread(11, 700, scale=8.0)
    batches = [points[i : i + 45] for i in range(0, len(points), 45)]

    def session():
        return StreamingSGB(eps=0.3, window=120, slide=40, workers=1, backend=backend)

    straight = session()
    windows = [w for batch in batches for w in straight.ingest(batch)] + straight.close()
    assert len(windows) > 10
    for window in windows:
        live = [points[i] for i in window.indices]
        assert window.result.groups == _reference(live, 0.3, Metric.L2)

    path = str(tmp_path / "stream.ck")
    first = session()
    resumed_windows = [w for batch in batches[:7] for w in first.ingest(batch)]
    first.checkpoint(path)
    resumed = StreamingSGB.resume(path)
    assert resumed is not None
    resumed_windows += [w for batch in batches[7:] for w in resumed.ingest(batch)]
    resumed_windows += resumed.close()
    assert [_flush_key(w) for w in resumed_windows] == [_flush_key(w) for w in windows]
