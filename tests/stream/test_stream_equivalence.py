"""Randomized equivalence: every flush == a from-scratch SGB-Any of the window.

This is the acceptance property of the streaming subsystem: for any window
shape, micro-batch split, backend, and worker count, the grouping emitted at
each flush must be bit-identical (after the canonical relabelling every SGB
path shares) to running ``sgb_any`` from scratch over the window's live
points.  The incremental path (epoch forests + cross-epoch edges + eviction
rebuilds) and the per-flush sharded path are both covered.
"""

from __future__ import annotations

import random

import pytest

from repro.core.api import sgb_any
from repro.core.pointset import HAVE_NUMPY
from repro.stream.session import StreamingSGB
from repro.stream.window import TickWindow

BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])

#: (window size, slide) shapes: tumbling, half-overlap, fine-grained slide.
WINDOW_SHAPES = [(40, 40), (40, 20), (60, 15)]


def _stream_points(n, seed, dims=2):
    """Clustered points with duplicates and boundary chains mixed in."""
    rng = random.Random(seed)
    centers = [tuple(rng.uniform(0, 15) for _ in range(dims)) for _ in range(5)]
    pts = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.7:
            c = rng.choice(centers)
            pts.append(tuple(x + rng.uniform(-0.7, 0.7) for x in c))
        elif roll < 0.8 and pts:
            pts.append(rng.choice(pts))  # exact duplicate
        else:
            pts.append(tuple(rng.uniform(0, 15) for _ in range(dims)))
    return pts


def _chunks(points, seed):
    """Split the stream into random micro-batches (including empty ones)."""
    rng = random.Random(seed * 31 + 7)
    out, i = [], 0
    while i < len(points):
        size = rng.choice([0, 1, 2, 3, 5, 8, 13])
        out.append(points[i : i + size])
        i += size
    return out


def _assert_flushes_match_scratch(flushes, points, eps, metric):
    assert flushes, "stream produced no windows"
    for window in flushes:
        live = [points[i] for i in window.indices]
        reference = sgb_any(live, eps=eps, metric=metric, workers=1)
        assert window.result.groups == reference.groups, (
            f"window {window.window_id} ({window.start}, {window.end}) diverged "
            f"from a from-scratch grouping of its {len(live)} live points"
        )
        assert window.result.is_partition()
        assert window.global_groups() == [
            sorted(window.indices[i] for i in group) for group in window.result.groups
        ]


class TestCountWindowEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("size,slide", WINDOW_SHAPES)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_every_flush_matches_from_scratch(self, backend, size, slide, seed):
        points = _stream_points(200, seed)
        session = StreamingSGB(
            eps=0.9, window=size, slide=slide, workers=1, backend=backend
        )
        flushes = []
        for chunk in _chunks(points, seed):
            flushes.extend(session.ingest(chunk))
        flushes.extend(session.close())
        _assert_flushes_match_scratch(flushes, points, 0.9, "L2")

    @pytest.mark.parametrize("metric", ["L2", "LINF"])
    def test_metrics_and_dims(self, metric):
        points = _stream_points(150, seed=29, dims=3)
        session = StreamingSGB(eps=1.1, metric=metric, window=30, slide=10, workers=1)
        flushes = []
        for chunk in _chunks(points, 29):
            flushes.extend(session.ingest(chunk))
        flushes.extend(session.close())
        _assert_flushes_match_scratch(flushes, points, 1.1, metric)


class TestTickWindowEquivalence:
    @pytest.mark.parametrize("seed", [5, 17])
    def test_every_flush_matches_from_scratch(self, seed):
        rng = random.Random(seed * 7 + 1)
        points = _stream_points(180, seed)
        ticks = sorted(rng.randint(0, 400) for _ in points)
        # Insert an idle gap so windows drain and refill.
        ticks = [t if t < 250 else t + 300 for t in ticks]
        session = StreamingSGB(eps=0.9, window=TickWindow(size=80, slide=20), workers=1)
        flushes, i = [], 0
        while i < len(points):
            step = rng.choice([1, 3, 7, 12])
            flushes.extend(
                session.ingest(points[i : i + step], ticks=ticks[i : i + step])
            )
            i += step
        flushes.extend(session.close())
        _assert_flushes_match_scratch(flushes, points, 0.9, "L2")


class TestWorkerEquivalence:
    """workers=1 (incremental) and workers=2 (per-flush sharding) agree exactly.

    The parallel floor is lowered to one point so the small windows these
    tests use really run the sharded mode (a count window below
    ``repro.engine.cost.MIN_PARALLEL_POINTS`` stays incremental by design — covered by
    ``test_session.TestParallelFloor``).
    """

    @pytest.mark.parametrize("size,slide", [(40, 40), (60, 20)])
    def test_workers_1_vs_2_bit_identical(self, size, slide, monkeypatch):
        monkeypatch.setattr("repro.engine.cost.MIN_PARALLEL_POINTS", 1)
        points = _stream_points(220, seed=41)
        sessions = {
            w: StreamingSGB(eps=0.9, window=size, slide=slide, workers=w)
            for w in (1, 2)
        }
        assert sessions[2]._sharded
        flushes = {w: [] for w in sessions}
        for chunk in _chunks(points, 41):
            for w, session in sessions.items():
                flushes[w].extend(session.ingest(chunk))
        for w, session in sessions.items():
            flushes[w].extend(session.close())
        assert len(flushes[1]) == len(flushes[2])
        for a, b in zip(flushes[1], flushes[2]):
            assert a.indices == b.indices
            assert a.result.groups == b.result.groups
            assert a.deltas == b.deltas
            assert (a.window_id, a.epoch, a.start, a.end) == (
                b.window_id,
                b.epoch,
                b.start,
                b.end,
            )
        _assert_flushes_match_scratch(flushes[2], points, 0.9, "L2")

    def test_sharded_flushes_match_scratch_on_ticks(self, monkeypatch):
        monkeypatch.setattr("repro.engine.cost.MIN_PARALLEL_POINTS", 1)
        rng = random.Random(53)
        points = _stream_points(160, seed=53)
        ticks = sorted(rng.randint(0, 300) for _ in points)
        session = StreamingSGB(
            eps=0.9, window=TickWindow(size=60, slide=20), workers=2
        )
        flushes = []
        for i in range(0, len(points), 9):
            flushes.extend(session.ingest(points[i : i + 9], ticks=ticks[i : i + 9]))
        flushes.extend(session.close())
        _assert_flushes_match_scratch(flushes, points, 0.9, "L2")


class TestDeltaConsistency:
    """Deltas must replay: applying each diff to the previous flush's groups
    reconstructs group membership transitions consistently."""

    def test_added_members_cover_all_new_arrivals(self):
        points = _stream_points(150, seed=61)
        session = StreamingSGB(eps=0.9, window=30, slide=10, workers=1)
        flushes = []
        for chunk in _chunks(points, 61):
            flushes.extend(session.ingest(chunk))
        flushes.extend(session.close())
        seen = set()
        for window in flushes:
            current = {m for group in window.global_groups() for m in group}
            new_arrivals = current - seen
            reported_added = {
                m
                for d in window.deltas
                for m in (d.added if d.kind.value != "GROUP_EXPIRED" else ())
            }
            created_members = {
                m
                for d in window.deltas
                if d.kind.value == "GROUP_CREATED"
                for m in d.members
            }
            # Every genuinely new arrival is announced by some event.
            assert new_arrivals <= (reported_added | created_members)
            seen |= current
