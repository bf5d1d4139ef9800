"""Behavioural tests for the StreamingSGB session (lifecycle, not equivalence)."""

from __future__ import annotations

import random
import warnings

import pytest

from repro.core.api import sgb_any
from repro.exceptions import DimensionalityError, InvalidParameterError
from repro.stream.deltas import DeltaKind
from repro.stream.session import StreamingSGB, stream_groups
from repro.stream.window import TickWindow

# Two tight clusters far apart, plus a bridge point linking them.
CLUSTER_A = [(0.0, 0.0), (0.4, 0.1), (0.1, 0.5)]
CLUSTER_B = [(5.0, 5.0), (5.3, 5.2), (5.1, 4.8)]
BRIDGE = [(2.5, 2.5)]


def ingest_all(session, points, chunk=3, ticks=None):
    out = []
    for i in range(0, len(points), chunk):
        if ticks is None:
            out.extend(session.ingest(points[i : i + chunk]))
        else:
            out.extend(session.ingest(points[i : i + chunk], ticks=ticks[i : i + chunk]))
    out.extend(session.close())
    return out


class TestCountWindows:
    def test_tumbling_windows_are_disjoint(self):
        session = StreamingSGB(eps=1.0, window=4)
        flushes = ingest_all(session, CLUSTER_A + CLUSTER_B + BRIDGE + [(9.0, 9.0)])
        assert [w.live_count for w in flushes] == [4, 4]
        assert [w.indices for w in flushes] == [[0, 1, 2, 3], [4, 5, 6, 7]]
        assert [(w.start, w.end) for w in flushes] == [(0, 4), (4, 8)]

    def test_sliding_window_keeps_last_size_points(self):
        session = StreamingSGB(eps=1.0, window=4, slide=2)
        flushes = ingest_all(session, CLUSTER_A + CLUSTER_B)
        assert [w.indices for w in flushes] == [[0, 1], [0, 1, 2, 3], [2, 3, 4, 5]]

    def test_final_partial_epoch_flushes_on_close(self):
        session = StreamingSGB(eps=1.0, window=4, slide=2)
        flushes = session.ingest(CLUSTER_A)  # 3 points: one full epoch + 1
        final = session.close()
        assert [w.live_count for w in flushes] == [2]
        assert [w.live_count for w in final] == [3]
        assert final[0].indices == [0, 1, 2]

    def test_close_does_not_reflush_an_exact_boundary(self):
        session = StreamingSGB(eps=1.0, window=2, slide=2)
        flushes = session.ingest(CLUSTER_A + BRIDGE)
        assert len(flushes) == 2
        assert session.close() == []

    def test_window_ids_are_sequential(self):
        session = StreamingSGB(eps=1.0, window=2, slide=2)
        flushes = ingest_all(session, CLUSTER_A + CLUSTER_B, chunk=2)
        assert [w.window_id for w in flushes] == [0, 1, 2]

    def test_live_count_is_bounded_by_the_window(self):
        session = StreamingSGB(eps=1.0, window=4, slide=2)
        for i in range(0, len(CLUSTER_A + CLUSTER_B), 2):
            session.ingest((CLUSTER_A + CLUSTER_B)[i : i + 2])
            assert session.live_count <= 4 + 2  # window + the open epoch

    def test_eviction_splits_bridged_group(self):
        # Window covers A + bridge + B at flush 1; after the slide evicts the
        # bridge, A-tail and B separate again.
        points = CLUSTER_A + BRIDGE + CLUSTER_B
        session = StreamingSGB(eps=2.7, window=8, slide=4)
        first = session.ingest(points)  # window 0: epochs {0..3} only after 4 pts
        rest = session.close()
        all_flushes = first + rest
        # Final window sees everything (7 points); from-scratch agreement:
        final = all_flushes[-1]
        reference = sgb_any([points[i] for i in final.indices], eps=2.7, workers=1)
        assert final.result.groups == reference.groups

    def test_expired_groups_emit_expiry_deltas(self):
        session = StreamingSGB(eps=1.0, window=3)
        flushes = ingest_all(session, CLUSTER_A + CLUSTER_B, chunk=3)
        assert len(flushes) == 2
        expired = [d for d in flushes[1].deltas if d.kind is DeltaKind.GROUP_EXPIRED]
        assert [d.members for d in expired] == [(0, 1, 2)]
        created = [d for d in flushes[1].deltas if d.kind is DeltaKind.GROUP_CREATED]
        assert [d.members for d in created] == [(3, 4, 5)]

    def test_global_groups_lift_local_positions(self):
        session = StreamingSGB(eps=1.0, window=3)
        session.ingest(CLUSTER_A)
        [flush] = session.ingest(CLUSTER_B)
        assert flush.indices == [3, 4, 5]
        assert flush.result.groups == [[0, 1, 2]]
        assert flush.global_groups() == [[3, 4, 5]]


class TestTickWindows:
    def test_idle_gap_expires_groups_then_goes_silent(self):
        policy = TickWindow(size=20, slide=10)
        session = StreamingSGB(eps=1.0, window=policy)
        session.ingest(CLUSTER_A, ticks=[0, 1, 2])
        # A huge tick jump: the window drains (bounded flushes), then silence.
        flushes = session.ingest([(9.0, 9.0)], ticks=[1000])
        assert 1 <= len(flushes) <= policy.epochs_per_window + 1
        last = flushes[-1]
        assert last.live_count == 0
        assert {d.kind for d in last.deltas} == {DeltaKind.GROUP_EXPIRED}

    def test_window_extent_is_in_ticks(self):
        session = StreamingSGB(eps=1.0, window=TickWindow(size=20, slide=10))
        session.ingest(CLUSTER_A, ticks=[0, 5, 9])
        [flush] = session.ingest(CLUSTER_B, ticks=[12, 14, 16])
        assert (flush.start, flush.end) == (-10, 10)
        assert flush.epoch == 0

    def test_non_monotone_ticks_rejected_across_batches(self):
        session = StreamingSGB(eps=1.0, window=TickWindow(size=20, slide=10))
        session.ingest(CLUSTER_A, ticks=[0, 1, 7])
        with pytest.raises(InvalidParameterError):
            session.ingest(CLUSTER_B, ticks=[6, 8, 9])

    def test_non_monotone_ticks_rejected_within_a_batch(self):
        session = StreamingSGB(eps=1.0, window=TickWindow(size=20, slide=10))
        with pytest.raises(InvalidParameterError):
            session.ingest(CLUSTER_A, ticks=[5, 3, 8])

    def test_ticks_required_for_tick_policy(self):
        session = StreamingSGB(eps=1.0, window=TickWindow(size=20, slide=10))
        with pytest.raises(InvalidParameterError):
            session.ingest(CLUSTER_A)

    def test_tick_count_must_match_points(self):
        session = StreamingSGB(eps=1.0, window=TickWindow(size=20, slide=10))
        with pytest.raises(InvalidParameterError):
            session.ingest(CLUSTER_A, ticks=[1, 2])


class TestSessionValidation:
    def test_window_required(self):
        with pytest.raises(InvalidParameterError):
            StreamingSGB(eps=1.0)

    def test_policy_and_slide_are_mutually_exclusive(self):
        with pytest.raises(InvalidParameterError):
            StreamingSGB(eps=1.0, window=TickWindow(size=4, slide=2), slide=2)

    def test_ticks_rejected_for_count_policy(self):
        session = StreamingSGB(eps=1.0, window=4)
        with pytest.raises(InvalidParameterError):
            session.ingest(CLUSTER_A, ticks=[1, 2, 3])

    def test_empty_ingest_is_a_noop(self):
        session = StreamingSGB(eps=1.0, window=2)
        assert session.ingest([]) == []
        assert session.live_count == 0 and session.ingested == 0

    def test_dimensionality_change_rejected(self):
        session = StreamingSGB(eps=1.0, window=4)
        session.ingest(CLUSTER_A)
        with pytest.raises(DimensionalityError):
            session.ingest([(1.0, 2.0, 3.0)])

    def test_closed_session_rejects_ingest(self):
        session = StreamingSGB(eps=1.0, window=2)
        session.close()
        with pytest.raises(InvalidParameterError):
            session.ingest(CLUSTER_A)

    def test_double_close_is_a_noop(self):
        session = StreamingSGB(eps=1.0, window=2)
        session.ingest(CLUSTER_A)
        assert len(session.close()) == 1
        assert session.close() == []

    def test_invalid_eps_rejected(self):
        with pytest.raises(InvalidParameterError):
            StreamingSGB(eps=0.0, window=4)


class TestStreamGroups:
    def test_generator_drives_a_whole_stream(self):
        batches = [CLUSTER_A, CLUSTER_B, BRIDGE]
        flushes = list(stream_groups(batches, eps=1.0, window=4, slide=2))
        assert [w.window_id for w in flushes] == list(range(len(flushes)))
        assert flushes[-1].live_count == 3  # final partial flush via close()

    def test_generator_with_ticks(self):
        batches = [(CLUSTER_A, [0, 1, 2]), (CLUSTER_B, [11, 12, 13])]
        flushes = list(
            stream_groups(batches, eps=1.0, window=TickWindow(size=20, slide=10))
        )
        assert flushes  # at least the close() flush
        assert all(w.result.is_partition() for w in flushes)


class TestParallelFloor:
    """Per-flush sharding respects the planner's parallel floor.

    A count window bounds the live point count at ``policy.size``; below
    ``repro.engine.cost.MIN_PARALLEL_POINTS`` every flush would pay
    worker-pool overhead for a payload the planner degrades to serial
    anyway, so the session must stay in the (cheaper) incremental mode.
    """

    def test_small_count_window_stays_incremental(self):
        session = StreamingSGB(eps=1.0, window=40, slide=20, workers=2)
        assert session._sharded is False  # 40 < the default 64-point floor
        # Incremental mode maintains per-epoch groupers.
        flushes = ingest_all(session, CLUSTER_A + CLUSTER_B + BRIDGE + BRIDGE)
        assert flushes and all(w.result.is_partition() for w in flushes)

    def test_large_count_window_shards(self):
        session = StreamingSGB(eps=1.0, window=128, slide=64, workers=2)
        assert session._sharded is True

    def test_floor_override_is_honoured(self, monkeypatch):
        monkeypatch.setattr("repro.engine.cost.MIN_PARALLEL_POINTS", 8)
        assert StreamingSGB(eps=1.0, window=16, slide=8, workers=2)._sharded
        assert not StreamingSGB(eps=1.0, window=4, slide=2, workers=2)._sharded

    def test_tick_windows_keep_requested_sharding(self):
        # Tick windows carry no point-count bound: the mode stays sharded and
        # the per-flush planner makes the serial/parallel call.
        session = StreamingSGB(
            eps=1.0, window=TickWindow(size=20, slide=10), workers=2
        )
        assert session._sharded is True

    def test_serial_sessions_unaffected(self):
        assert StreamingSGB(eps=1.0, window=256, slide=128, workers=1)._sharded is False

    def test_forced_count_resolves_once_per_session(self, monkeypatch):
        # A clamped count warns when the session resolves it, not per flush.
        monkeypatch.setattr("repro.engine.cost.os.cpu_count", lambda: 2)
        rng = random.Random(3)
        points = [(rng.random() * 10.0, rng.random() * 10.0) for _ in range(640)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            session = StreamingSGB(eps=0.3, window=128, slide=64, workers=16)
            flushes = ingest_all(session, points, chunk=64)
        clamps = [w for w in caught if "clamping the pool" in str(w.message)]
        assert session._sharded and len(flushes) == 10
        assert [w.category for w in clamps] == [RuntimeWarning]
        for window in flushes:
            live = [points[i] for i in window.indices]
            assert window.result.groups == sgb_any(live, 0.3, workers=1).groups
