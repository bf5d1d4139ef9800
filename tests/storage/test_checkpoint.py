"""Warm-start checkpoints: streaming resume bit-identity and damage tolerance."""

from __future__ import annotations

import os
import random

from repro.storage.checkpoint import load_checkpoint, save_checkpoint
from repro.stream.session import StreamingSGB


def random_points(rng, n):
    return [(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(n)]


def flush_key(window):
    return (
        window.window_id,
        window.epoch,
        window.start,
        window.end,
        list(window.indices),
        [list(g) for g in window.result.groups],
        list(window.result.eliminated),
        list(window.result.points),
        [(d.kind.value, d.group, d.members, d.added, d.sources) for d in window.deltas],
    )


class TestCheckpointHelpers:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "ck")
        save_checkpoint({"a": [1, 2, 3]}, path)
        assert load_checkpoint(path) == {"a": [1, 2, 3]}

    def test_missing_file_is_none(self, tmp_path):
        assert load_checkpoint(str(tmp_path / "absent")) is None

    def test_truncated_file_is_none(self, tmp_path):
        path = str(tmp_path / "ck")
        save_checkpoint(list(range(1000)), path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        assert load_checkpoint(path) is None

    def test_foreign_bytes_are_none(self, tmp_path):
        path = str(tmp_path / "ck")
        open(path, "wb").write(b"this is not a checkpoint")
        assert load_checkpoint(path) is None

    def test_save_is_atomic(self, tmp_path):
        path = str(tmp_path / "ck")
        save_checkpoint("first", path)
        save_checkpoint("second", path)
        assert load_checkpoint(path) == "second"
        assert [n for n in os.listdir(tmp_path) if ".tmp." in n] == []


class TestStreamingResume:
    def run_split(self, tmp_path, seed=41, n=200, split=110):
        """One continuous session vs. checkpoint-at-split + resumed session."""
        rng = random.Random(seed)
        points = random_points(rng, n)
        path = str(tmp_path / "stream.ck")

        continuous = StreamingSGB(eps=0.8, window=40, slide=20)
        straight = list(continuous.ingest(points))
        straight += continuous.close()

        first = StreamingSGB(eps=0.8, window=40, slide=20)
        flushes = list(first.ingest(points[:split]))
        first.checkpoint(path)

        resumed = StreamingSGB.resume(path)
        assert resumed is not None
        flushes += resumed.ingest(points[split:])
        flushes += resumed.close()
        return straight, flushes

    def test_resumed_windows_bit_identical(self, tmp_path):
        straight, resumed = self.run_split(tmp_path)
        assert len(straight) > 2
        assert [flush_key(w) for w in resumed] == [flush_key(w) for w in straight]

    def test_resume_mid_epoch(self, tmp_path):
        # A split that is NOT aligned to the slide: the open epoch is pickled too.
        straight, resumed = self.run_split(tmp_path, seed=5, split=73)
        assert [flush_key(w) for w in resumed] == [flush_key(w) for w in straight]

    def test_format_1_checkpoint_still_resumes(self, tmp_path):
        # A format-1 session has the same layout minus the resolved flush
        # worker count; it resumes and resolves its raw setting per flush.
        rng = random.Random(43)
        points = random_points(rng, 400)
        path = str(tmp_path / "stream.ck")

        continuous = StreamingSGB(eps=0.8, window=128, slide=64, workers=2)
        straight = list(continuous.ingest(points)) + continuous.close()

        first = StreamingSGB(eps=0.8, window=128, slide=64, workers=2)
        flushes = list(first.ingest(points[:230]))
        del first._flush_workers
        save_checkpoint({"format": "streaming-sgb/1", "session": first}, path)

        resumed = StreamingSGB.resume(path)
        assert resumed is not None and resumed._flush_workers == 2
        flushes += resumed.ingest(points[230:])
        flushes += resumed.close()
        assert [flush_key(w) for w in flushes] == [flush_key(w) for w in straight]

    def test_format_2_checkpoint_still_resumes(self, tmp_path):
        # A format-2 session cached its older-epoch view as (key, points,
        # epoch bounds, epochs); the reader drops that cache, which the
        # resumed session rebuilds in the current shape.
        rng = random.Random(47)
        points = random_points(rng, 300)
        path = str(tmp_path / "stream.ck")

        continuous = StreamingSGB(eps=0.8, window=60, slide=20)
        straight = list(continuous.ingest(points)) + continuous.close()

        first = StreamingSGB(eps=0.8, window=60, slide=20)
        flushes = list(first.ingest(points[:130]))
        key, combined, _, _, olders = first._older_view
        bounds = [sum(len(e.points) for e in olders[: k + 1]) for k in range(len(olders))]
        first._older_view = (key, combined, bounds, olders)
        save_checkpoint({"format": "streaming-sgb/2", "session": first}, path)

        resumed = StreamingSGB.resume(path)
        assert resumed is not None and resumed._older_view is None
        flushes += resumed.ingest(points[130:])
        flushes += resumed.close()
        assert [flush_key(w) for w in flushes] == [flush_key(w) for w in straight]

    def test_damaged_checkpoint_resumes_as_none(self, tmp_path):
        path = str(tmp_path / "stream.ck")
        session = StreamingSGB(eps=0.8, window=10)
        session.ingest(random_points(random.Random(1), 25))
        session.checkpoint(path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:20])
        assert StreamingSGB.resume(path) is None
        assert StreamingSGB.resume(str(tmp_path / "never-written")) is None

    def test_wrong_format_payload_resumes_as_none(self, tmp_path):
        path = str(tmp_path / "stream.ck")
        save_checkpoint({"format": "something-else/9", "session": object()}, path)
        assert StreamingSGB.resume(path) is None
        save_checkpoint(["not", "a", "dict"], path)
        assert StreamingSGB.resume(path) is None
