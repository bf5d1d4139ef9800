"""Correctness of the tiered result cache: bit-identity, damage, bypass."""

from __future__ import annotations

import os
import pickle
import random

import pytest

from repro.core.api import sgb_all, sgb_any, sim_join
from repro.core.fingerprint import fingerprint_columns, fingerprint_points
from repro.core.pointset import HAVE_NUMPY, PointSet
from repro.storage.cache import (
    ResultCache,
    default_cache,
    reset_default_cache,
    resolve_cache,
    sgb_all_key,
    sgb_any_key,
)
from repro.storage.store import LocalFileStore

BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])


@pytest.fixture(autouse=True)
def isolated_cache_env(monkeypatch):
    """Neutralise SGB_CACHE (CI runs an off-smoke tier) and the default cache."""
    monkeypatch.delenv("SGB_CACHE", raising=False)
    reset_default_cache()
    yield
    reset_default_cache()


def random_points(rng, n, dims=2):
    return [tuple(rng.uniform(0, 10) for _ in range(dims)) for _ in range(n)]


def assert_same_grouping(a, b):
    assert a.groups == b.groups
    assert a.eliminated == b.eliminated
    assert a.points == b.points


class TestHitVsRecomputeBitIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sgb_any_randomized(self, backend, seed):
        rng = random.Random(seed)
        points = PointSet.from_any(random_points(rng, 120), backend=backend)
        eps = rng.choice([0.3, 0.7, 1.2])
        cache = ResultCache.memory()
        cold = sgb_any(points, eps=eps, cache=cache)
        warm = sgb_any(points, eps=eps, cache=cache)
        fresh = sgb_any(points, eps=eps)  # no cache: the ground truth
        assert cache.hits == 1 and cache.puts == 1
        assert_same_grouping(warm, cold)
        assert_same_grouping(warm, fresh)
        assert warm.plan is None  # hits never resurrect a stale plan

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("on_overlap", ["JOIN-ANY", "ELIMINATE", "FORM-NEW-GROUP"])
    def test_sgb_all_randomized(self, backend, on_overlap):
        rng = random.Random(hash(on_overlap) % 1000)
        points = PointSet.from_any(random_points(rng, 80), backend=backend)
        cache = ResultCache.memory()
        cold = sgb_all(points, eps=0.8, on_overlap=on_overlap, seed=5, cache=cache)
        warm = sgb_all(points, eps=0.8, on_overlap=on_overlap, seed=5, cache=cache)
        fresh = sgb_all(points, eps=0.8, on_overlap=on_overlap, seed=5)
        assert cache.hits == 1
        assert_same_grouping(warm, cold)
        assert_same_grouping(warm, fresh)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_sim_join_randomized(self, backend):
        rng = random.Random(7)
        left = random_points(rng, 90)
        right = random_points(rng, 60)
        cache = ResultCache.memory()
        cold = sim_join(left, right, eps=0.5, backend=backend, cache=cache)
        warm = sim_join(left, right, eps=0.5, backend=backend, cache=cache)
        fresh = sim_join(left, right, eps=0.5, backend=backend)
        assert cache.hits == 1
        assert list(warm) == list(cold) == list(fresh)

    def test_knn_join_cached(self):
        rng = random.Random(11)
        left = random_points(rng, 50)
        right = random_points(rng, 40)
        cache = ResultCache.memory()
        cold = sim_join(left, right, k=3, cache=cache)
        warm = sim_join(left, right, k=3, cache=cache)
        assert cache.hits == 1
        assert list(warm) == list(cold)

    @pytest.mark.skipif(not HAVE_NUMPY, reason="needs both backends")
    def test_backends_share_no_entry_but_agree(self):
        """Backends key separately (different kernels) yet agree bit-identically."""
        rng = random.Random(3)
        points = random_points(rng, 100)
        cache = ResultCache.memory()
        via_np = sgb_any(PointSet.from_any(points, backend="numpy"), eps=0.6, cache=cache)
        via_py = sgb_any(PointSet.from_any(points, backend="python"), eps=0.6, cache=cache)
        assert cache.puts == 2 and cache.hits == 0
        assert_same_grouping(via_np, via_py)

    @pytest.mark.skipif(not HAVE_NUMPY, reason="needs both backends")
    def test_fingerprints_agree_across_backends(self):
        rng = random.Random(9)
        points = random_points(rng, 64, dims=3)
        fp_np = fingerprint_points(PointSet.from_any(points, backend="numpy"))
        fp_py = fingerprint_points(PointSet.from_any(points, backend="python"))
        assert fp_np == fp_py
        columns = [[p[d] for p in points] for d in range(3)]
        assert fingerprint_columns(columns) == fp_np


class TestKeySensitivity:
    def test_any_key_varies_with_every_result_parameter(self):
        base = ("f" * 32, 0.5, "L2", "index", "numpy")
        key = sgb_any_key(*base)
        variants = [
            ("e" * 32, 0.5, "L2", "index", "numpy"),
            ("f" * 32, 0.6, "L2", "index", "numpy"),
            ("f" * 32, 0.5, "LINF", "index", "numpy"),
            ("f" * 32, 0.5, "L2", "all-pairs", "numpy"),
            ("f" * 32, 0.5, "L2", "index", "python"),
        ]
        assert all(sgb_any_key(*v) != key for v in variants)

    def test_all_key_includes_overlap_and_seed(self):
        base = ("f" * 32, 0.5, "L2", "index", "JOIN-ANY", 0, "numpy")
        key = sgb_all_key(*base)
        assert sgb_all_key("f" * 32, 0.5, "L2", "index", "ELIMINATE", 0, "numpy") != key
        assert sgb_all_key("f" * 32, 0.5, "L2", "index", "JOIN-ANY", 1, "numpy") != key

    def test_mutated_input_misses(self):
        rng = random.Random(17)
        points = random_points(rng, 60)
        cache = ResultCache.memory()
        sgb_any(points, eps=0.5, cache=cache)
        sgb_any(points + [(0.25, 0.25)], eps=0.5, cache=cache)
        assert cache.hits == 0 and cache.puts == 2


class TestDamageTolerance:
    def seed_entry(self, tmp_path):
        """Warm a tiered cache, then return a COLD one over the same spill dir."""
        rng = random.Random(23)
        points = random_points(rng, 50)
        warmer = ResultCache.tiered(str(tmp_path))
        expected = sgb_any(points, eps=0.5, cache=warmer)
        cold = ResultCache.tiered(str(tmp_path))
        return points, expected, cold

    def test_cold_process_refills_from_disk(self, tmp_path):
        points, expected, cold = self.seed_entry(tmp_path)
        out = sgb_any(points, eps=0.5, cache=cold)
        assert cold.hits == 1
        assert_same_grouping(out, expected)

    def corrupt_each_file(self, tmp_path, mutate):
        store = LocalFileStore(str(tmp_path))
        names = store.keys()
        assert names, "the warm run should have spilled at least one entry"
        for key in names:
            path = store._path(key)
            blob = open(path, "rb").read()
            open(path, "wb").write(mutate(blob))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda blob: blob[: len(blob) // 2],  # truncated mid-payload
            lambda blob: b"garbage-without-magic",  # foreign bytes
            lambda blob: blob[:8] + b"\x00" * (len(blob) - 8),  # zeroed pickle
            lambda blob: b"RPCACHE1" + pickle.dumps(("not", "a", "payload")) + b"x",
        ],
    )
    def test_corrupted_entries_degrade_to_recompute(self, tmp_path, mutate):
        points, expected, cold = self.seed_entry(tmp_path)
        self.corrupt_each_file(tmp_path, mutate)
        out = sgb_any(points, eps=0.5, cache=cold)
        assert cold.hits == 0  # damage reads as a miss...
        assert_same_grouping(out, expected)  # ...and the recompute is identical

    def test_corrupt_entry_is_deleted_on_read(self, tmp_path):
        store = LocalFileStore(str(tmp_path))
        cache = ResultCache(store)
        cache.put("deadbeef", ("some", "payload"))
        path = store._path("deadbeef")
        open(path, "wb").write(b"not-a-cache-entry")
        assert cache.get("deadbeef") is None
        assert not os.path.exists(path)

    def test_malformed_grouping_payload_is_a_miss(self, tmp_path):
        store = LocalFileStore(str(tmp_path))
        cache = ResultCache(store)
        cache.put("k", ("not", "a", "grouping"))
        assert cache.get_grouping("k") is None
        assert cache.hits == 0 and cache.misses == 1
        assert not os.path.exists(store._path("k"))

    def test_malformed_pairs_payload_is_a_miss(self, tmp_path):
        store = LocalFileStore(str(tmp_path))
        cache = ResultCache(store)
        cache.put("k", "definitely-not-pairs")
        assert cache.get_pairs("k") is None
        assert cache.hits == 0 and cache.misses == 1

    def test_eviction_under_tiny_disk_cap_still_correct(self, tmp_path):
        rng = random.Random(29)
        cache = ResultCache(
            LocalFileStore(str(tmp_path), max_bytes=512)  # a few entries at most
        )
        batches = [random_points(rng, 40) for _ in range(6)]
        cold = [sgb_any(b, eps=0.5, cache=cache) for b in batches]
        again = [sgb_any(b, eps=0.5, cache=cache) for b in batches]
        for a, b in zip(cold, again):
            assert_same_grouping(a, b)  # evicted or not, results are identical
        assert cache.store.total_bytes() <= 512


class TestConfiguration:
    def test_env_off_beats_explicit_instance(self, monkeypatch):
        monkeypatch.setenv("SGB_CACHE", "off")
        cache = ResultCache.memory()
        assert resolve_cache(cache) is None
        points = [(0.0, 0.0), (0.1, 0.1), (5.0, 5.0)]
        sgb_any(points, eps=1.0, cache=cache)
        sgb_any(points, eps=1.0, cache=cache)
        assert cache.hits == cache.misses == cache.puts == 0

    def test_env_on_enables_default_cache(self, monkeypatch):
        monkeypatch.setenv("SGB_CACHE", "on")
        assert resolve_cache(None) is default_cache()
        assert resolve_cache(True) is default_cache()

    def test_unset_env_means_no_cache(self):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None

    def test_string_argument_builds_tiered_cache(self, tmp_path):
        resolved = resolve_cache(str(tmp_path))
        assert isinstance(resolved, ResultCache)
        resolved.put("k", ("v",))
        assert LocalFileStore(str(tmp_path)).keys()  # spilled to the directory

    def test_directory_argument_is_one_cache_per_directory(self, tmp_path, monkeypatch):
        cache = resolve_cache(str(tmp_path))
        assert resolve_cache(str(tmp_path)) is cache
        assert resolve_cache(os.path.join(str(tmp_path), ".")) is cache
        monkeypatch.setenv("SGB_CACHE", "off")
        assert resolve_cache(str(tmp_path)) is None

    def test_directory_cache_shared_across_sql_statements(self, tmp_path):
        from repro.minidb import Database

        db = Database(cache=str(tmp_path))
        db.execute("CREATE TABLE pts (x FLOAT, y FLOAT)")
        db.execute("INSERT INTO pts VALUES (0.0, 0.0), (0.5, 0.5), (5.0, 5.0)")
        sql = "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1"
        first = db.execute(sql)
        cache = resolve_cache(str(tmp_path))
        assert (cache.hits, cache.puts) == (0, 1)
        assert db.execute(sql).rows == first.rows
        assert (cache.hits, cache.puts) == (1, 1)

    def test_server_result_cache_is_stable(self, tmp_path):
        import asyncio

        from repro.server.app import create_app

        app = create_app(cache=str(tmp_path), port=0)
        try:
            assert app.result_cache is not None
            assert app.result_cache is app.result_cache
        finally:
            asyncio.run(app.stop())

    def test_bogus_argument_raises(self):
        with pytest.raises(TypeError):
            resolve_cache(3.14)

    def test_clear_resets_counters_and_entries(self):
        cache = ResultCache.memory()
        cache.put("k", (1, 2))
        assert cache.get("k") == (1, 2)
        cache.clear()
        assert cache.get("k") is None
        assert cache.misses == 1 and cache.hits == 0 and cache.puts == 0
