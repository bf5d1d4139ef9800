"""Concurrency regression tests: stores, the result cache, and table-derived
caches are hammered from many threads and must stay internally consistent
(the HTTP server runs engine work for concurrent requests on a thread pool,
so all of these objects are genuinely shared across threads)."""

from __future__ import annotations

import random
import threading

from repro.minidb.database import Database
from repro.storage.cache import ResultCache
from repro.storage.store import LocalFileStore, MemStore, TieredStore

N_THREADS = 8
N_OPS = 400

#: Seconds a hammer thread may run before the test fails by its name.
JOIN_TIMEOUT = 120


def _hammer(worker, n_threads: int = N_THREADS):
    """Run ``worker(thread_index)`` across threads, surfacing any exception."""
    errors: list = []
    barrier = threading.Barrier(n_threads)

    def run(index: int) -> None:
        try:
            barrier.wait()
            worker(index)
        except Exception as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(i,), name=f"hammer-{i}")
        for i in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
        assert not thread.is_alive(), f"{thread.name} still running after {JOIN_TIMEOUT} s"
    assert not errors, f"worker raised: {errors[0]!r}"


def test_memstore_stays_consistent_under_contention():
    store = MemStore(max_bytes=64 * 1024)

    def worker(index: int) -> None:
        rng = random.Random(index)
        for op in range(N_OPS):
            key = f"k{rng.randrange(32)}"
            roll = rng.random()
            if roll < 0.5:
                store.put(key, bytes(rng.randrange(1, 512)))
            elif roll < 0.9:
                value = store.get(key)
                assert value is None or isinstance(value, bytes)
            else:
                store.delete(key)

    _hammer(worker)
    # The byte total must equal the sum of what is actually stored — a lost
    # update would leave the accounting permanently skewed.
    keys = store.keys()
    actual = sum(len(store.get(k) or b"") for k in keys)
    assert store.total_bytes() == actual
    assert store.total_bytes() <= store.max_bytes


def test_tiered_store_promotions_race_safely(tmp_path):
    store = TieredStore(
        MemStore(max_bytes=8 * 1024),
        LocalFileStore(str(tmp_path), max_bytes=256 * 1024),
    )
    store.put("shared", b"x" * 100)

    def worker(index: int) -> None:
        rng = random.Random(1000 + index)
        for _ in range(N_OPS):
            if rng.random() < 0.3:
                store.put(f"k{rng.randrange(16)}", bytes(rng.randrange(1, 256)))
            else:
                # Hits on the disk tier promote into the mem tier while other
                # threads write — the promotion must never corrupt either.
                value = store.get("shared")
                assert value == b"x" * 100 or value is None

    _hammer(worker)
    assert store.get("shared") == b"x" * 100


def test_result_cache_counters_never_lose_increments():
    cache = ResultCache.memory()
    gets_per_thread = N_OPS

    def worker(index: int) -> None:
        rng = random.Random(7 + index)
        for _ in range(gets_per_thread):
            key = f"key{rng.randrange(8)}"
            if cache.get(key) is None:
                cache.put(key, {"payload": key})

    _hammer(worker)
    # Every get incremented exactly one of hits/misses; a data race on the
    # counters would make the sum fall short of the number of gets.
    assert cache.hits + cache.misses == N_THREADS * gets_per_thread
    assert cache.puts == cache.misses  # each miss was followed by one put


WRITER_INSERTS = 1000


def test_table_derived_caches_survive_concurrent_reads_and_writes():
    db = Database()
    db.execute("CREATE TABLE pts (x DOUBLE, y DOUBLE)")
    db.insert_rows("pts", [(float(i % 13), float(i % 7)) for i in range(200)])
    table = db.table("pts")
    stop = threading.Event()
    writer_errors: list = []

    def writer() -> None:
        # A fixed insert budget bounds the table: an unbounded writer outruns
        # readers that redo O(rows) work per version and grows it without end.
        try:
            for i in range(WRITER_INSERTS):
                if stop.is_set():
                    break
                db.insert_rows("pts", [(float(i % 13), float(i % 7))])
        except Exception as exc:  # noqa: BLE001 - surfaced below
            writer_errors.append(exc)

    def reader(index: int) -> None:
        for _ in range(60):
            stats = table.point_stats((0, 1))
            assert stats.count >= 200
            digest = table.point_fingerprint((0, 1))
            assert isinstance(digest, str) and digest

    writer_thread = threading.Thread(target=writer, name="writer")
    writer_thread.start()
    try:
        _hammer(reader)
    finally:
        stop.set()
        writer_thread.join(timeout=60)
    assert not writer_thread.is_alive(), "writer still running after 60 s"
    assert not writer_errors, f"writer raised: {writer_errors[0]!r}"
    # Once quiescent, the caches converge on the final version's values.
    final = table.point_stats((0, 1))
    assert final.count == len(table.rows)
    assert table.point_fingerprint((0, 1)) == table.point_fingerprint((0, 1))
