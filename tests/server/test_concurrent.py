"""Concurrent clients: many threads, mixed routes, answers identical to a
serial replay of the same operations (one shared Database, no corruption)."""

from __future__ import annotations

import json
import random
import threading

from repro.core.api import sgb_any, sim_join
from repro.server.jsonio import (
    grouping_result_payload,
    join_pairs_payload,
    query_result_payload,
)

N_THREADS = 8
OPS_PER_THREAD = 6


def canon(payload):
    return json.loads(json.dumps(payload))


def _build_ops(server):
    """A deterministic mixed-op script with its serially computed answers."""
    rng = random.Random(1234)
    ops = []
    for _ in range(N_THREADS * OPS_PER_THREAD):
        choice = rng.randrange(4)
        if choice == 0:
            limit = rng.randint(1, 60)
            sql = f"SELECT id, x, y FROM pts LIMIT {limit}"
            expected = canon(query_result_payload(server.app.db.execute(sql)))
            ops.append(("query", sql, expected))
        elif choice == 1:
            points = [
                [round(rng.uniform(0, 5), 4), round(rng.uniform(0, 5), 4)]
                for _ in range(rng.randint(2, 20))
            ]
            eps = round(rng.uniform(0.3, 1.5), 3)
            expected = canon(grouping_result_payload(sgb_any(points, eps)))
            ops.append(("sgb", (points, eps), expected))
        elif choice == 2:
            left = [
                [round(rng.uniform(0, 5), 4), round(rng.uniform(0, 5), 4)]
                for _ in range(rng.randint(1, 12))
            ]
            right = [
                [round(rng.uniform(0, 5), 4), round(rng.uniform(0, 5), 4)]
                for _ in range(rng.randint(1, 12))
            ]
            eps = round(rng.uniform(0.5, 2.0), 3)
            expected = canon(join_pairs_payload(sim_join(left, right, eps=eps)))
            ops.append(("join", (left, right, eps), expected))
        else:
            ops.append(("health", None, None))
    return ops


def test_eight_threads_mixed_routes_match_serial_replay(server):
    ops = _build_ops(server)
    failures: list = []
    barrier = threading.Barrier(N_THREADS)

    def worker(thread_index: int) -> None:
        # One client (one keep-alive connection) per thread, by contract.
        client = server.client()
        barrier.wait()
        try:
            for op_index in range(
                thread_index * OPS_PER_THREAD, (thread_index + 1) * OPS_PER_THREAD
            ):
                kind, arg, expected = ops[op_index]
                if kind == "query":
                    got = client.query(arg)
                elif kind == "sgb":
                    got = client.sgb(arg[0], arg[1], kind="any")
                elif kind == "join":
                    got = client.join(arg[0], arg[1], eps=arg[2])
                else:
                    health = client.health()
                    assert health["status"] == "ok"
                    continue
                if got != expected:
                    failures.append((op_index, kind, got, expected))
        except Exception as exc:  # noqa: BLE001 - surfaced by the main thread
            failures.append((thread_index, "exception", repr(exc), None))
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"client-{i}")
        for i in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), f"{thread.name} still running after 120 s"
    assert not failures, f"{len(failures)} divergences: {failures[:3]}"


def test_concurrent_requests_share_the_result_cache_safely(make_db):
    """Hammer one cached point batch from many threads; every response equal."""
    import os

    import pytest

    from repro.server.testing import running_server
    from repro.storage.cache import ResultCache

    if os.environ.get("SGB_CACHE", "").strip().lower() in ("off", "0", "false", "no"):
        pytest.skip("SGB_CACHE=off bypasses the cache this test observes")

    cache = ResultCache.memory()
    points = [[float(i % 7) / 3.0, float(i % 5) / 3.0] for i in range(40)]
    sgb_any(points, 0.4, cache=cache)  # prime: later calls are cache hits
    # A cached grouping carries no advisory plan, so the expectation must be
    # the hit payload, not the first (computed) one.
    expected = canon(
        grouping_result_payload(sgb_any(points, 0.4, cache=cache))
    )
    with running_server(database=make_db(), cache=cache) as server:
        results: list = []

        def worker() -> None:
            client = server.client()
            try:
                for _ in range(4):
                    results.append(client.sgb(points, 0.4, kind="any"))
            finally:
                client.close()

        threads = [
            threading.Thread(target=worker, name=f"cache-client-{i}")
            for i in range(N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive(), f"{thread.name} still running after 120 s"
    assert len(results) == N_THREADS * 4
    assert all(result == expected for result in results)
    # The shared cache actually served repeats, and its counters stayed sane.
    assert cache.hits >= N_THREADS * 4 - 1
    assert cache.hits + cache.misses >= N_THREADS * 4
