"""Fault injection for the shared shard scaffold (:func:`run_shards`).

Every sharded driver follows one policy: a missing or broken pool is
dropped and the driver answers from its serial reference (the aggregate
push-down returns ``None`` and the executor groups serially and replays,
without a second pool), while an error raised
by the in-process stitch is a bug and propagates.  At most two workers run.
"""

from __future__ import annotations

import os
import random
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.join.sharded as eps_sharded_module
import repro.minidb.exec.sgb as sgb_module
from repro.core.api import sgb_any
from repro.engine import workers as W
from repro.join import eps_join, eps_join_sharded, knn_join, knn_join_sharded
from repro.minidb.database import Database

EPS = 0.8
_RNG = random.Random(5)
POINTS = [(_RNG.uniform(0, 20), _RNG.uniform(0, 20)) for _ in range(400)]
LEFT, RIGHT = POINTS[:200], POINTS[200:]
COUNT_SQL = (
    "SELECT x, y, count(*) AS c FROM t "
    "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.8 WORKERS {workers} ORDER BY x, y"
)


def _die() -> None:
    """Shard task that kills its worker process outright."""
    os._exit(1)


@pytest.fixture
def pools(monkeypatch):
    """A private pool table; whatever real pool lands in it is shut down."""
    table: dict = {}
    monkeypatch.setattr(W, "_POOLS", table)
    yield table
    for pool in list(table.values()):
        pool.shutdown(wait=False, cancel_futures=True)


class _BrokenFuture:
    def result(self, timeout=None):
        raise BrokenProcessPool("a worker died")


class _StubPool:
    """A pool whose ``submit`` raises, or whose futures' ``result`` does."""

    def __init__(self, fail_at: str) -> None:
        self.fail_at = fail_at
        self.submits = 0
        self.shut_down = False

    def submit(self, fn, *args, **kwargs):
        self.submits += 1
        if self.fail_at == "submit":
            raise OSError("no process could be spawned")
        return _BrokenFuture()

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut_down = True


def _pushdown_db() -> Database:
    db = Database()
    db.create_table("t", [("x", "FLOAT"), ("y", "FLOAT")])
    db.insert_rows("t", POINTS)
    return db


def _pushdown_run(monkeypatch, workers: int):
    outcomes = []
    real = sgb_module.sgb_any_pushdown

    def spy(*args, **kwargs):
        outcomes.append(real(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(sgb_module, "sgb_any_pushdown", spy)
    rows = _pushdown_db().execute(COUNT_SQL.format(workers=workers)).rows
    return rows, [outcome is None for outcome in outcomes]


#: driver -> (sharded call on two workers, serial reference answer)
DRIVERS = {
    "sgb_any": (
        lambda mp: W.sgb_any_sharded(POINTS, EPS, workers=2).groups,
        lambda mp: sgb_any(POINTS, EPS, workers=1).groups,
    ),
    "eps_join": (
        lambda mp: eps_join_sharded(LEFT, RIGHT, EPS, workers=2),
        lambda mp: eps_join(LEFT, RIGHT, EPS, workers=1),
    ),
    "knn_join": (
        lambda mp: knn_join_sharded(LEFT, RIGHT, 3, workers=2),
        lambda mp: knn_join(LEFT, RIGHT, 3, workers=1),
    ),
    # The push-down reports None on the broken pool; the rows are the replay.
    "pushdown": (
        lambda mp: _pushdown_run(mp, 2),
        lambda mp: (_pushdown_run(mp, 1)[0], [True]),
    ),
}


def test_killed_worker_drops_the_pool_and_the_next_pool_works(pools):
    assert W.run_shards(2, _die, [()], lambda: "stitched") is None
    assert 2 not in pools
    pool = W.get_worker_pool(2)
    assert pool is not None
    assert pool.submit(abs, -3).result(timeout=60) == 3


@pytest.mark.parametrize("fail_at", ["submit", "result"])
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_broken_pool_falls_back_to_the_serial_reference(driver, fail_at, pools, monkeypatch):
    run, reference = DRIVERS[driver]
    expected = reference(monkeypatch)
    stub = _StubPool(fail_at)
    pools[2] = stub
    assert run(monkeypatch) == expected
    assert stub.submits > 0 and stub.shut_down
    assert pools.get(2) is not stub
    if driver == "pushdown":
        # The degraded push-down goes straight to the serial grouper and the
        # replay: no second pool is spawned for the same batch.
        assert 2 not in pools


@pytest.mark.parametrize(
    "stitcher, call",
    [
        ((W, "_band_edges"), lambda: W.sgb_any_sharded(POINTS, EPS, workers=2)),
        (
            (eps_sharded_module, "_band_pairs"),
            lambda: eps_join_sharded(LEFT, RIGHT, EPS, workers=2),
        ),
    ],
    ids=["sgb_any", "eps_join"],
)
def test_stitch_error_propagates(stitcher, call, pools, monkeypatch):
    def broken_stitch(*args):
        raise RuntimeError("stitch bug")

    monkeypatch.setattr(*stitcher, broken_stitch)
    with pytest.raises(RuntimeError, match="stitch bug"):
        call()
