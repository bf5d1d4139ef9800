"""Shared fixtures for the test suite."""

from __future__ import annotations

import faulthandler

import pytest

from repro.minidb import Database
from repro.workloads.synthetic import clustered_points, uniform_points
from repro.workloads.tpch import load_tpch

#: Per-test wall-clock ceiling in seconds, far above the slowest test
#: (about 22 s): a test that reaches it is hung, so every thread's traceback
#: is dumped and the run exits instead of stalling.
HANG_SECONDS = 600


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(HANG_SECONDS, exit=True)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def fig2_points():
    """The Figure 2 scenario: two 2-point clusters plus one bridging point.

    With LINF / eps = 3 the expected outcomes are: JOIN-ANY -> {3, 2},
    ELIMINATE -> {2, 2}, FORM-NEW-GROUP -> {2, 2, 1}, SGB-Any -> {5}.
    """
    return [
        (2.0, 8.0),  # a1
        (3.0, 7.0),  # a2
        (7.0, 5.0),  # a3
        (8.0, 4.0),  # a4
        (5.0, 6.5),  # a5 - within eps of every other point
    ]


@pytest.fixture
def small_clustered():
    """A small clustered point cloud for cross-strategy consistency tests."""
    return clustered_points(300, clusters=8, spread=0.03, seed=13)


@pytest.fixture
def small_uniform():
    """A small uniform point cloud."""
    return uniform_points(200, seed=7)


@pytest.fixture(scope="session")
def tpch_db():
    """A tiny TPC-H database shared by the SQL integration tests."""
    db = Database(sgb_strategy="index")
    load_tpch(db, scale_factor=0.0005, seed=1)
    return db


@pytest.fixture
def simple_db():
    """A small hand-built database with a points table and a tags table."""
    db = Database()
    db.execute("CREATE TABLE points (id INT, x FLOAT, y FLOAT, label TEXT)")
    db.execute(
        "INSERT INTO points VALUES "
        "(1, 0.0, 0.0, 'a'), (2, 0.5, 0.5, 'a'), (3, 0.6, 0.4, 'b'), "
        "(4, 5.0, 5.0, 'b'), (5, 5.2, 5.1, 'c'), (6, 9.0, 9.0, 'c')"
    )
    db.execute("CREATE TABLE tags (pid INT, tag TEXT, weight FLOAT)")
    db.execute(
        "INSERT INTO tags VALUES "
        "(1, 'red', 1.0), (2, 'blue', 2.0), (4, 'red', 0.5), (6, 'green', 3.0)"
    )
    return db
