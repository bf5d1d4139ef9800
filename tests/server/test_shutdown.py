"""Graceful shutdown: drain semantics in-process, SIGTERM in a real process."""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.server.client import ServerError
from repro.server.testing import running_server

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# ---------------------------------------------------------------------------
# in-process drain
# ---------------------------------------------------------------------------


def test_draining_server_rejects_work_but_answers_health(make_db):
    with running_server(database=make_db()) as server:
        client = server.client()
        assert client.query("SELECT count(*) FROM pts")["rows"] == [[60]]
        server.app.begin_drain()
        try:
            health = client.health()
            assert health["status"] == "draining"
            with pytest.raises(ServerError) as err:
                client.query("SELECT count(*) FROM pts")
            assert err.value.status == 503
            status, body = client.request("POST", "/v1/sgb", {"points": [], "eps": 1.0})
            assert status == 503
            assert body["error"]["status"] == 503
        finally:
            client.close()


def test_draining_executor_rejects_new_jobs_with_503(make_db):
    with running_server(database=make_db()) as server:
        client = server.client()
        try:
            server.app.jobs.shutdown(wait=True)
            status, body = client.request(
                "POST",
                "/v1/query",
                {"sql": "SELECT count(*) FROM pts"},
                params={"mode": "async"},
            )
            assert status == 503
        finally:
            client.close()


def test_stop_leaves_engine_worker_pools_usable(make_db):
    """In-process servers must NOT flip the process-wide shutdown flag."""
    import repro.engine.workers as W

    with running_server(database=make_db()) as server:
        with server.client() as client:
            client.health()
    assert W._SHUTTING_DOWN is False
    assert W.pool_stats()["shutting_down"] is False


def test_stop_raises_when_the_thread_outlives_the_timeout():
    import asyncio
    import threading

    from repro.server.testing import ServerThread

    # A thread stuck outside its event loop (a drain that never returns)
    # must fail stop() loudly rather than be forgotten.
    release = threading.Event()
    stuck = threading.Thread(target=release.wait, name="stuck-server", daemon=True)
    server = ServerThread(app=None)  # type: ignore[arg-type]
    server._loop = asyncio.new_event_loop()
    server._thread = stuck
    stuck.start()
    try:
        with pytest.raises(RuntimeError, match="stuck-server still running"):
            server.stop(timeout=0.05)
        assert server._thread is stuck
    finally:
        release.set()
        stuck.join(timeout=10)
        server._loop.close()
    assert not stuck.is_alive()
    server.stop(timeout=1.0)
    assert server._thread is None


# ---------------------------------------------------------------------------
# real-subprocess SIGTERM drain
# ---------------------------------------------------------------------------


def _spawn_server(*extra_args: str) -> "tuple[subprocess.Popen, str, int]":
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env.pop("SGB_SERVER_PORT", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    deadline = time.monotonic() + 30
    banner = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            if proc.poll() is not None:
                raise AssertionError(f"server exited early: {proc.returncode}")
            continue
        if "listening on" in line:
            banner = line.strip()
            break
    else:
        proc.kill()
        raise AssertionError("server never printed its listen banner")
    address = banner.rsplit("http://", 1)[1]
    host, _, port = address.partition(":")
    return proc, host, int(port)


def _get(host: str, port: int, path: str) -> "tuple[int, dict]":
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def test_sigterm_drains_and_exits_zero():
    proc, host, port = _spawn_server()
    try:
        status, health = _get(host, port, "/v1/health")
        assert status == 200 and health["status"] == "ok"
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
    except BaseException:
        proc.kill()
        raise
    assert proc.returncode == 0
    assert "draining" in out
    assert "stopped cleanly" in out


def test_sigint_also_shuts_down_cleanly():
    proc, host, port = _spawn_server()
    try:
        status, _ = _get(host, port, "/v1/health")
        assert status == 200
        proc.send_signal(signal.SIGINT)
        out, _ = proc.communicate(timeout=30)
    except BaseException:
        proc.kill()
        raise
    assert proc.returncode == 0
    assert "stopped cleanly" in out


def test_subprocess_serves_queries_with_auth():
    proc, host, port = _spawn_server("--token", "tok123")
    try:
        status, _ = _get(host, port, "/v1/health")  # health skips auth
        assert status == 200
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            body = json.dumps(
                {"points": [[0.0, 0.0], [0.1, 0.1], [5.0, 5.0]], "eps": 0.5}
            ).encode()
            conn.request(
                "POST",
                "/v1/sgb",
                body=body,
                headers={"Authorization": "Bearer tok123"},
            )
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 200
        assert payload["groups"] == [[0, 1], [2]]
        proc.send_signal(signal.SIGTERM)
        proc.communicate(timeout=30)
    except BaseException:
        proc.kill()
        raise
    assert proc.returncode == 0
