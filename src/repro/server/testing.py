"""Run a server inside the current process (tests, examples, benchmarks).

:class:`ServerThread` hosts one :class:`~repro.server.app.App` on a private
asyncio event loop in a daemon thread — the caller's thread stays free to
issue HTTP requests against it.  The context-manager protocol guarantees the
drain path runs on exit, and the engine's shared worker pools are *not* torn
down (that flag is process-wide; only the standalone ``python -m
repro.server`` flips it).

    with running_server(database=db) as server:
        payload = server.client().query("SELECT count(*) FROM t ...")
"""

from __future__ import annotations

import asyncio
import threading
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.minidb.database import Database
from repro.server.app import App, create_app
from repro.server.settings import ServerSettings

__all__ = ["ServerThread", "running_server"]


class ServerThread:
    """Host an app on a background event loop; start/stop from any thread."""

    def __init__(self, app: App) -> None:
        self.app = app
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._boot_error: Optional[BaseException] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ServerThread":
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=15.0):
            raise RuntimeError("server failed to start within 15s")
        if self._boot_error is not None:
            raise RuntimeError("server failed to boot") from self._boot_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.app.start())
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
            self._boot_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
            # stop() was requested: run the graceful drain on this loop so
            # in-flight handlers finish on their own event loop.
            loop.run_until_complete(self.app.stop(drain_engine=False))
        finally:
            loop.close()

    def stop(self, timeout: float = 20.0) -> None:
        """Stop serving and join the thread (idempotent).

        Raises :class:`RuntimeError` when the thread is still alive after
        ``timeout`` seconds (a drain that hangs), instead of forgetting it.
        """
        if self._thread is None or self._loop is None:
            return
        if self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self._loop.stop)
            except RuntimeError:  # loop already closed
                pass
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError(
                f"{self._thread.name} still running {timeout}s after stop()"
            )
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- conveniences ------------------------------------------------------

    @property
    def port(self) -> int:
        return self.app.port

    @property
    def host(self) -> str:
        return self.app.host

    def client(self):
        """A fresh client for this server (one per thread, please)."""
        return self.app.client()


@contextmanager
def running_server(
    settings: Optional[ServerSettings] = None,
    database: Optional[Database] = None,
    **overrides,
) -> Iterator[ServerThread]:
    """Context manager: a served app on an ephemeral port.

    ``overrides`` are :class:`ServerSettings` fields; the port defaults to 0
    (ephemeral) so parallel test runs never collide.
    """
    if settings is None:
        overrides.setdefault("port", 0)
        settings = ServerSettings.resolve(**overrides)
    app = create_app(settings, database=database)
    server = ServerThread(app)
    with server:
        yield server
