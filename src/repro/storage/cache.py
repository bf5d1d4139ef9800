"""The tiered, content-addressed result cache for SGB and join results.

Expensive intermediate results — SGB groupings and similarity-join pair
lists — are memoised under keys derived from *what was computed over what
data*: a :func:`repro.core.fingerprint.fingerprint_points` content digest of
the input batch plus the operator parameters that can change the result
(``eps``/``k``, metric, strategy, overlap action, seed) and the PointSet
backend.  Anything that only changes *how fast* the result is produced
(worker counts, shard fan-outs, batch/frontier flags) is deliberately
excluded: every execution mode is bit-identical, so they may share entries.

Hits reconstruct the exact :class:`~repro.core.result.GroupingResult` /
:class:`~repro.join.epsilon.JoinResult` payload that was stored — bit
identical groups, eliminated lists, points, and pair order.  Damaged or
truncated entries (a killed process mid-write on an unlucky filesystem,
manual tampering) are treated as misses and dropped; the cache can slow a
query down by at most one failed read, never break it.

Configuration
-------------

``cache=`` arguments accept ``None``/``False`` (off), ``True`` (the
process-wide default cache), a directory path (a tiered mem → local-file
cache rooted there), or a :class:`ResultCache` instance.  The ``SGB_CACHE``
environment variable overrides: ``off``/``0``/``false`` force the cache off
everywhere (the bypass smoke-tested in CI), ``on``/``1``/``mem`` enable the
default in-memory cache, and any other value is taken as a spill directory.
``SGB_CACHE_MEM_BYTES`` / ``SGB_CACHE_DISK_BYTES`` size the tiers.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.fingerprint import fingerprint_bytes
from repro.storage.store import AbstractStore, LocalFileStore, MemStore, TieredStore

__all__ = [
    "ResultCache",
    "resolve_cache",
    "default_cache",
    "reset_default_cache",
    "grouping_payload",
    "grouping_from_payload",
]

_ENV_CACHE = "SGB_CACHE"
_ENV_MEM_BYTES = "SGB_CACHE_MEM_BYTES"
_ENV_DISK_BYTES = "SGB_CACHE_DISK_BYTES"

_OFF_VALUES = {"off", "0", "false", "no", "none"}
_ON_VALUES = {"on", "1", "true", "yes", "mem", "memory", "auto"}

#: Payload format tag; bump when the pickled layout changes so stale spill
#: directories read as misses instead of mis-decoding.
_PAYLOAD_MAGIC = b"RPCACHE1"


class ResultCache:
    """Content-addressed result cache over an :class:`AbstractStore`.

    The cache stores pickled payloads prefixed with a format magic; loads
    verify the magic and tolerate any decoding failure by deleting the entry
    and reporting a miss.  ``hits`` / ``misses`` / ``puts`` counters make
    cache behaviour observable to tests and benchmarks; they move under a
    lock so concurrent server requests never lose increments (the stores
    guard their own structures — this lock is for the counters only).
    """

    def __init__(self, store: AbstractStore) -> None:
        self.store = store
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self._lock = threading.Lock()

    def _count(self, field: str, delta: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + delta)

    # -- constructors ------------------------------------------------------

    @classmethod
    def memory(cls, max_bytes: Optional[int] = None) -> "ResultCache":
        """A purely in-process cache (the default tier)."""
        return cls(MemStore(max_bytes=max_bytes or _mem_bytes()))

    @classmethod
    def tiered(
        cls,
        directory: str,
        mem_bytes: Optional[int] = None,
        disk_bytes: Optional[int] = None,
    ) -> "ResultCache":
        """A mem → local-file cache spilling under ``directory``."""
        return cls(
            TieredStore(
                MemStore(max_bytes=mem_bytes or _mem_bytes()),
                LocalFileStore(directory, max_bytes=disk_bytes or _disk_bytes()),
            )
        )

    # -- raw object access -------------------------------------------------

    def get(self, key: str) -> Optional[object]:
        """Return the cached object under ``key`` or ``None`` (miss/damage)."""
        blob = self.store.get(key)
        if blob is None:
            self._count("misses")
            return None
        if not blob.startswith(_PAYLOAD_MAGIC):
            self.store.delete(key)
            self._count("misses")
            return None
        try:
            value = pickle.loads(blob[len(_PAYLOAD_MAGIC) :])
        except Exception:  # noqa: BLE001 - damaged entries degrade to misses
            self.store.delete(key)
            self._count("misses")
            return None
        self._count("hits")
        return value

    def put(self, key: str, value: object) -> None:
        """Store ``value`` under ``key`` (best-effort)."""
        try:
            blob = _PAYLOAD_MAGIC + pickle.dumps(value, protocol=4)
        except Exception:  # noqa: BLE001 - unpicklable values are skipped
            return
        self.store.put(key, blob)
        self._count("puts")

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        self.store.clear()
        with self._lock:
            self.hits = self.misses = self.puts = 0

    def _demote(self, key: str) -> None:
        """Reclassify a decodable-but-malformed payload as the miss it is."""
        self.store.delete(key)
        with self._lock:
            self.hits -= 1
            self.misses += 1

    # -- typed helpers -----------------------------------------------------

    def get_grouping(self, key: str):
        """Return a cached :class:`GroupingResult` or ``None``.

        A payload that unpickles but does not have the grouping shape (a
        foreign object written under our key) is deleted and reported as a
        miss — the cache never hands a grouping it cannot vouch for.
        """
        payload = self.get(key)
        if payload is None:
            return None
        try:
            groups, eliminated, points = payload
            if not all(
                isinstance(part, list) for part in (groups, eliminated, points)
            ):
                raise TypeError("malformed grouping payload")
            return grouping_from_payload(payload)
        except Exception:  # noqa: BLE001 - foreign payload under our key
            self._demote(key)
            return None

    def put_grouping(self, key: str, result) -> None:
        """Cache a :class:`GroupingResult` (its plan is never stored)."""
        self.put(key, grouping_payload(result))

    def get_pairs(self, key: str) -> "Optional[List[Tuple[int, int]]]":
        """Return a cached join pair list or ``None``.

        :meth:`put_pairs` normalises to a list of int 2-tuples at write time
        and pickling round-trips that exactly, so a structural spot check is
        enough here; per-element conversion only runs for payloads that do
        not have the written shape (and anything unconvertible is demoted to
        a miss).
        """
        payload = self.get(key)
        if payload is None:
            return None
        if isinstance(payload, list) and (
            not payload
            or (isinstance(payload[0], tuple) and len(payload[0]) == 2)
        ):
            return payload
        try:
            return [(int(i), int(j)) for i, j in payload]
        except Exception:  # noqa: BLE001 - foreign payload under our key
            self._demote(key)
            return None

    def put_pairs(self, key: str, pairs: Sequence[Tuple[int, int]]) -> None:
        """Cache a join pair list."""
        self.put(key, [(int(i), int(j)) for i, j in pairs])


# ---------------------------------------------------------------------------
# cache keys
# ---------------------------------------------------------------------------


def _param_bytes(*parts: object) -> bytes:
    """Canonical byte encoding of key parameters (floats by their bits)."""
    out = bytearray()
    for part in parts:
        if isinstance(part, float):
            out += b"f" + struct.pack("<d", part)
        elif isinstance(part, bool) or part is None:
            out += repr(part).encode("ascii")
        elif isinstance(part, int):
            out += b"i" + str(part).encode("ascii")
        else:
            token = str(part).encode("utf-8")
            out += b"s" + struct.pack("<I", len(token)) + token
        out += b"|"
    return bytes(out)


def sgb_any_key(
    fingerprint: str, eps: float, metric: str, strategy: str, backend: str
) -> str:
    """Cache key of an SGB-Any grouping over the fingerprinted batch."""
    return fingerprint_bytes(
        b"sgb-any|",
        fingerprint.encode("ascii"),
        _param_bytes(float(eps), metric, strategy, backend),
    )


def sgb_all_key(
    fingerprint: str,
    eps: float,
    metric: str,
    strategy: str,
    on_overlap: str,
    seed: int,
    backend: str,
) -> str:
    """Cache key of an SGB-All grouping (overlap action and seed matter)."""
    return fingerprint_bytes(
        b"sgb-all|",
        fingerprint.encode("ascii"),
        _param_bytes(float(eps), metric, strategy, on_overlap, int(seed), backend),
    )


def join_key(
    left_fingerprint: str,
    right_fingerprint: str,
    eps: Optional[float],
    k: Optional[int],
    metric: str,
    backend: str,
) -> str:
    """Cache key of a similarity join between two fingerprinted relations."""
    return fingerprint_bytes(
        b"sim-join|",
        left_fingerprint.encode("ascii"),
        right_fingerprint.encode("ascii"),
        _param_bytes(
            None if eps is None else float(eps),
            None if k is None else int(k),
            metric,
            backend,
        ),
    )


# ---------------------------------------------------------------------------
# grouping payloads
# ---------------------------------------------------------------------------


def grouping_payload(result) -> "Tuple[List[List[int]], List[int], List[tuple]]":
    """The picklable identity of a :class:`GroupingResult`.

    Only the three result-defining fields are stored; the advisory ``plan``
    is execution metadata and never cached.
    """
    return (
        [list(members) for members in result.groups],
        list(result.eliminated),
        list(result.points),
    )


def grouping_from_payload(payload):
    """Rebuild a :class:`GroupingResult` from :func:`grouping_payload`."""
    from repro.core.result import GroupingResult

    groups, eliminated, points = payload
    return GroupingResult(
        groups=[list(members) for members in groups],
        eliminated=list(eliminated),
        points=[tuple(pt) for pt in points],
    )


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _mem_bytes() -> int:
    try:
        return int(os.environ.get(_ENV_MEM_BYTES, ""))
    except ValueError:
        return 256 * 1024 * 1024


def _disk_bytes() -> int:
    try:
        return int(os.environ.get(_ENV_DISK_BYTES, ""))
    except ValueError:
        return 1024 * 1024 * 1024


_DEFAULT_CACHE: Optional[ResultCache] = None
_DEFAULT_KIND: Optional[str] = None

#: One tiered cache per spill directory, so every statement and request that
#: names a directory shares its memory tier and counters.
_DIRECTORY_CACHES: Dict[str, ResultCache] = {}
_DIRECTORY_LOCK = threading.Lock()


def _directory_cache(directory: str) -> ResultCache:
    """The process's one tiered mem → local-file cache rooted at ``directory``."""
    key = os.path.abspath(directory)
    with _DIRECTORY_LOCK:
        cache = _DIRECTORY_CACHES.get(key)
        if cache is None:
            cache = _DIRECTORY_CACHES[key] = ResultCache.tiered(key)
        return cache


def default_cache() -> ResultCache:
    """The process-wide cache used by ``cache=True`` / ``SGB_CACHE=on``.

    In-memory by default; when ``SGB_CACHE`` names a directory the default
    cache is the tiered mem → local-file cache rooted there.  Rebuilt if the
    environment selection changes between calls (tests repoint it).
    """
    global _DEFAULT_CACHE, _DEFAULT_KIND
    env = os.environ.get(_ENV_CACHE, "").strip()
    kind = env if env and env.lower() not in _ON_VALUES | _OFF_VALUES else "mem"
    if _DEFAULT_CACHE is None or kind != _DEFAULT_KIND:
        _DEFAULT_CACHE = ResultCache.memory() if kind == "mem" else _directory_cache(kind)
        _DEFAULT_KIND = kind
    return _DEFAULT_CACHE


def reset_default_cache() -> None:
    """Forget the process-wide caches (tests isolate their tmp dirs)."""
    global _DEFAULT_CACHE, _DEFAULT_KIND
    _DEFAULT_CACHE = None
    _DEFAULT_KIND = None
    with _DIRECTORY_LOCK:
        _DIRECTORY_CACHES.clear()


def resolve_cache(cache: object = None) -> Optional[ResultCache]:
    """Resolve a ``cache=`` argument against the ``SGB_CACHE`` environment.

    ``SGB_CACHE=off`` (or ``0``/``false``) wins over everything — even an
    explicit :class:`ResultCache` instance is bypassed, which is what makes
    the cache provably removable from any workload.  Otherwise an explicit
    argument wins over the environment, and with no argument the environment
    alone decides (unset means no caching).
    """
    env = os.environ.get(_ENV_CACHE, "").strip()
    if env.lower() in _OFF_VALUES:
        return None
    if isinstance(cache, ResultCache):
        return cache
    if cache is True:
        return default_cache()
    if cache is False:
        return None
    if isinstance(cache, str):
        return _directory_cache(cache)
    if cache is not None:
        raise TypeError(f"unsupported cache argument {cache!r}")
    if not env:
        return None
    return default_cache()
