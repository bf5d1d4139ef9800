"""Windowed incremental SGB-Any sessions over continuous point streams.

:class:`StreamingSGB` turns the batch SGB-Any operator into a continuous
one: micro-batches are ingested through the columnar ``add_batch`` fast
path, the live window is a ring of epoch-partitioned columnar blocks, and
every window flush reports the grouping of the window's live points plus the
change events (:mod:`repro.stream.deltas`) since the previous flush.

Incremental execution (the default) never regroups the window from scratch:

* Each live epoch owns a :class:`~repro.core.sgb_any.SGBAnyGrouper` that
  incrementally maintains the epoch-internal epsilon connectivity (and the
  spatial index answering probes against the epoch).  Its labels come from
  the sub-cell connectivity kernel (:meth:`PointSet.components`) through
  ``add_batch``; a micro-batch that opens an epoch lands in the window
  forest with one parent write per point.
* Eps-edges *between* epochs are discovered once, when a micro-batch
  arrives, by one grid-join of the batch against the combined older epochs
  (:meth:`NumpyPointSet.cross_pairs` / :meth:`PointSet.cross_within`).
  Each pair is mapped to its (older-epoch root, newer-epoch root) and
  de-duplicated (one ``lexsort`` on NumPy), so one edge stands for all the
  pairs between two epoch components; the edges are retained per epoch
  pair, reduced to a spanning subset.
* A global Union-Find forest over the live window accumulates both kinds of
  edges; a flush just reads its components.
* Union-Find cannot delete, so when an epoch expires the forest is rebuilt
  *without rescanning the window*: :meth:`UnionFind.split_forest` isolates
  the components that touched the expired epoch, untouched components are
  replayed verbatim, and only the touched ones are re-linked from the
  retained per-epoch forests (:meth:`SGBAnyGrouper.forest` /
  :meth:`UnionFind.merge_from`) and cross-epoch edge lists.  No distance is
  ever recomputed.

With ``workers`` resolving to more than one process the session instead
routes every flush through the sharded parallel engine
(:func:`repro.engine.workers.sgb_any_sharded` via ``sgb_any_grouping``),
regrouping the live window per flush across worker processes.  Both modes
return bit-identical flush results (after the canonical relabelling all SGB
paths share), enforced by the randomized equivalence suite.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.distance import Metric, resolve_metric
from repro.core.pointset import HAVE_NUMPY, NumpyPointSet, PointSet
from repro.core.result import GroupingResult, canonicalize_groups
from repro.core.sgb_any import SGBAnyGrouper
from repro.dstruct.union_find import UnionFind
from repro.engine.cost import forced_plan, plan_stream_flush, planner_delegated
from repro.exceptions import DimensionalityError, InvalidParameterError
from repro.stream.deltas import DeltaEvent, diff_flushes
from repro.stream.window import CountWindow, TickWindow, WindowPolicy

Point = Tuple[float, ...]

__all__ = ["StreamingSGB", "WindowResult", "stream_groups"]

try:  # optional; cross-epoch pairs are reduced in NumPy when it imports
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via the python backend
    _np = None

#: Checkpoint payload tag; bump when the session's pickled layout changes so
#: stale checkpoint files read as "start fresh" instead of mis-restoring.
_CHECKPOINT_FORMAT = "streaming-sgb/3"

#: The layout before the older-epoch view cached per-row epoch roots; still
#: readable (see :meth:`StreamingSGB.resume`).
_CHECKPOINT_FORMAT_2 = "streaming-sgb/2"

#: The layout before sessions kept their resolved flush worker count; still
#: readable (see :meth:`StreamingSGB.resume`).
_CHECKPOINT_FORMAT_1 = "streaming-sgb/1"


@dataclass
class WindowResult:
    """The outcome of one window flush.

    Attributes
    ----------
    window_id:
        Sequential flush number (0-based).
    epoch:
        Id of the epoch whose closing triggered this flush.
    start, end:
        The window extent, in the policy's unit: global stream positions for
        count windows, ticks for tick windows (``end`` exclusive).
    indices:
        Global stream positions of the window's live points, ascending.
    result:
        Grouping of the live points with **window-local** row indices
        (``0 .. len(indices) - 1``), directly comparable to a from-scratch
        ``sgb_any`` over the same points.
    deltas:
        Change events relative to the previous flush, over global stream
        positions.
    """

    window_id: int
    epoch: int
    start: int
    end: int
    indices: List[int]
    result: GroupingResult
    deltas: List[DeltaEvent] = field(default_factory=list)

    def global_groups(self) -> List[List[int]]:
        """Return the groups lifted to global stream positions (canonical)."""
        return [[self.indices[i] for i in group] for group in self.result.groups]

    @property
    def live_count(self) -> int:
        """Number of live points in the window."""
        return len(self.indices)


class _Epoch:
    """One live epoch: a contiguous columnar block of the window ring."""

    __slots__ = ("eid", "indices", "points", "grouper", "_pointset")

    def __init__(self, eid: int, grouper: Optional[SGBAnyGrouper]) -> None:
        self.eid = eid
        self.indices: List[int] = []
        self.points: List[Point] = []
        #: Incremental mode only: the epoch-local SGB-Any grouper holding the
        #: intra-epoch forest built through the ``add_batch`` fast path.
        #: ``None`` in sharded mode (flushes regroup via the engine).
        self.grouper = grouper
        self._pointset: Optional[PointSet] = None

    def pointset(self, backend: Optional[str]) -> PointSet:
        """Columnar view of the epoch, cached once the epoch stops growing.

        Cross-epoch edge discovery only ever probes *closed* epochs (the open
        epoch's internal edges come from its grouper), so the cache is built
        at most once per epoch.
        """
        if self._pointset is None or len(self._pointset) != len(self.points):
            # The tuples were validated when the batch was first ingested.
            self._pointset = PointSet.adopt_validated(self.points, backend=backend)
        return self._pointset


class _CrossEdges:
    """Spanning cross-epoch edge state for one live ``(older, newer)`` pair.

    Every edge links two epoch-component roots, so it stands for all the
    eps-pairs between those components.  ``edges`` holds only edges that
    connected something new *given the pair's earlier edges* — the discarded
    ones are redundant in every future rebuild too, because rebuilds only
    ever drop whole epochs, so the paths that made an edge redundant survive
    for as long as the pair does.  ``uf`` is the pair-scoped forest over
    those roots used for that filtering; it dies with the pair.
    """

    __slots__ = ("uf", "edges")

    def __init__(self) -> None:
        self.uf = UnionFind()
        self.edges: List[Tuple[int, int]] = []


class StreamingSGB:
    """A continuous SGB-Any session over a windowed point stream.

    Parameters
    ----------
    eps, metric:
        The similarity threshold and metric of the SGB-Any operator.
    window:
        A :class:`~repro.stream.window.WindowPolicy`, or an int count-window
        size (combined with ``slide``; tumbling when ``slide`` is omitted).
    slide:
        Count-window slide when ``window`` is an int; must divide the size.
    workers:
        Per-flush sharding: resolved like ``sgb_any(..., workers=)`` (explicit
        count, ``0``/``"auto"``, or ``None`` deferring to ``SGB_WORKERS``).
        More than one worker regroups each flush through ``repro.engine``;
        otherwise flushes read the incrementally maintained forest.
    backend:
        Optional :class:`PointSet` backend override (``"python"`` forces the
        pure-Python columnar kernels; default auto-selects NumPy).
    """

    def __init__(
        self,
        eps: float,
        metric: "Metric | str" = Metric.L2,
        window: "WindowPolicy | int" = None,  # type: ignore[assignment]
        slide: Optional[int] = None,
        workers: "Optional[int | str]" = None,
        backend: Optional[str] = None,
    ) -> None:
        self.eps = PointSet._check_eps(eps)
        self.metric = resolve_metric(metric)
        self.policy = self._resolve_policy(window, slide)
        self.workers = workers
        self._backend = backend
        self._sharded = self._plan_sharded_mode(workers)
        self._epochs: Deque[_Epoch] = deque()
        self._uf = UnionFind()
        #: Reduced eps-edges between live epoch pairs, ``(older_eid, newer_eid)``.
        self._cross: Dict[Tuple[int, int], _CrossEdges] = {}
        #: Cached columnar view of the closed (older) epochs, rebuilt when the
        #: epoch set changes: (eids key, combined PointSet, epoch root of each
        #: row, epoch slot of each row, epoch list).
        self._older_view: "Optional[Tuple[Any, ...]]" = None
        self._prev_global_groups: List[List[int]] = []
        self._next_index = 0
        self._window_id = 0
        self._flushed_eid = -1
        self._last_tick: Optional[int] = None
        self._dims: Optional[int] = None
        self._closed = False

    def _plan_sharded_mode(self, workers: "Optional[int | str]") -> bool:
        """Decide between per-flush sharding and the incremental mode.

        A delegated mode choice (``workers="auto"`` / no knob) asks the cost
        planner (:func:`repro.engine.cost.plan_stream_flush`) to price the
        incremental forest read against a sharded per-flush regroup of the
        window; the chosen plan is kept on ``self.plan`` and every sharded
        flush plans again.  A forced worker count goes through
        :func:`repro.engine.cost.forced_plan` once, and every flush reuses the
        count it resolved (so a clamped count warns once per session): a count
        window caps the live point count at ``policy.size``, so when that can
        never reach the parallel floor every flush would pay pool overhead
        for a payload the planner degrades to serial anyway — the session
        then stays incremental, which is strictly cheaper.  Tick windows
        carry no point-count bound, so they keep the requested sharding and
        rely on the same per-flush planner check inside the engine.  Both
        modes flush bit-identical results.
        """
        counted = self.policy.kind == "count"
        self.plan = None
        self._flush_workers = workers
        if planner_delegated(workers):
            self.plan = plan_stream_flush(self.policy.size if counted else 0, self.eps)
            return self.plan.parallel
        bound = self.policy.size if counted else sys.maxsize
        forced = forced_plan("stream_flush", bound, workers)
        self._flush_workers = forced.workers
        return forced.parallel

    @staticmethod
    def _resolve_policy(
        window: "WindowPolicy | int", slide: Optional[int]
    ) -> WindowPolicy:
        if isinstance(window, WindowPolicy):
            if slide is not None:
                raise InvalidParameterError(
                    "pass slide inside the WindowPolicy, not alongside it"
                )
            return window
        if window is None:
            raise InvalidParameterError("a window size or WindowPolicy is required")
        return CountWindow(size=window, slide=window if slide is None else slide)

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------

    def ingest(
        self,
        points: "PointSet | Sequence[Sequence[float]]",
        ticks: Optional[Sequence[int]] = None,
    ) -> List[WindowResult]:
        """Feed one micro-batch; return the windows it caused to flush.

        ``ticks`` is required (one per point, monotonically non-decreasing
        across the whole stream) for tick-based policies and must be omitted
        for count-based ones.
        """
        if self._closed:
            raise InvalidParameterError("stream session is closed")
        ps = PointSet.from_any(points, backend=self._backend)
        if len(ps) == 0:
            if ticks is not None and len(ticks) != 0:
                raise InvalidParameterError("ticks given without points")
            return []
        if self._dims is None:
            self._dims = ps.dims
        elif ps.dims != self._dims:
            raise DimensionalityError(
                f"stream dimensionality changed from {self._dims} to {ps.dims}"
            )
        tuples = ps.to_tuples()
        if isinstance(self.policy, TickWindow):
            if ticks is None:
                raise InvalidParameterError(
                    "a tick-based window policy requires ticks alongside the points"
                )
            if len(ticks) != len(tuples):
                raise InvalidParameterError(
                    f"got {len(tuples)} points but {len(ticks)} ticks"
                )
            return self._ingest_ticked(tuples, [int(t) for t in ticks])
        if ticks is not None:
            raise InvalidParameterError(
                "ticks are only meaningful with a tick-based window policy"
            )
        return self._ingest_counted(tuples)

    def checkpoint(self, path: str) -> None:
        """Persist the complete session state to ``path`` (atomic write).

        Everything the session holds — the live epoch ring with its
        incremental groupers, the window forest, the retained cross-epoch
        edges, counters, and the previous flush's groups — is serialised, so
        a :meth:`resume`\\ d session continues the stream exactly where this
        one stopped and flushes bit-identical windows from then on.
        """
        from repro.storage.checkpoint import save_checkpoint

        save_checkpoint({"format": _CHECKPOINT_FORMAT, "session": self}, path)

    @staticmethod
    def resume(path: str) -> "Optional[StreamingSGB]":
        """Rebuild a session from a :meth:`checkpoint` file.

        Returns ``None`` when the file is missing, truncated, or from an
        incompatible format version — callers then start a fresh session and
        re-ingest; a damaged checkpoint never raises.
        """
        from repro.storage.checkpoint import load_checkpoint

        payload = load_checkpoint(path)
        if not isinstance(payload, dict):
            return None
        fmt, session = payload.get("format"), payload.get("session")
        if fmt not in (_CHECKPOINT_FORMAT, _CHECKPOINT_FORMAT_2, _CHECKPOINT_FORMAT_1):
            return None
        if not isinstance(session, StreamingSGB):
            return None
        if fmt != _CHECKPOINT_FORMAT:
            # Formats 1 and 2 cached the older-epoch view in another shape;
            # it is only a cache, so drop it and rebuild on demand.
            session._older_view = None
        if fmt == _CHECKPOINT_FORMAT_1:
            # Format 1 kept no resolved count: resolve the raw setting per
            # flush, as that session did.  Flush results are the same.
            session._flush_workers = session.workers
        return session

    def close(self) -> List[WindowResult]:
        """Flush the final partial epoch (if any) and end the session."""
        if self._closed:
            return []
        self._closed = True
        out: List[WindowResult] = []
        if self._epochs:
            last = self._epochs[-1]
            if last.eid > self._flushed_eid and last.indices:
                flush = self._flush_epoch(last.eid)
                if flush is not None:
                    out.append(flush)
        return out

    @property
    def live_count(self) -> int:
        """Number of points currently held live in the window ring."""
        return sum(len(epoch.indices) for epoch in self._epochs)

    @property
    def ingested(self) -> int:
        """Total number of points ingested so far."""
        return self._next_index

    # ------------------------------------------------------------------
    # epoch lifecycle
    # ------------------------------------------------------------------

    def _ingest_counted(self, tuples: List[Point]) -> List[WindowResult]:
        out: List[WindowResult] = []
        slide = self.policy.slide
        position = 0
        while position < len(tuples):
            epoch = self._accepting_epoch()
            room = slide - len(epoch.indices)
            chunk = tuples[position : position + room]
            self._admit(epoch, chunk)
            position += len(chunk)
            if len(epoch.indices) == slide:
                flush = self._flush_epoch(epoch.eid)
                if flush is not None:
                    out.append(flush)
        return out

    def _ingest_ticked(
        self, tuples: List[Point], ticks: List[int]
    ) -> List[WindowResult]:
        out: List[WindowResult] = []
        policy = self.policy
        assert isinstance(policy, TickWindow)
        position = 0
        while position < len(tuples):
            tick = ticks[position]
            if self._last_tick is not None and tick < self._last_tick:
                raise InvalidParameterError(
                    f"ticks must be non-decreasing: {tick} after {self._last_tick}"
                )
            eid = policy.epoch_of(tick)
            # Split off the run of consecutive points landing in this epoch.
            stop = position
            while stop < len(tuples) and policy.epoch_of(ticks[stop]) == eid:
                if ticks[stop] < ticks[max(stop - 1, position)]:
                    raise InvalidParameterError(
                        f"ticks must be non-decreasing: {ticks[stop]} after "
                        f"{ticks[stop - 1]}"
                    )
                stop += 1
            self._last_tick = ticks[stop - 1]
            out.extend(self._advance_to_epoch(eid))
            epoch = self._accepting_epoch(eid)
            self._admit(epoch, tuples[position:stop])
            position = stop
        return out

    def _advance_to_epoch(self, eid: int) -> List[WindowResult]:
        """Close every epoch before ``eid``, flushing the windows they end.

        Idle epochs (no arrivals) still close their windows so stale groups
        expire on time; once the window is fully drained the remaining idle
        flushes are silent (nothing live, nothing left to expire).
        """
        out: List[WindowResult] = []
        if not self._epochs:
            return out
        open_eid = self._epochs[-1].eid
        if eid < open_eid:
            raise InvalidParameterError(
                f"tick epoch {eid} arrived after epoch {open_eid} was opened"
            )
        for closing in range(open_eid, eid):
            flush = self._flush_epoch(closing)
            if flush is not None:
                out.append(flush)
            if not self._epochs and not self._prev_global_groups:
                break  # window fully drained: skip the remaining idle flushes
        return out

    def _accepting_epoch(self, eid: Optional[int] = None) -> _Epoch:
        """Return the epoch currently accepting points, opening it if needed."""
        if self._epochs:
            last = self._epochs[-1]
            if last.eid > self._flushed_eid and (eid is None or last.eid == eid):
                return last
            next_eid = last.eid + 1 if eid is None else eid
        else:
            next_eid = self._flushed_eid + 1 if eid is None else eid
        # Evict eagerly: epochs sliding out of the next window must not be
        # probed for cross-epoch edges against the arriving points.
        self._evict_through(next_eid - self.policy.epochs_per_window)
        grouper = (
            None
            if self._sharded
            else SGBAnyGrouper(eps=self.eps, metric=self.metric)
        )
        epoch = _Epoch(next_eid, grouper)
        self._epochs.append(epoch)
        return epoch

    def _admit(self, epoch: _Epoch, chunk: Sequence[Point]) -> None:
        """Admit a chunk of points (all belonging to ``epoch``) into the ring."""
        if not chunk:
            return
        base = self._next_index
        arrivals = list(range(base, base + len(chunk)))
        self._next_index += len(chunk)
        # The chunk is a slice of the batch ingest() already validated.
        chunk_ps = PointSet.adopt_validated(list(chunk), backend=self._backend)
        if epoch.grouper is None:
            epoch.indices.extend(arrivals)
            epoch.points.extend(chunk)
            return
        # Intra-epoch connectivity via the columnar add_batch fast path.
        opened = not epoch.indices
        epoch.grouper.add_batch(chunk_ps)
        epoch.indices.extend(arrivals)
        epoch.points.extend(chunk)
        indices = epoch.indices
        forest = epoch.grouper.forest()
        if opened:
            # The chunk opened the epoch: its whole forest is new to the
            # window, so it is adopted with one parent write per point.
            self._uf.add_forest({indices[e]: indices[r] for e, r in forest.items()})
        else:
            self._uf.add_many(arrivals)
            self._uf.merge_from(forest, translate=indices.__getitem__)
        # Cross-epoch eps-edges: one grid-join of the micro-batch against the
        # combined view of every older (closed) epoch, with the same bit-exact
        # eps decisions and no per-tuple index probing.  Each pair is mapped
        # to (older-epoch root, newer-epoch root), so one edge stands for
        # every eps-pair between the same two epoch components, and each
        # epoch pair's edges are reduced to a spanning subset on the way in
        # (see _reduce_cross_edges).
        view = self._older_epoch_view(epoch)
        if view is None:
            return
        first = len(indices) - len(chunk)
        new_roots = [indices[forest[local]] for local in range(first, len(indices))]
        olders = view[3]
        for slot, raw in sorted(self._cross_root_pairs(view, chunk_ps, new_roots).items()):
            kept = self._reduce_cross_edges(olders[slot], epoch, raw)
            if kept:
                self._uf.union_pairs(kept)

    def _cross_root_pairs(
        self,
        view: "Tuple[PointSet, Any, Any, List[_Epoch]]",
        chunk_ps: PointSet,
        new_roots: List[int],
    ) -> Dict[int, List[Tuple[int, int]]]:
        """Distinct ``(older root, newer root)`` cross edges per older-epoch slot."""
        combined, roots, slots, _ = view
        if isinstance(combined, NumpyPointSet):
            rows, probes = combined.cross_pairs(chunk_ps, self.eps, self.metric)
            older = roots[rows]
            newer = _np.asarray(new_roots, dtype=_np.int64)[probes]
            order = _np.lexsort((newer, older))
            older, newer, rows = older[order], newer[order], rows[order]
            first = _np.ones(order.shape[0], dtype=bool)
            first[1:] = (older[1:] != older[:-1]) | (newer[1:] != newer[:-1])
            out: Dict[int, List[Tuple[int, int]]] = {}
            for slot, a, b in zip(
                slots[rows[first]].tolist(), older[first].tolist(), newer[first].tolist()
            ):
                out.setdefault(slot, []).append((a, b))
            return out
        distinct: Dict[int, set] = {}
        for i, j in combined.cross_within(chunk_ps, self.eps, self.metric):
            distinct.setdefault(slots[i], set()).add((roots[i], new_roots[j]))
        return {slot: sorted(pairs) for slot, pairs in distinct.items()}

    def _older_epoch_view(
        self, current: _Epoch
    ) -> "Optional[Tuple[PointSet, Any, Any, List[_Epoch]]]":
        """Combined columnar view of the closed epochs, cached per epoch set.

        Closed epochs never grow, so the concatenation only needs rebuilding
        when an epoch opens or expires; every micro-batch admitted to the
        same open epoch reuses it.  Returns ``(points, epoch root of each
        row, epoch slot of each row, epochs)`` — root and slot as int64
        arrays on the NumPy backend, lists otherwise — or ``None`` when the
        window holds no older points.
        """
        olders = [e for e in self._epochs if e is not current and e.points]
        if not olders:
            return None
        key = tuple(e.eid for e in olders)
        if self._older_view is not None and self._older_view[0] == key:
            return self._older_view[1:]
        combined = PointSet.concat(
            [e.pointset(self._backend) for e in olders], backend=self._backend
        )
        roots: Any = []
        slots: Any = []
        for slot, e in enumerate(olders):
            assert e.grouper is not None
            forest = e.grouper.forest()
            roots.extend(e.indices[forest[local]] for local in range(len(e.indices)))
            slots.extend([slot] * len(e.indices))
        if HAVE_NUMPY and isinstance(combined, NumpyPointSet):
            roots = _np.asarray(roots, dtype=_np.int64)
            slots = _np.asarray(slots, dtype=_np.int64)
        self._older_view = (key, combined, roots, slots, olders)
        return combined, roots, slots, olders

    def _reduce_cross_edges(
        self, older: _Epoch, epoch: _Epoch, raw: List[Tuple[int, int]]
    ) -> List[Tuple[int, int]]:
        """Keep only the cross edges that add connectivity for this pair.

        ``raw`` links epoch-component roots, so the pair-scoped forest only
        tracks those roots: an edge is dropped when earlier kept edges of
        the pair already connect its ends.  A newer-epoch root that a later
        chunk demotes stays a valid member of its grown component, so what
        is kept is never wrong, at worst redundant.
        """
        key = (older.eid, epoch.eid)
        entry = self._cross.get(key)
        if entry is None:
            entry = self._cross[key] = _CrossEdges()
        uf = entry.uf
        kept: List[Tuple[int, int]] = []
        for a, b in raw:
            uf.add(a)
            uf.add(b)
            if uf.find(a) != uf.find(b):
                uf.union(a, b)
                kept.append((a, b))
        entry.edges.extend(kept)
        return kept

    # ------------------------------------------------------------------
    # flush + eviction
    # ------------------------------------------------------------------

    def _flush_epoch(self, closing_eid: int) -> Optional[WindowResult]:
        """Close epoch ``closing_eid``: evict expired epochs, emit the window."""
        self._flushed_eid = closing_eid
        self._evict_through(closing_eid - self.policy.epochs_per_window)
        if not any(epoch.indices for epoch in self._epochs) and not self._prev_global_groups:
            return None  # nothing live and nothing to expire: silent window
        return self._emit(closing_eid)

    def _evict_through(self, max_expired_eid: int) -> None:
        """Expire every epoch with ``eid <= max_expired_eid``."""
        expired: List[_Epoch] = []
        while self._epochs and self._epochs[0].eid <= max_expired_eid:
            expired.append(self._epochs.popleft())
        if not expired:
            return
        live_eids = {epoch.eid for epoch in self._epochs}
        self._cross = {
            key: entry
            for key, entry in self._cross.items()
            if key[0] in live_eids and key[1] in live_eids
        }
        if self._sharded:
            return
        expired_indices = [g for epoch in expired for g in epoch.indices]
        if not expired_indices:
            return
        self._rebuild_forest(expired_indices)

    def _rebuild_forest(self, expired_indices: Sequence[int]) -> None:
        """Drop the expired points from the live forest without rescanning.

        Components untouched by the expired epoch(s) are replayed verbatim;
        touched components are re-linked from the retained per-epoch forests
        and cross-epoch edge lists — pure Union-Find work, no distance
        computation or index probe happens here.
        """
        touched, untouched = self._uf.split_forest(expired_indices)
        rebuilt = UnionFind()
        for epoch in self._epochs:
            rebuilt.add_many(epoch.indices)
        for element, root in untouched.items():
            if element != root:
                rebuilt.union(element, root)
        for epoch in self._epochs:
            indices = epoch.indices
            assert epoch.grouper is not None
            forest = epoch.grouper.forest()
            rebuilt.merge_from(
                {
                    indices[local]: indices[root]
                    for local, root in forest.items()
                    if indices[local] in touched
                }
            )
        for entry in self._cross.values():
            rebuilt.union_pairs(
                (a, b) for a, b in entry.edges if a in touched
            )
        self._uf = rebuilt

    def _emit(self, closing_eid: int) -> WindowResult:
        indices = [g for epoch in self._epochs for g in epoch.indices]
        points = [p for epoch in self._epochs for p in epoch.points]
        if self._sharded:
            result = self._regroup_sharded(points)
        else:
            position = {g: i for i, g in enumerate(indices)}
            components = self._uf.components().values()
            result = GroupingResult(
                groups=canonicalize_groups(
                    [position[member] for member in members] for members in components
                ),
                eliminated=[],
                points=points,
            )
        global_groups = canonicalize_groups(
            [indices[i] for i in group] for group in result.groups
        )
        deltas = diff_flushes(self._prev_global_groups, global_groups)
        self._prev_global_groups = global_groups
        start, end = self._window_extent(closing_eid, indices)
        window = WindowResult(
            window_id=self._window_id,
            epoch=closing_eid,
            start=start,
            end=end,
            indices=indices,
            result=result,
            deltas=deltas,
        )
        self._window_id += 1
        return window

    def _regroup_sharded(self, points: List[Point]) -> GroupingResult:
        """Per-flush sharding: regroup the live window through the engine."""
        if not points:
            return GroupingResult.empty()
        from repro.core.sgb_any import sgb_any_grouping

        return sgb_any_grouping(
            PointSet.adopt_validated(points, backend=self._backend),
            eps=self.eps,
            metric=self.metric,
            workers=self._flush_workers,
        )

    def _window_extent(
        self, closing_eid: int, indices: List[int]
    ) -> Tuple[int, int]:
        if isinstance(self.policy, TickWindow):
            end = (closing_eid + 1) * self.policy.slide
            return end - self.policy.size, end
        if indices:
            return indices[0], indices[-1] + 1
        return self._next_index, self._next_index


def stream_groups(
    batches: "Iterable[Sequence[Sequence[float]] | tuple]",
    eps: float,
    metric: "Metric | str" = Metric.L2,
    window: "WindowPolicy | int" = None,  # type: ignore[assignment]
    slide: Optional[int] = None,
    workers: "Optional[int | str]" = None,
    backend: Optional[str] = None,
):
    """Drive a :class:`StreamingSGB` over an iterable of micro-batches.

    Yields :class:`WindowResult` objects as windows close.  With a tick-based
    policy each batch must be a ``(points, ticks)`` pair; otherwise a batch
    is any point container ``ingest`` accepts.  The final partial window is
    flushed when the iterable is exhausted.
    """
    session = StreamingSGB(
        eps, metric=metric, window=window, slide=slide, workers=workers, backend=backend
    )
    ticked = isinstance(session.policy, TickWindow)
    for batch in batches:
        if ticked:
            points, ticks = batch
            results = session.ingest(points, ticks=ticks)
        else:
            results = session.ingest(batch)
        yield from results
    yield from session.close()
