"""Span tracing from outside the program: wrap each layer's public entry points.

:func:`install` replaces the entry points listed in :data:`ENTRY_POINTS`
(module functions at every binding site inside ``repro``, and methods on
their classes) with wrappers that record one span per call: layer name,
start, end, parent span and op id.  Spans stay in memory; :meth:`Tracer.report`
turns them into the per-layer metrics and :meth:`Tracer.dump` writes them out.

A layer's self time is its span minus the child spans it covers; spans nest
per thread, so a span's children are the spans opened on the same thread
while it was open.  Relational operators are generators: their wrapper
drains the operator inside its span (so the span holds exactly that
operator's work, not its consumer's) and then yields the buffered rows.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import threading
import time
from typing import Dict, List, Optional

#: (module, attribute path, layer).  A dotted attribute path names a method.
ENTRY_POINTS = [
    ("repro.minidb.database", "Database.execute", "exec"),
    ("repro.minidb.database", "Database.open", "storage.load"),
    ("repro.minidb.sql.parser", "parse_sql", "sql.parse"),
    ("repro.minidb.plan.planner", "Planner.plan_select", "plan.plan"),
    ("repro.minidb.plan.rewrite", "optimize_plan", "plan.rewrite"),
    ("repro.minidb.exec.sgb", "SGBAggregate.rows", "exec.sgb"),
    ("repro.engine.stats", "collect_stats", "engine.stats"),
    ("repro.engine.cost", "plan_sgb_any", "engine.cost"),
    ("repro.engine.cost", "plan_sgb_all", "engine.cost"),
    ("repro.engine.cost", "plan_eps_join", "engine.cost"),
    ("repro.engine.cost", "plan_knn_join", "engine.cost"),
    ("repro.engine.cost", "plan_stream_flush", "engine.cost"),
    ("repro.engine.workers", "sgb_any_sharded", "engine.sharded"),
    ("repro.engine.workers", "get_worker_pool", "engine.sharded"),
    ("repro.minidb.exec.pushdown", "sgb_any_pushdown", "engine.sharded"),
    ("repro.join.sharded", "eps_join_sharded", "engine.sharded"),
    ("repro.join.knn_sharded", "knn_join_sharded", "engine.sharded"),
    ("repro.core.pointset", "PointSet.from_columns", "core.pointset"),
    ("repro.core.pointset", "PointSet.from_any", "core.pointset"),
    ("repro.core.sgb_any", "SGBAnyGrouper.add_batch", "core.group"),
    ("repro.core.sgb_any", "SGBAnyGrouper.finalize", "core.group"),
    ("repro.core.sgb_all", "SGBAllGrouper.add_batch", "core.group"),
    ("repro.core.sgb_all", "SGBAllGrouper.finalize", "core.group"),
    ("repro.spatial.base", "SpatialIndex.search_many", "spatial.search"),
    ("repro.spatial.grid", "GridIndex.search_many", "spatial.search"),
    ("repro.spatial.kdtree", "KDTree.search_many", "spatial.search"),
    ("repro.join.epsilon", "eps_join", "join.eps"),
    ("repro.join.knn", "knn_join", "join.knn"),
    ("repro.join.fused", "fused_join_group", "join.fused"),
    # The SQL executor runs its join->SGB fusion itself, not through
    # fused_join_group; this private method is that route.
    ("repro.minidb.exec.sgb", "SGBAggregate._fused_join_rows", "join.fused"),
    ("repro.stream.session", "StreamingSGB.ingest", "stream.ingest"),
    ("repro.stream.session", "StreamingSGB.close", "stream.ingest"),
    ("repro.storage.cache", "ResultCache.get_grouping", "storage.cache"),
    ("repro.storage.cache", "ResultCache.put_grouping", "storage.cache"),
    ("repro.storage.cache", "ResultCache.get_pairs", "storage.cache"),
    ("repro.storage.cache", "ResultCache.put_pairs", "storage.cache"),
    ("repro.core.fingerprint", "fingerprint_columns", "storage.fingerprint"),
    ("repro.core.fingerprint", "fingerprint_points", "storage.fingerprint"),
    ("repro.server.jsonio", "query_result_payload", "server.jsonio"),
    ("repro.server.jsonio", "grouping_result_payload", "server.jsonio"),
    ("repro.server.protocol", "json_response", "server.jsonio"),
    ("repro.server.protocol", "Request.json", "server.jsonio"),
]

#: Every relational operator's ``rows`` (SGBAggregate is listed above).
OPERATOR_MODULES = ("repro.minidb.exec.operators", "repro.minidb.exec.aggregate", "repro.minidb.exec.join")

#: Layer -> per-layer metric reporting its self time in ms per op.
TIME_METRICS = {
    "sql.parse": "sql.parse_ms",
    "plan.plan": "plan.plan_ms",
    "plan.rewrite": "plan.rewrite_ms",
    "exec": "exec.self_ms",
    "exec.sgb": "exec.sgb_self_ms",
    "engine.stats": "engine.stats_ms",
    "engine.cost": "engine.cost_ms",
    "engine.sharded": "engine.sharded_ms",
    "core.pointset": "core.pointset_ms",
    "core.group": "core.group_ms",
    "spatial.search": "spatial.search_ms",
    "join.eps": "join.eps_ms",
    "join.knn": "join.knn_ms",
    "join.fused": "join.fused_ms",
    "stream.ingest": "stream.ingest_ms",
    "storage.cache": "storage.cache_ms",
    "storage.fingerprint": "storage.fingerprint_ms",
    "storage.load": "storage.load_ms",
    "server.jsonio": "server.jsonio_ms",
}

_KERNEL_LAYERS = {"engine.sharded", "core.group", "join.eps", "join.knn", "join.fused"}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """In-memory span recorder plus the counters taken at the same boundaries."""

    def __init__(self) -> None:
        # span: [layer, start, end, parent, op, thread, info]
        self.spans: List[list] = []
        self.op: Optional[int] = None
        self.ops: List[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pools: List[object] = []
        self._undo: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str) -> int:
        stack = self._stack()
        span = [layer, time.perf_counter(), None, stack[-1] if stack else None,
                self.op, threading.get_ident(), None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def _close(self, index: int, info=None) -> None:
        self.spans[index][2] = time.perf_counter()
        self.spans[index][6] = info
        self._stack().pop()

    def _info(self, layer: str, name: str, args, result):
        """The count a span carries, taken from its arguments or result."""
        if layer == "spatial.search":
            return {"probes": len(args[-1])}
        if layer == "core.group" and name == "add_batch":
            return {"points": len(args[1])}
        if name in ("sgb_any_sharded", "sgb_any_pushdown"):
            return {"points": len(args[0]), "groups": _group_count(result)}
        if layer == "core.group" and name == "finalize":
            return {"groups": len(result.groups)}
        if layer in ("join.eps", "join.knn"):
            return {"pairs": len(result)}
        if layer == "stream.ingest":
            return {"windows": len(result)}
        if layer == "storage.cache" and name.startswith("get_"):
            return {"lookups": 1, "hits": int(result is not None)}
        if name == "get_worker_pool" and result is not None:
            if not any(pool is result for pool in self._pools):
                self._pools.append(result)
                return {"pool_starts": 1}
        if name == "json_response":
            return {"bytes": len(result.body)}
        if name == "json":
            return {"bytes": len(args[0].body)}
        if layer == "engine.cost" and self.op is not None:
            self.ops[self.op].setdefault("plans", []).append(result)
        return None

    def wrap(self, fn, layer: str):
        name = fn.__name__
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                index = self._open(layer)
                rows = []
                try:
                    rows = list(fn(*args, **kwargs))
                finally:
                    self._close(index, {"rows": len(rows)})
                yield from rows

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(layer)
            info = None
            try:
                result = fn(*args, **kwargs)
                try:
                    info = self._info(layer, name, args, result)
                except Exception:  # noqa: BLE001 - a count never fails the call
                    info = None
            finally:
                self._close(index, info)
            return result

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Patch every entry point, at every binding site inside ``repro``.

        Pools that already exist (started during set-up) are not counted as
        pool starts.
        """
        from repro.engine import workers

        self._pools.extend(getattr(workers, "_POOLS", {}).values())
        targets = [(module, path, layer) for module, path, layer in ENTRY_POINTS]
        for module_name in OPERATOR_MODULES:
            module = importlib.import_module(module_name)
            from repro.minidb.exec.operators import PhysicalOperator

            for cls_name, cls in vars(module).items():
                if (
                    inspect.isclass(cls)
                    and issubclass(cls, PhysicalOperator)
                    and cls.__module__ == module_name
                    and "rows" in vars(cls)
                ):
                    targets.append((module_name, f"{cls_name}.rows", "exec"))
        for module_name, path, layer in targets:
            owner, attr = _resolve(module_name, path)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(self.wrap(raw.__func__, layer))
                self._patch(owner, attr, raw, replacement)
            elif inspect.isclass(owner):
                self._patch(owner, attr, raw, self.wrap(raw, layer))
            else:
                wrapped = self.wrap(raw, layer)
                for module in list(sys.modules.values()):
                    name = getattr(module, "__name__", "") or ""
                    if not name.startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, key, raw, wrapped)

    def _patch(self, owner, attr, old, new) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- ops ---------------------------------------------------------------

    def begin_op(self, label: str, cls: str) -> None:
        self.ops.append({"label": label, "cls": cls})
        self.op = len(self.ops) - 1

    def end_op(self, record: dict) -> None:
        op = self.ops[self.op]
        op["latency_s"] = record["latency_s"]
        op["mode"] = record.get("mode")
        op["rewrites"] = record.get("rewrites", 0)
        self.op = None

    # -- reporting -----------------------------------------------------------

    def self_times(self) -> List[float]:
        """Each span's duration minus the child spans it covers."""
        selfs = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] is not None:
                selfs[span[3]] -= span[2] - span[1]
        return selfs

    def report(self, transport_s: float = 0.0, handler_s: float = 0.0) -> Dict[str, float]:
        """Per-layer metrics, per op, over every op traced."""
        n_ops = max(1, len(self.ops))
        selfs = self.self_times()
        layer_s: Dict[str, float] = {layer: 0.0 for layer in TIME_METRICS}
        counts: Dict[str, int] = {}
        per_op_kernel: Dict[int, float] = {}
        per_op_rows: Dict[int, Dict[str, int]] = {}
        sgb_rows_in = 0
        for span, self_s in zip(self.spans, selfs):
            layer, start, end, parent, op, _thread, info = span
            if op is None and layer != "storage.load":
                continue
            layer_s[layer] = layer_s.get(layer, 0.0) + self_s
            for key, value in (info or {}).items():
                counts[key] = counts.get(key, 0) + value
                if op is not None and key in ("groups", "pairs"):
                    bucket = per_op_rows.setdefault(op, {})
                    bucket[key] = bucket.get(key, 0) + value
            if layer == "exec.sgb":
                counts["sgb_groups_out"] = counts.get("sgb_groups_out", 0) + (info or {}).get("rows", 0)
            if parent is not None and self.spans[parent][0] == "exec.sgb" and layer == "exec":
                sgb_rows_in += (info or {}).get("rows", 0)
            if op is not None and layer in _KERNEL_LAYERS and not (
                parent is not None and self._kernel_ancestor(parent)
            ):
                per_op_kernel[op] = per_op_kernel.get(op, 0.0) + (end - start)
        metrics = {TIME_METRICS[layer]: layer_s.get(layer, 0.0) * 1000.0 / n_ops for layer in TIME_METRICS}
        # Database.open runs once per boot, not per op.
        metrics["storage.load_ms"] = layer_s.get("storage.load", 0.0) * 1000.0
        metrics["plan.rewrites_per_op"] = sum(op.get("rewrites", 0) for op in self.ops) / n_ops
        metrics["exec.sgb_rows_in"] = sgb_rows_in / n_ops
        metrics["exec.sgb_groups_out"] = counts.get("sgb_groups_out", 0) / n_ops
        metrics["engine.sharded_share"] = sum(1 for op in self.ops if op.get("mode") == "sharded") / n_ops
        metrics["engine.pool_starts"] = float(counts.get("pool_starts", 0))
        metrics["core.points_grouped"] = counts.get("points", 0) / n_ops
        metrics["spatial.probes"] = counts.get("probes", 0) / n_ops
        metrics["join.pairs_out"] = counts.get("pairs", 0) / n_ops
        metrics["stream.windows_out"] = counts.get("windows", 0) / n_ops
        lookups = counts.get("lookups", 0)
        metrics["storage.cache_hit_ratio"] = counts.get("hits", 0) / lookups if lookups else 0.0
        cost_q, rows_q = [], []
        for index, op in enumerate(self.ops):
            plans = [p for p in op.get("plans", ()) if getattr(p, "op", None) in
                     ("sgb_any", "sgb_all", "eps_join", "knn_join")]
            if not plans:
                continue
            plan = plans[-1]
            kernel = per_op_kernel.get(index, 0.0)
            actual = per_op_rows.get(index, {}).get(
                "groups" if plan.op.startswith("sgb") else "pairs", 0
            )
            if plan.est_cost > 0 and kernel > 0:
                cost_q.append(max(plan.est_cost / kernel, kernel / plan.est_cost))
            if plan.est_rows > 0 and actual > 0:
                rows_q.append(max(plan.est_rows / actual, actual / plan.est_rows))
        metrics["engine.cost_qerror"] = statistics.median(cost_q) if cost_q else 0.0
        metrics["engine.rows_qerror"] = statistics.median(rows_q) if rows_q else 0.0
        metrics["server.handler_ms"] = handler_s * 1000.0 / n_ops
        metrics["server.transport_ms"] = transport_s * 1000.0 / n_ops
        metrics["server.bytes_per_op"] = counts.get("bytes", 0) / n_ops
        total = sum(op.get("latency_s", 0.0) for op in self.ops)
        attributed = sum(s for s, span in zip(selfs, self.spans) if span[4] is not None)
        attributed += transport_s
        metrics["trace.unattributed_share"] = (total - attributed) / total if total else 0.0
        metrics["trace.spans_per_op"] = len(self.spans) / n_ops
        return metrics

    def _kernel_ancestor(self, index: Optional[int]) -> bool:
        while index is not None:
            if self.spans[index][0] in _KERNEL_LAYERS:
                return True
            index = self.spans[index][3]
        return False

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (layer, start, end, parent, op)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                layer, start, end, parent, op, _thread, info = span
                handle.write(json.dumps({
                    "layer": layer, "start": start, "end": end,
                    "parent": parent, "op": op, "info": info,
                }) + "\n")


def _group_count(result) -> int:
    if result is None:
        return 0
    grouping = result[0] if isinstance(result, tuple) else result
    return len(grouping.groups)
