"""Workload definitions: seeded inputs, fixed op cycles, program and reference runners.

Every workload is a fixed *cycle* of operations that a run repeats a whole
number of times, so two runs of the same code always do the same work (the
host's speed drifts in phases of 5-20 s; a run cut by a timer runs a
different mix).  The program only ever receives the generated rows and
point batches; the seed never reaches it.

Ops are plain tuples ``(label, cls, kind, payload)``:

* ``kind == "sql"``: one SQL statement (``Database.execute`` in-process, or
  ``POST /v1/query``);
* ``kind == "sgb"``: one ``POST /v1/sgb`` call on a fixed point batch;
* ``kind == "load"``: one ``POST /v1/load`` append of a fixed row batch.

``cls`` is the statement class the per-class medians (``ops.*``) group by.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from typing import Dict, List, Sequence, Tuple

Op = Tuple[str, str, str, object]

#: Rows per ``/v1/load`` append in ``serve_rw``, and appends per cycle.
APPEND_ROWS = 75
APPENDS_PER_CYCLE = 8

#: Read rounds between two append bursts in ``serve_rw``.
READ_ROUNDS = 6

CHECKIN_SCHEMA = [("user_id", "INT"), ("lat", "FLOAT"), ("lon", "FLOAT"), ("t", "INT")]
POI_SCHEMA = [("pid", "INT"), ("lat", "FLOAT"), ("lon", "FLOAT")]

#: Full-size and smoke-test sizes.  ``nominal_cycle_s`` turns ``--seconds``
#: into a fixed cycle count (measured on a 2-core x86 host at full size).
SIZES = {
    "full": {
        "tpch_sf": 0.005,
        "checkins": 20_000,
        "users": 2_000,
        "pois": 400,
        "batch_points": 2_000,
        "user_cut": 500,
        "serve_user_cut": 200,
        "serve_gb_cut": 1_000,
    },
    "tiny": {
        "tpch_sf": 0.0005,
        "checkins": 1_500,
        "users": 150,
        "pois": 30,
        "batch_points": 150,
        "user_cut": 40,
        "serve_user_cut": 20,
        "serve_gb_cut": 75,
    },
}

NOMINAL_CYCLE_S = {"tpch_table2": 7.0, "checkin_mix": 4.0, "serve_rw": 8.5}

#: ``serve_rw`` must hold at least this many ops per run so that fifteen
#: samples lie beyond ``latency_p90_ms`` (three cycles).
SERVE_MIN_OPS = 150

WORKLOADS = ("tpch_table2", "checkin_mix", "serve_rw")


def cycle_count(workload: str, seconds: float, size: str) -> int:
    """Whole cycles a run of ``seconds`` performs (fixed work per run)."""
    if size == "tiny":
        return 1
    cycles = max(1, round(seconds / NOMINAL_CYCLE_S[workload]))
    if workload == "serve_rw":
        per_cycle = len(cycle_ops(workload, size, 0))
        cycles = max(cycles, -(-SERVE_MIN_OPS // per_cycle))
    return cycles


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def make_inputs(workload: str, seed: int, size: str, cycles: int) -> Dict[str, object]:
    """Generate every table and batch a workload needs from ``seed``."""
    dims = SIZES[size]
    if workload == "tpch_table2":
        from repro.workloads.tpch import TPCH_SCHEMAS, TPCHGenerator

        data = TPCHGenerator(scale_factor=dims["tpch_sf"], seed=seed).generate()
        return {
            "tables": [
                (name, columns, data.tables[name])
                for name, columns in TPCH_SCHEMAS.items()
            ]
        }
    from repro.workloads.checkins import CheckinConfig, generate_checkins

    appended = cycles * APPENDS_PER_CYCLE * APPEND_ROWS if workload == "serve_rw" else 0
    records = generate_checkins(
        CheckinConfig(
            n_checkins=dims["checkins"] + appended,
            n_users=dims["users"],
            hotspots=25,
            seed=seed,
        )
    )
    rows = [(r.user_id, r.latitude, r.longitude, r.checkin_time) for r in records]
    base, extra = rows[: dims["checkins"]], rows[dims["checkins"]:]
    rng = random.Random(seed + 1)
    if workload == "checkin_mix":
        pois = [(i, r[1], r[2]) for i, r in enumerate(rng.sample(base, dims["pois"]))]
        return {"tables": [("checkins", CHECKIN_SCHEMA, base), ("pois", POI_SCHEMA, pois)]}
    batches = {
        name: [[r[1], r[2]] for r in rng.sample(base, dims["batch_points"])]
        for name in ("batch_a", "batch_b")
    }
    appends = [
        [list(row) for row in extra[i: i + APPEND_ROWS]]
        for i in range(0, len(extra), APPEND_ROWS)
    ]
    return {
        "tables": [("checkins", CHECKIN_SCHEMA, base)],
        "batches": batches,
        "appends": appends,
    }


# ---------------------------------------------------------------------------
# op cycles
# ---------------------------------------------------------------------------


def _tpch_cycle(size: str) -> List[Op]:
    from repro.bench import queries

    sgb = queries.sgb_queries()
    order = ["GB1", "SGB1", "SGB2", "GB2", "SGB3", "SGB4", "GB3", "SGB5", "SGB6"]
    texts = dict(queries.standard_queries(), **sgb)
    kinds = {"GB": "gb", "SGB1": "sgb_all", "SGB3": "sgb_all", "SGB5": "sgb_all"}
    return [
        (name, kinds.get(name, kinds.get(name[:2], "sgb_any")), "sql", texts[name])
        for name in order
    ]


def _checkin_cycle(size: str) -> List[Op]:
    cut = SIZES[size]["user_cut"]
    return [
        (
            "any_l2",
            "sgb_any",
            "sql",
            "SELECT count(*), avg(lat), avg(lon) FROM checkins "
            "GROUP BY lat, lon DISTANCE-TO-ANY L2 WITHIN 0.05",
        ),
        (
            "all_linf",
            "sgb_all",
            "sql",
            f"SELECT count(*), avg(lat) FROM checkins WHERE user_id < {cut} "
            "GROUP BY lat, lon DISTANCE-TO-ALL LINF WITHIN 0.02 ON-OVERLAP JOIN-ANY",
        ),
        (
            "join_any",
            "join",
            "sql",
            "SELECT count(*) AS visits FROM (SELECT p.lat AS plat, p.lon AS plon "
            "FROM checkins c SIMILARITY JOIN pois p "
            "ON DISTANCE(c.lat, c.lon, p.lat, p.lon) WITHIN 0.1) m "
            "GROUP BY plat, plon DISTANCE-TO-ANY L2 WITHIN 0.5",
        ),
        (
            "knn_gb",
            "join",
            "sql",
            "SELECT p.pid, count(*) FROM checkins c SIMILARITY JOIN pois p "
            "ON DISTANCE(c.lat, c.lon, p.lat, p.lon) KNN 1 "
            f"WHERE c.user_id < {cut} GROUP BY p.pid",
        ),
        (
            "window",
            "window",
            "sql",
            "SELECT window_id, count(*), avg(lat) FROM checkins "
            "GROUP BY lat, lon DISTANCE-TO-ANY L2 WITHIN 0.05 WINDOW 5000 SLIDE 2500"
            if size == "full"
            else "SELECT window_id, count(*), avg(lat) FROM checkins "
            "GROUP BY lat, lon DISTANCE-TO-ANY L2 WITHIN 0.05 WINDOW 500 SLIDE 250",
        ),
        (
            "gb_user",
            "gb",
            "sql",
            "SELECT user_id, count(*), avg(lat), avg(lon) FROM checkins GROUP BY user_id",
        ),
    ]


def _serve_reads(size: str) -> List[Op]:
    cut = SIZES[size]["serve_user_cut"]
    # Filters select on user_id, which every seed draws uniformly, so the
    # rows and groups each read touches barely move with the seed.
    gb_cut = SIZES[size]["serve_gb_cut"]
    return [
        (
            "q_count",
            "sgb_any",
            "sql",
            "SELECT count(*) FROM checkins GROUP BY lat, lon DISTANCE-TO-ANY L2 WITHIN 0.05",
        ),
        (
            "q_avg",
            "sgb_any",
            "sql",
            "SELECT count(*), avg(lat) FROM checkins "
            "GROUP BY lat, lon DISTANCE-TO-ANY L2 WITHIN 0.05",
        ),
        (
            "q_all",
            "sgb_all",
            "sql",
            f"SELECT count(*), avg(lon) FROM checkins WHERE user_id < {cut} "
            "GROUP BY lat, lon DISTANCE-TO-ALL LINF WITHIN 0.02 ON-OVERLAP JOIN-ANY",
        ),
        (
            # A second panel over q_all's grouping: a cache hit plus its own
            # aggregate replay.  With it the SGB-All hits sit in the middle
            # of a cycle's sorted op latencies, so latency_p50_ms falls
            # inside one class instead of on the edge between two.
            "q_all_max",
            "sgb_all",
            "sql",
            f"SELECT count(*), max(lat) FROM checkins WHERE user_id < {cut} "
            "GROUP BY lat, lon DISTANCE-TO-ALL LINF WITHIN 0.02 ON-OVERLAP JOIN-ANY",
        ),
        (
            "q_gb",
            "gb",
            "sql",
            f"SELECT user_id, count(*), max(lon) FROM checkins WHERE user_id < {gb_cut} "
            "GROUP BY user_id",
        ),
        ("sgb_a", "sgb_route", "sgb", {"batch": "batch_a", "eps": 0.05, "kind": "any"}),
        (
            "sgb_b",
            "sgb_route",
            "sgb",
            {"batch": "batch_b", "eps": 0.02, "kind": "all", "metric": "LINF"},
        ),
    ]


def cycle_ops(workload: str, size: str, cycle: int) -> List[Op]:
    """The ops of cycle number ``cycle`` (only ``serve_rw`` cycles differ:
    each appends its own rows)."""
    if workload == "tpch_table2":
        return _tpch_cycle(size)
    if workload == "checkin_mix":
        return _checkin_cycle(size)
    first = cycle * APPENDS_PER_CYCLE
    ops: List[Op] = [
        (f"load_{i}", "write", "load", i) for i in range(first, first + APPENDS_PER_CYCLE)
    ]
    return ops + _serve_reads(size) * READ_ROUNDS


def op_sequence(workload: str, size: str, cycles: int) -> List[Op]:
    """The full, fixed op sequence of one measured phase."""
    return [op for cycle in range(cycles) for op in cycle_ops(workload, size, cycle)]


def probe_op(workload: str, size: str) -> Op:
    """The statement every set-up's warm-up pass executes (it spawns the
    worker pool where the planner shards)."""
    if workload == "tpch_table2":
        return _tpch_cycle(size)[-1]
    if workload == "checkin_mix":
        return _checkin_cycle(size)[0]
    return _serve_reads(size)[0]


def warm_up(db, workload: str, size: str) -> None:
    """The in-process warm-up pass: plan every statement of the cycle
    (``EXPLAIN`` fills the planner's lazily computed table statistics)
    and execute the probe statement."""
    for _label, _cls, kind, sql in cycle_ops(workload, size, 0):
        if kind == "sql":
            db.explain(sql)
    db.execute(probe_op(workload, size)[3])


# ---------------------------------------------------------------------------
# answers
# ---------------------------------------------------------------------------


def digest_text(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def digest_rows(columns: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Bit-exact digest of an in-process result (``repr`` keeps every float bit)."""
    return digest_text(repr((list(columns), [tuple(r) for r in rows])))


def digest_query_payload(payload: Dict[str, object]) -> str:
    """Digest of the answer part of a ``/v1/query`` payload (plan excluded)."""
    return digest_text(json.dumps([payload["columns"], payload["rows"]]))


def digest_grouping_payload(payload: Dict[str, object]) -> str:
    """Digest of the answer part of a ``/v1/sgb`` payload (plan excluded)."""
    return digest_text(
        json.dumps(
            [payload["groups"], payload["eliminated"], payload["points"], payload["group_count"]]
        )
    )


def answer_keys(workload: str, ops: Sequence[Op]) -> List[str]:
    """The reference key of each op: its label, plus the write count before
    it for ``serve_rw`` reads (appends change the answer)."""
    keys = []
    writes = 0
    for label, _cls, kind, _payload in ops:
        if kind == "load":
            keys.append(label)
            writes += 1
        elif workload == "serve_rw" and kind == "sql":
            keys.append(f"{label}@{writes}")
        else:
            keys.append(label)
    return keys


def load_tables(db, tables) -> None:
    """Create and bulk-load ``tables``."""
    for name, columns, rows in tables:
        db.create_table(name, columns)
        db.insert_rows(name, rows)


def reference_answers(workload: str, inputs, ops: Sequence[Op]) -> Dict[str, str]:
    """Digests of the serial reference path's answer for every op key.

    The reference is ``Database(optimizer=False, sgb_workers=1)`` with the
    result cache off, and ``sgb_any``/``sgb_all(..., workers=1)`` for the
    direct operator route; ``serve_rw`` reads are replayed on the same
    append history as the timed phase.
    """
    from repro.core.api import sgb_all, sgb_any
    from repro.minidb import Database

    db = Database(optimizer=False, sgb_workers=1, cache=False)
    load_tables(db, inputs["tables"])
    answers: Dict[str, str] = {}
    for key, (label, _cls, kind, payload) in zip(answer_keys(workload, ops), ops):
        if key in answers:
            continue
        if kind == "load":
            db.insert_rows("checkins", [tuple(r) for r in inputs["appends"][payload]])
            answers[key] = "inserted"
        elif kind == "sgb":
            points = inputs["batches"][payload["batch"]]
            metric = payload.get("metric", "L2")
            if payload["kind"] == "any":
                result = sgb_any(points, payload["eps"], metric=metric, workers=1, cache=False)
            else:
                result = sgb_all(points, payload["eps"], metric=metric, cache=False)
            from repro.server.jsonio import grouping_result_payload

            answers[key] = digest_grouping_payload(
                json.loads(json.dumps(grouping_result_payload(result)))
            )
        else:
            result = db.execute(payload)
            if workload == "serve_rw":
                from repro.server.jsonio import query_result_payload

                answers[key] = digest_query_payload(
                    json.loads(json.dumps(query_result_payload(result)))
                )
            else:
                answers[key] = digest_rows(result.columns, result.rows)
    return answers


# ---------------------------------------------------------------------------
# program runners
# ---------------------------------------------------------------------------


def run_inprocess(db, ops: Sequence[Op], tracer=None) -> List[dict]:
    """Execute ``ops`` through ``Database.execute``; one record per op."""
    records = []
    for label, cls, _kind, sql in ops:
        if tracer is not None:
            tracer.begin_op(label, cls)
        record = {"label": label, "cls": cls}
        began = time.perf_counter()
        try:
            result = db.execute(sql)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            record["latency_s"] = time.perf_counter() - began
            record["error"] = f"{type(exc).__name__}: {exc}"
        else:
            record["latency_s"] = time.perf_counter() - began
            record["digest"] = digest_rows(result.columns, result.rows)
            record["mode"] = result.plan.mode if result.plan is not None else None
            record["rewrites"] = len(result.rewrites)
        records.append(record)
        if tracer is not None:
            tracer.end_op(record)
    return records


def run_http(client, inputs, ops: Sequence[Op], tracer=None) -> List[dict]:
    """Execute ``ops`` against a served app over one keep-alive connection."""
    records = []
    for label, cls, kind, payload in ops:
        if tracer is not None:
            tracer.begin_op(label, cls)
        record = {"label": label, "cls": cls}
        began = time.perf_counter()
        try:
            if kind == "load":
                out = client.load("checkins", inputs["appends"][payload])
            elif kind == "sgb":
                options = {k: v for k, v in payload.items() if k not in ("batch", "eps", "kind")}
                out = client.sgb(
                    inputs["batches"][payload["batch"]], payload["eps"], kind=payload["kind"], **options
                )
            else:
                out = client.query(payload)
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            record["latency_s"] = time.perf_counter() - began
            record["error"] = f"{type(exc).__name__}: {exc}"
        else:
            record["latency_s"] = time.perf_counter() - began
            if kind == "load":
                expected = len(inputs["appends"][payload])
                record["digest"] = "inserted" if out == expected else f"inserted {out}"
            elif kind == "sgb":
                record["digest"] = digest_grouping_payload(out)
            else:
                record["digest"] = digest_query_payload(out)
                record["rewrites"] = len(out.get("rewrites") or [])
            if kind != "load":
                record["mode"] = (out.get("plan") or {}).get("mode")
        records.append(record)
        if tracer is not None:
            tracer.end_op(record)
    return records
