"""Smoke tests of the benchmark itself (tiny inputs, one cycle per workload).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import struct
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics whose layer runs at tiny size, per workload.  The
#: sharded engine (engine.sharded_ms, engine.sharded_share,
#: engine.pool_starts) only runs above the planner's serial threshold,
#: which the full-size checkin_mix and serve_rw inputs cross.
ACTIVE_LAYERS = {
    "tpch_table2": {
        "sql.parse_ms", "plan.plan_ms", "plan.rewrite_ms", "plan.rewrites_per_op",
        "exec.self_ms", "exec.sgb_self_ms", "exec.sgb_rows_in", "exec.sgb_groups_out",
        "engine.stats_ms", "engine.cost_ms", "engine.cost_qerror", "engine.rows_qerror",
        "core.pointset_ms", "core.group_ms", "core.points_grouped",
        "ops.gb_p50_ms", "ops.sgb_any_p50_ms", "ops.sgb_all_p50_ms",
    },
    "checkin_mix": {
        "sql.parse_ms", "plan.plan_ms", "exec.self_ms", "exec.sgb_self_ms",
        "exec.sgb_rows_in", "exec.sgb_groups_out", "engine.stats_ms", "engine.cost_ms",
        "core.pointset_ms", "core.group_ms", "core.points_grouped",
        "spatial.search_ms", "spatial.probes", "join.eps_ms", "join.knn_ms",
        "join.fused_ms", "join.pairs_out", "stream.ingest_ms", "stream.windows_out",
        "ops.gb_p50_ms", "ops.sgb_any_p50_ms", "ops.sgb_all_p50_ms",
        "ops.join_p50_ms", "ops.window_p50_ms",
    },
    "serve_rw": {
        "sql.parse_ms", "plan.plan_ms", "exec.self_ms", "exec.sgb_self_ms",
        "core.group_ms", "storage.cache_hit_ratio", "storage.cache_ms",
        "storage.fingerprint_ms", "storage.load_ms", "server.handler_ms",
        "server.transport_ms", "server.jsonio_ms", "server.bytes_per_op",
        "ops.gb_p50_ms", "ops.sgb_any_p50_ms", "ops.sgb_all_p50_ms",
        "ops.sgb_route_p50_ms", "ops.write_p50_ms",
    },
}


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_spec_matches_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_run_emits_active_layers(workload):
    result = _run(workload, 1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    silent = sorted(
        name for name in ACTIVE_LAYERS[workload] if not result["metrics"][name]["value"] > 0
    )
    assert not silent, f"layers that ran but reported nothing: {silent}"


def test_corrupted_answer_fails_the_check():
    from repro.minidb import Database

    inputs = wl.make_inputs("tpch_table2", 5, "tiny", 1)
    ops = wl.op_sequence("tpch_table2", "tiny", 1)
    reference = {
        "answers": wl.reference_answers("tpch_table2", inputs, ops),
        "keys": wl.answer_keys("tpch_table2", ops),
    }
    db = Database()
    wl.load_tables(db, inputs["tables"])
    records = wl.run_inprocess(db, ops)
    assert run.check_answers(reference, records) == 0

    # Flip the lowest mantissa bit of one float in one answer.
    result = db.execute(ops[2][3])
    row = list(result.rows[0])
    index = next(i for i, v in enumerate(row) if isinstance(v, float))
    (bits,) = struct.unpack("<q", struct.pack("<d", row[index]))
    (row[index],) = struct.unpack("<d", struct.pack("<q", bits ^ 1))
    records[2]["digest"] = wl.digest_rows(result.columns, [tuple(row)] + result.rows[1:])
    assert run.check_answers(reference, records) == 1
    records[4] = {"label": records[4]["label"], "cls": "x", "latency_s": 0.1, "error": "boom"}
    assert run.check_answers(reference, records) == 2
