"""Repository benchmark: Table 2 TPC-H, a check-in similarity mix, served reads+writes.

Run from the repository root::

    python3 perfbench/run.py --workload tpch_table2 --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record (host, versions, settings, planner modes, host-speed
diagnostic).  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer breakdown (see ``BENCHMARK.json`` for both lists and for
which layer metric should move on which workload).

One run is three processes in sequence: a *reference* child computes the
serial reference answer of every op, a *program* child sets the system up
several times and then runs the timed phase (for ``serve_rw`` it boots
``python -m repro.server`` and drives it as a closed-loop client), and this
process compares the answers and prints the metrics.  Keeping the reference
in its own process keeps it out of ``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Name -> unit of every metric the benchmark reports.
END_TO_END = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
PER_LAYER = {
    "sql.parse_ms": "ms",
    "plan.plan_ms": "ms",
    "plan.rewrite_ms": "ms",
    "plan.rewrites_per_op": "rewrites/op",
    "exec.self_ms": "ms",
    "exec.sgb_self_ms": "ms",
    "exec.sgb_rows_in": "rows/op",
    "exec.sgb_groups_out": "groups/op",
    "engine.stats_ms": "ms",
    "engine.cost_ms": "ms",
    "engine.sharded_ms": "ms",
    "engine.sharded_share": "ratio",
    "engine.pool_starts": "count",
    "engine.cost_qerror": "ratio",
    "engine.rows_qerror": "ratio",
    "core.pointset_ms": "ms",
    "core.group_ms": "ms",
    "core.points_grouped": "points/op",
    "spatial.search_ms": "ms",
    "spatial.probes": "probes/op",
    "join.eps_ms": "ms",
    "join.knn_ms": "ms",
    "join.fused_ms": "ms",
    "join.pairs_out": "pairs/op",
    "stream.ingest_ms": "ms",
    "stream.windows_out": "windows/op",
    "storage.cache_hit_ratio": "ratio",
    "storage.cache_ms": "ms",
    "storage.fingerprint_ms": "ms",
    "storage.load_ms": "ms",
    "server.handler_ms": "ms",
    "server.transport_ms": "ms",
    "server.jsonio_ms": "ms",
    "server.bytes_per_op": "bytes/op",
    "ops.gb_p50_ms": "ms",
    "ops.sgb_any_p50_ms": "ms",
    "ops.sgb_all_p50_ms": "ms",
    "ops.join_p50_ms": "ms",
    "ops.window_p50_ms": "ms",
    "ops.sgb_route_p50_ms": "ms",
    "ops.write_p50_ms": "ms",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
    "trace.spans_per_op": "spans/op",
}

OP_CLASSES = ("gb", "sgb_any", "sgb_all", "join", "window", "sgb_route", "write")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("tpch_table2", "checkin_mix", "serve_rw"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: one cycle on small inputs (the smoke tests)")
    parser.add_argument("--role", choices=("reference", "program"), help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------


def host_speed_ms() -> float:
    """Best of five timings of a fixed pure-Python loop (drift diagnostic)."""
    best = float("inf")
    for _ in range(5):
        began = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - began)
    return best * 1000.0


def _children(pid: int):
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak RSS (VmHWM) of ``pid`` and all its live descendants."""
    total_kb = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/status", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
        pending.extend(_children(current))
    return total_kb / 1024.0


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


# ---------------------------------------------------------------------------
# program child
# ---------------------------------------------------------------------------


def _setup_points(cycles: int) -> set:
    """Cycles before which a set-up runs: ``SETUP_REPEATS`` of them, spread
    over the run so the set-up samples see the same host drift as the ops."""
    return {cycles * rep // SETUP_REPEATS for rep in range(SETUP_REPEATS)}


def _inprocess_program(args, inputs, cycles, tracer_cls) -> dict:
    """Set up afresh before the cycles :func:`_setup_points` names."""
    from repro.engine.workers import shutdown_worker_pools
    from repro.minidb import Database

    import workloads as wl

    setups, records = [], []
    out = {"setups": setups, "speed_before_ms": host_speed_ms()}
    tracer = tracer_cls() if args.trace else None
    traced = []
    db = None
    for cycle in range(cycles):
        ops = wl.cycle_ops(args.workload, args.size, cycle)
        if cycle == 0 or (tracer is None and cycle in _setup_points(cycles)):
            db = None
            shutdown_worker_pools()
            began = time.perf_counter()
            db = Database()
            wl.load_tables(db, inputs["tables"])
            wl.warm_up(db, args.workload, args.size)
            setups.append(time.perf_counter() - began)
        records.extend(wl.run_inprocess(db, ops))
        if tracer is not None:
            # Traced and untraced cycles alternate so host drift hits both.
            tracer.install()
            try:
                traced.extend(wl.run_inprocess(db, ops, tracer))
            finally:
                tracer.uninstall()
    if tracer is not None:
        out["traced"] = traced
        out["layers"] = tracer.report()
        tracer.dump(str(Path(args.work) / "spans.jsonl"))
    out["records"] = records
    out["speed_after_ms"] = host_speed_ms()
    out["peak_rss_mb"] = tree_peak_rss_mb(os.getpid())
    shutdown_worker_pools()
    return out


def _make_datadir(path: Path, inputs) -> None:
    from repro.minidb import Database

    with Database.open(str(path)) as db:
        for name, columns, rows in inputs["tables"]:
            db.create_table(name, columns, persistent=True)
            db.insert_rows(name, rows)


def _boot_server(work: Path, rep: str):
    """Boot ``python -m repro.server`` on the data directory ``data-<rep>``."""
    data = work / f"data-{rep}"
    env = dict(os.environ, SGB_CACHE=str(work / f"cache-{rep}"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--port", "0", "--data", str(data),
         "--spool", str(work / f"spool-{rep}")],
        stdout=subprocess.PIPE, env=env, text=True,
    )
    line = proc.stdout.readline()
    if "listening on http://" not in line:
        _stop_server(proc)
        raise RuntimeError(f"server failed to boot: {line!r}")
    host, port = line.rsplit("http://", 1)[1].strip().rsplit(":", 1)
    return proc, host, int(port)


def _stop_server(proc) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def _timed_boot(work: Path, source: Path, rep: str, probe: str):
    """One set-up: server boot, table reopen, first connection, warm-up query."""
    from repro.server.client import ServerClient

    shutil.copytree(source, work / f"data-{rep}")
    began = time.perf_counter()
    proc, host, port = _boot_server(work, rep)
    try:
        client = ServerClient(host, port, timeout=120.0)
        client.health()
        client.query(probe)
    except BaseException:
        _stop_server(proc)
        raise
    return proc, client, time.perf_counter() - began


def _serve_program(args, inputs, cycles, tracer_cls) -> dict:
    """Drive the served app as one closed-loop client.

    The timed server is the first of ``SETUP_REPEATS`` boots; the others
    boot (and stop) between cycles while the timed server idles, so the
    set-up samples spread over the run.
    """
    import workloads as wl

    work = Path(args.work)
    source = work / "data-source"
    _make_datadir(source, inputs)
    probe = wl.probe_op(args.workload, args.size)[3]
    if args.trace:
        return _serve_traced(args, inputs, cycles, tracer_cls, source, probe)
    extra_at = _setup_points(cycles) - {0}
    proc, client, setup = _timed_boot(work, source, "timed", probe)
    setups, records = [setup], []
    out = {"setups": setups, "speed_before_ms": host_speed_ms()}
    try:
        for cycle in range(cycles):
            if cycle in extra_at:
                extra, extra_client, setup = _timed_boot(work, source, str(cycle), probe)
                extra_client.close()
                _stop_server(extra)
                setups.append(setup)
            records.extend(wl.run_http(client, inputs, wl.cycle_ops(args.workload, args.size, cycle)))
        out["speed_after_ms"] = host_speed_ms()
        out["peak_rss_mb"] = tree_peak_rss_mb(proc.pid)
        client.close()
    finally:
        _stop_server(proc)
    out["records"] = records
    return out


def _serve_traced(args, inputs, cycles, tracer_cls, source, probe) -> dict:
    """The traced twin: the same op sequence against two in-process servers.

    Each server starts from its own copy of the data directory and its own
    tiered result cache; cycles alternate between the untraced and the
    traced server, so host drift hits both halves alike.
    """
    from contextlib import ExitStack

    from repro.minidb import Database
    from repro.server.testing import running_server
    from repro.storage.cache import ResultCache

    import workloads as wl

    work = Path(args.work)
    tracer = tracer_cls()
    out = {"setups": [], "records": [], "traced": [],
           "speed_before_ms": host_speed_ms()}
    clients = {}
    handler = 0.0
    with ExitStack() as stack:
        for half in ("records", "traced"):
            shutil.copytree(source, work / f"data-{half}")
            cache = ResultCache.tiered(str(work / f"cache-{half}"))
            if half == "traced":
                tracer.install()
            try:
                db = Database.open(str(work / f"data-{half}"), cache=cache)
                stack.callback(db.close)
                server = stack.enter_context(running_server(
                    database=db, cache=cache, spool_dir=str(work / f"spool-{half}")))
                clients[half] = server.client()
                stack.callback(clients[half].close)
                clients[half].query(probe)
            finally:
                tracer.uninstall()
        for cycle in range(cycles):
            ops = wl.cycle_ops(args.workload, args.size, cycle)
            out["records"].extend(wl.run_http(clients["records"], inputs, ops))
            before = _handler_seconds(clients["traced"].stats())
            tracer.install()
            try:
                out["traced"].extend(wl.run_http(clients["traced"], inputs, ops, tracer))
            finally:
                tracer.uninstall()
            handler += _handler_seconds(clients["traced"].stats()) - before
    latency = sum(r["latency_s"] for r in out["traced"])
    out["layers"] = tracer.report(transport_s=latency - handler, handler_s=handler)
    tracer.dump(str(work / "spans.jsonl"))
    out["speed_after_ms"] = host_speed_ms()
    return out


def _handler_seconds(stats: dict) -> float:
    """Server-side handler time of the data routes, from ``/v1/stats``."""
    return sum(
        route["total_ms"] / 1000.0
        for key, route in stats["routes"].items()
        if key.split(" ", 1)[1] in ("/v1/query", "/v1/load", "/v1/sgb")
    )


def child_main(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl
    from tracing import Tracer

    cycles = wl.cycle_count(args.workload, args.seconds, args.size)
    if args.trace and args.size == "full":
        cycles = max(1, cycles // 2)
    inputs = wl.make_inputs(args.workload, args.seed, args.size, cycles)
    if args.role == "reference":
        ops = wl.op_sequence(args.workload, args.size, cycles)
        out = {"answers": wl.reference_answers(args.workload, inputs, ops),
               "keys": wl.answer_keys(args.workload, ops)}
    elif args.workload == "serve_rw":
        out = _serve_program(args, inputs, cycles, Tracer)
    else:
        out = _inprocess_program(args, inputs, cycles, Tracer)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def pinned_env(work: Path) -> dict:
    """The children's environment: no inherited ``SGB_*`` knob, built-in cost
    profile, sources from this checkout, temporary files inside it."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SGB_")}
    env["SGB_COST_PROFILE"] = "off"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(work / "tmp")
    return env


def run_child(role: str, args, work: Path, env: dict, timeout: float) -> dict:
    out = work / f"{role}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out", str(out), "--work", str(work)]
    proc = subprocess.Popen(cmd, env=env, cwd=str(ROOT), start_new_session=True,
                            stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if proc.poll() is None or code is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if code != 0:
        raise RuntimeError(f"{role} child failed (exit {code})")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)


def check_answers(reference: dict, records) -> int:
    """Count the ops that failed or whose answer differs from the reference."""
    failed = 0
    for key, record in zip(reference["keys"], records):
        if "error" in record or record.get("digest") != reference["answers"].get(key):
            failed += 1
    return failed + max(0, len(reference["keys"]) - len(records))


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def end_to_end_metrics(prog: dict, ok: int, attempted: int) -> dict:
    records = prog["records"]
    latencies = [r["latency_s"] for r in records]
    return {
        "throughput_ops_s": len(records) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_p90_ms": p90(latencies) * 1000.0,
        "setup_s": statistics.median(prog["setups"]),
        "peak_rss_mb": prog["peak_rss_mb"],
        "success_rate": ok / attempted,
    }


def per_layer_metrics(prog: dict) -> dict:
    metrics = dict(prog["layers"])
    untraced, traced = prog["records"], prog["traced"]
    for cls in OP_CLASSES:
        values = [r["latency_s"] for r in untraced if r["cls"] == cls]
        metrics[f"ops.{cls}_p50_ms"] = statistics.median(values) * 1000.0 if values else 0.0
    plain = sum(r["latency_s"] for r in untraced)
    metrics["trace.overhead_share"] = sum(r["latency_s"] for r in traced) / plain - 1.0
    return metrics


def run_record(args, prog: dict, wall_s: float) -> dict:
    """What a reader needs beside the metrics to compare two runs."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    modes = {}
    for record in prog["records"]:
        modes.setdefault("load" if record["cls"] == "write" else record["label"], record.get("mode"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "samples": {"latency": len(prog["records"]), "setup": len(prog["setups"])},
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
        "settings": {
            "env": "inherited SGB_* cleared; SGB_COST_PROFILE=off",
            "program": "python -m repro.server --data DIR, SGB_CACHE=<spill dir>"
            if args.workload == "serve_rw"
            else "Database() defaults, result cache off",
        },
        "planner_modes": modes,
        "host_speed_ms": {"before": prog["speed_before_ms"], "after": prog["speed_after_ms"]},
        "wall_s": wall_s,
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.role:
        return child_main(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    env = pinned_env(work)
    started = time.time()
    try:
        reference = run_child("reference", args, work, env, timeout=80)
        prog = run_child("program", args, work, env, timeout=170 - (time.time() - started))
        records = prog["records"] + prog.get("traced", [])
        keys = reference["keys"] * (2 if "traced" in prog else 1)
        attempted = len(keys)
        failed = check_answers({"keys": keys, "answers": reference["answers"]}, records)
        if args.trace:
            metrics = per_layer_metrics(prog)
            units = PER_LAYER
            spans = work / "spans.jsonl"
            outdir = ROOT / ".perfbench_out"
            outdir.mkdir(exist_ok=True)
            if spans.exists():
                shutil.copy(spans, outdir / f"{args.workload}-seed{args.seed}-spans.jsonl")
        else:
            metrics = end_to_end_metrics(prog, attempted - failed, attempted)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"record": run_record(args, prog, time.time() - started)}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
