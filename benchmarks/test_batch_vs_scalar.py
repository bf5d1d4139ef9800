"""Batched columnar pipeline vs the scalar per-tuple reference path.

Unlike the figure benchmarks (which reproduce the paper's per-tuple
algorithms against each other) this compares the two *execution paths* of the
same operator: per-point ``add`` vs ``add_batch`` at 10k points (50k under
``--paper-scale``).  Both paths produce identical groupings — the parity
suite in ``tests/core/test_cross_equivalence.py`` enforces that — so the only
difference measured here is the columnar execution.

The timed rows are printed as a table and written with
:func:`repro.bench.report.write_json` to ``.benchmarks/scalar_vs_batch.json``.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Sequence

from repro.bench.report import format_table, write_json
from repro.core.api import sgb_all, sgb_any
from repro.core.pointset import HAVE_NUMPY
from repro.workloads.synthetic import clustered_points

#: Floor asserted for the SGB-Any INDEX-strategy batch speedup with the
#: NumPy backend.  Measured ~5x at 10k and ~7x at 50k points; the margin
#: absorbs CI timer noise.
_MIN_SPEEDUP_SMALL = 2.0
_MIN_SPEEDUP_LARGE = 3.0

EPS = 0.3
STRATEGY = "index"
SEED = 11


def _timed_rows(sizes: Sequence[int]) -> List[Dict[str, object]]:
    """Time the scalar and the batch path of both SGB operators once per size.

    Every row carries a ``speedup`` relative to the scalar path of the same
    operator and size.
    """
    rows: List[Dict[str, object]] = []
    for n in sizes:
        points = clustered_points(
            n, clusters=max(20, n // 250), spread=0.005, low=0.0, high=100.0, seed=SEED
        )
        operators = {
            # workers=1 pins the in-process batch pipeline: an SGB_WORKERS
            # environment default must not reroute the "batch" arm through
            # the sharded engine (test_parallel_scaling.py times that one).
            "SGB-Any": lambda batch: sgb_any(
                points, eps=EPS, strategy=STRATEGY, batch=batch, workers=1
            ),
            "SGB-All": lambda batch: sgb_all(points, eps=EPS, strategy=STRATEGY, batch=batch),
        }
        for operator, run in operators.items():
            seconds: Dict[str, float] = {}
            for path, batch in (("scalar", False), ("batch", True)):
                start = time.perf_counter()
                result = run(batch)
                seconds[path] = time.perf_counter() - start
                rows.append(
                    {
                        "operator": operator,
                        "path": path,
                        "n": n,
                        "eps": EPS,
                        "strategy": STRATEGY,
                        "backend": "numpy" if HAVE_NUMPY else "python",
                        "groups": result.group_count,
                        "seconds": seconds[path],
                        "speedup": round(seconds["scalar"] / seconds[path], 2),
                    }
                )
    return rows


def test_sgb_any_arms_pin_workers(monkeypatch):
    calls = []
    real = sgb_any

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setitem(globals(), "sgb_any", spy)
    _timed_rows((150,))
    # Both arms pin workers=1, so the batch arm is the in-process pipeline
    # whatever SGB_WORKERS says.
    assert len(calls) == 2
    assert all(kwargs.get("workers") == 1 for kwargs in calls)


def test_batch_path_beats_scalar_path(scale):
    sizes = (10_000,) if scale == 1 else (10_000, 50_000)
    rows = _timed_rows(sizes)

    os.makedirs(".benchmarks", exist_ok=True)
    write_json(rows, os.path.join(".benchmarks", "scalar_vs_batch.json"))
    print()
    print(format_table(rows))

    # Identical groupings on every (operator, n) pair.
    for n in sizes:
        for operator in ("SGB-Any", "SGB-All"):
            groups = {
                r["path"]: r["groups"]
                for r in rows
                if r["n"] == n and r["operator"] == operator
            }
            assert groups["batch"] == groups["scalar"]

    if not HAVE_NUMPY:
        return  # the pure-Python fallback only promises identical results
    for n in sizes:
        [speedup] = [
            r["speedup"]
            for r in rows
            if r["n"] == n and r["operator"] == "SGB-Any" and r["path"] == "batch"
        ]
        floor = _MIN_SPEEDUP_LARGE if n >= 50_000 else _MIN_SPEEDUP_SMALL
        assert speedup >= floor, (
            f"SGB-Any add_batch speedup at n={n} was {speedup}x, expected >= {floor}x"
        )
