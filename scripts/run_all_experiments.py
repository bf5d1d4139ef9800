"""Run every experiment runner and dump the raw rows to experiment_results.json.

This is the companion to ``generate_experiments_md.py``; together they rebuild
EXPERIMENTS.md from scratch:

    python scripts/run_all_experiments.py
    python scripts/generate_experiments_md.py experiment_results.json

The default sizes finish in a few minutes on a laptop.  Pass ``--large`` to
use sizes closer to the paper's (slower, sharper separation).

Completed stages are checkpointed to ``experiment_results.checkpoint`` after
each one finishes; an interrupted run restarted with ``--resume`` replays the
finished stages from the checkpoint and only measures the remaining ones.
The checkpoint is deleted once the full JSON is written.  A checkpoint taken
under a different ``--large`` setting is ignored — mixing sizes across a
resume would produce incomparable rows.
"""

from __future__ import annotations

import os
import sys
import time

from repro.bench import experiments as E
from repro.bench.report import write_json
from repro.storage.checkpoint import load_checkpoint, save_checkpoint

CHECKPOINT_PATH = "experiment_results.checkpoint"
_CHECKPOINT_FORMAT = "experiment-stages/1"


def _load_resume(config: "dict", resume: bool) -> "dict":
    """Completed stage rows from the checkpoint, or ``{}`` when unusable."""
    if not resume:
        return {}
    payload = load_checkpoint(CHECKPOINT_PATH)
    if (
        not isinstance(payload, dict)
        or payload.get("format") != _CHECKPOINT_FORMAT
        or payload.get("config") != config
    ):
        if payload is not None:
            print("checkpoint ignored: different flags or format", flush=True)
        return {}
    stages = payload.get("stages")
    return dict(stages) if isinstance(stages, dict) else {}


def main(large: bool = False, resume: bool = False) -> None:
    k = 2 if large else 1
    config = {"large": large}
    out = _load_resume(config, resume)
    stages = [
        ("fig9_join_any", lambda: E.fig9_sgb_all_epsilon("JOIN-ANY", n=1500 * k, eps_values=(0.1, 0.5, 0.9))),
        ("fig9_eliminate", lambda: E.fig9_sgb_all_epsilon("ELIMINATE", n=1500 * k, eps_values=(0.1, 0.5, 0.9))),
        ("fig9_form_new", lambda: E.fig9_sgb_all_epsilon("FORM-NEW-GROUP", n=1500 * k, eps_values=(0.1, 0.5, 0.9))),
        ("fig9_any", lambda: E.fig9_sgb_any_epsilon(n=1500 * k, eps_values=(0.1, 0.5, 0.9))),
        ("fig10_all", lambda: E.fig10_sgb_all_scale("JOIN-ANY", sizes=(500 * k, 1000 * k, 2000 * k, 4000 * k))),
        ("fig10_any", lambda: E.fig10_sgb_any_scale(sizes=(500 * k, 1000 * k, 2000 * k, 4000 * k))),
        ("fig11_brightkite", lambda: E.fig11_vs_clustering(sizes=(1000 * k, 2000 * k), dataset="brightkite")),
        ("fig11_gowalla", lambda: E.fig11_vs_clustering(sizes=(1000 * k, 2000 * k), dataset="gowalla")),
        ("table1", lambda: E.table1_scaling_exponents(sizes=(500 * k, 1000 * k, 2000 * k))),
        ("table2", lambda: E.table2_tpch_queries(scale_factor=0.002 * k)),
        ("fig12", lambda: E.fig12_overhead(scale_factors=(0.001 * k, 0.002 * k))),
    ]
    for name, fn in stages:
        if name in out:
            print(f"{name:<20} resumed from checkpoint", flush=True)
            continue
        start = time.perf_counter()
        out[name] = fn()
        print(f"{name:<20} done in {time.perf_counter() - start:6.1f}s", flush=True)
        save_checkpoint(
            {"format": _CHECKPOINT_FORMAT, "config": config, "stages": out},
            CHECKPOINT_PATH,
        )
    write_json(out, "experiment_results.json")
    if os.path.exists(CHECKPOINT_PATH):
        os.remove(CHECKPOINT_PATH)
    print("wrote experiment_results.json")


if __name__ == "__main__":
    main(large="--large" in sys.argv, resume="--resume" in sys.argv)
