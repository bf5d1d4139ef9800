"""End-to-end run of the two experiment scripts at smoke-test sizes.

``scripts/run_all_experiments.py`` runs every runner of
:mod:`repro.bench.experiments` and ``scripts/generate_experiments_md.py``
renders the rows into EXPERIMENTS.md.  Each runner is shrunk to a tiny input
here, so a stage that names a missing runner, or a report section that reads
a missing stage, fails in seconds instead of partway through a full sweep.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

import repro.bench.experiments as E

ROOT = Path(__file__).resolve().parents[2]

#: Size overrides per runner, applied over whatever the script passes.
SMOKE_SIZES = {
    "fig9_sgb_all_epsilon": {"n": 120, "eps_values": (0.3,)},
    "fig9_sgb_any_epsilon": {"n": 120, "eps_values": (0.3,)},
    "fig10_sgb_all_scale": {"sizes": (100, 200)},
    "fig10_sgb_any_scale": {"sizes": (100, 200)},
    "fig11_vs_clustering": {"sizes": (150,)},
    "table1_scaling_exponents": {"sizes": (100, 200)},
    "table2_tpch_queries": {"scale_factor": 0.0005},
    "fig12_overhead": {"scale_factors": (0.0005,)},
}


def _headings(text: str) -> list:
    return [line for line in text.splitlines() if line.startswith("## ")]


@pytest.fixture()
def ran(monkeypatch):
    """Shrink every runner to its smoke size and record which ones ran."""
    calls = []
    for name, sizes in SMOKE_SIZES.items():
        real = getattr(E, name)

        def shrunk(*args, _real=real, _name=name, _sizes=sizes, **kwargs):
            calls.append(_name)
            kwargs.update(_sizes)
            return _real(*args, **kwargs)

        monkeypatch.setattr(E, name, shrunk)
    return calls


def test_scripts_run_end_to_end(ran, tmp_path, monkeypatch):
    # A runner without a smoke size would run at full size; fail fast instead.
    assert set(SMOKE_SIZES) == set(E.__all__)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.argv", ["run_all_experiments.py"])
    runpy.run_path(str(ROOT / "scripts" / "run_all_experiments.py"), run_name="__main__")
    assert set(ran) == set(E.__all__)
    assert (tmp_path / "experiment_results.json").exists()
    assert not (tmp_path / "experiment_results.checkpoint").exists()

    monkeypatch.setattr(
        "sys.argv", ["generate_experiments_md.py", "experiment_results.json"]
    )
    runpy.run_path(
        str(ROOT / "scripts" / "generate_experiments_md.py"), run_name="__main__"
    )
    generated = _headings((tmp_path / "EXPERIMENTS.md").read_text())
    # The committed report holds exactly the paper's figures and tables plus
    # the fidelity notes; no stage beyond the paper may come back.
    assert generated == _headings((ROOT / "EXPERIMENTS.md").read_text())
    assert not [h for h in generated if "beyond the paper" in h]
