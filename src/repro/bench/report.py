"""Rendering of experiment results: text tables, runtime series, JSON dumps."""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["format_table", "format_series", "write_json"]


def format_table(rows: Sequence[Dict[str, Any]], columns: Optional[Sequence[str]] = None) -> str:
    """Render dict rows as an aligned text table.

    ``columns`` fixes the column order; by default the keys of the first row
    are used.
    """
    if not rows:
        return "(no rows)"
    cols = list(columns) if columns else list(rows[0].keys())
    rendered = [[_fmt(row.get(col, "")) for col in cols] for row in rows]
    widths = [
        max(len(col), max((len(r[i]) for r in rendered), default=0))
        for i, col in enumerate(cols)
    ]
    header = "  ".join(col.ljust(w) for col, w in zip(cols, widths))
    separator = "  ".join("-" * w for w in widths)
    body = "\n".join("  ".join(v.ljust(w) for v, w in zip(r, widths)) for r in rendered)
    return f"{header}\n{separator}\n{body}"


def format_series(
    rows: Sequence[Dict[str, Any]],
    x: str,
    y: str,
    series: str,
) -> str:
    """Pivot rows into one column per series value (the paper's figure layout).

    Example: ``format_series(rows, x="eps", y="seconds", series="strategy")``
    prints one row per epsilon with one runtime column per strategy.
    """
    if not rows:
        return "(no rows)"
    series_values = sorted({str(r[series]) for r in rows})
    x_values = sorted({r[x] for r in rows}, key=lambda v: (isinstance(v, str), v))
    table: List[Dict[str, Any]] = []
    for xv in x_values:
        entry: Dict[str, Any] = {x: xv}
        for sv in series_values:
            match = [r for r in rows if r[x] == xv and str(r[series]) == sv]
            entry[sv] = match[0][y] if match else ""
        table.append(entry)
    return format_table(table, columns=[x] + series_values)


def write_json(rows: "Sequence[Dict[str, Any]] | Dict[str, Any]", path: str) -> str:
    """Dump experiment rows to ``path`` as indented JSON; return the path.

    ``scripts/run_all_experiments.py`` writes ``experiment_results.json``
    with it, and ``benchmarks/test_batch_vs_scalar.py`` its timing rows.
    """
    with open(path, "w") as f:
        json.dump(rows, f, indent=1)
    return path


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
