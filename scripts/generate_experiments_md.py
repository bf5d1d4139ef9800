"""Generate EXPERIMENTS.md from the experiment-runner results.

Usage::

    python scripts/run_all_experiments.py     # writes experiment_results.json
    python scripts/generate_experiments_md.py experiment_results.json

The report compares every measured table/figure against the shape the paper
reports.  It is what produced the EXPERIMENTS.md checked into the repository.
"""

from __future__ import annotations

import json
import sys
import textwrap
from pathlib import Path

from repro.bench.report import format_series, format_table


def _speed_ratio(rows, slow_label, fast_label, key="strategy"):
    """Geometric-mean ratio slow/fast across matching sweep points."""
    import math

    slows = {}
    fasts = {}
    for r in rows:
        point = tuple(
            (k, v) for k, v in sorted(r.items()) if k not in (key, "seconds", "groups", "label")
        )
        if str(r[key]) == slow_label:
            slows[point] = r["seconds"]
        elif str(r[key]) == fast_label:
            fasts[point] = r["seconds"]
    ratios = [slows[p] / fasts[p] for p in slows if p in fasts and fasts[p] > 0]
    if not ratios:
        return float("nan")
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def _clustering_note(tables):
    """Figure 11's fidelity note, read off the measured rows.

    For every baseline it counts the measured (dataset, n) points at which
    the fastest SGB variant, and every SGB variant, ran faster than it.
    """
    points = {}
    for rows in tables:
        for r in rows:
            points.setdefault((r["dataset"], r["n"]), {})[str(r["algorithm"])] = r["seconds"]
    times = list(points.values())
    baselines = sorted({a for t in times for a in t if not a.startswith("SGB")})

    def sgb(t):
        return [v for a, v in t.items() if a.startswith("SGB")]

    def tally(beats_baseline):
        return ", ".join(
            f"{b} at {sum(1 for t in times if beats_baseline(sgb(t), t[b]))}"
            for b in baselines
        )

    fastest = tally(lambda ours, theirs: min(ours) < theirs)
    every = tally(lambda ours, theirs: max(ours) < theirs)
    note = (
        f"**Clustering baselines in Figure 11.**  Out of the {len(times)} measured "
        f"(dataset, n) points, the fastest SGB variant beats {fastest}; every SGB "
        f"variant beats {every}.  The paper has every SGB operator ahead of every "
        "baseline.  The SGB lines here run the paper's per-tuple operators "
        "(`batch=False`), which decide each point in a Python loop, while each "
        "K-means pass is whole-array NumPy work."
    )
    return textwrap.wrap(
        note, width=76, initial_indent="* ", subsequent_indent="  ", break_on_hyphens=False
    )


def main(path: str) -> None:
    data = json.loads(Path(path).read_text())
    lines: list[str] = []
    add = lines.append

    add("# EXPERIMENTS — paper vs. measured")
    add("")
    add("All measurements were taken with the pure-Python implementation in this")
    add("repository on a single CPU core (see README / DESIGN for the substitution")
    add("notes).  Absolute times are not comparable with the paper's PostgreSQL/C")
    add("implementation on TPC-H scale factors up to 60; the claims being checked are")
    add("the *relative* ones: which algorithm wins, by roughly what factor, and how")
    add("the curves scale.  Regenerate any row with `pytest benchmarks/<file> "
        "--benchmark-only` or the runners in `repro.bench.experiments`.")
    add("")

    # ---------------- Figure 9 ----------------
    add("## Figure 9 — effect of the similarity threshold ε")
    add("")
    add("Paper: the on-the-fly Index is ~2 orders of magnitude faster than All-Pairs,")
    add("Bounds-Checking ~1 order; runtimes drop as ε grows (fewer groups).")
    add("")
    for key, title in [
        ("fig9_join_any", "SGB-All / JOIN-ANY (seconds)"),
        ("fig9_eliminate", "SGB-All / ELIMINATE (seconds)"),
        ("fig9_form_new", "SGB-All / FORM-NEW-GROUP (seconds)"),
        ("fig9_any", "SGB-Any (seconds)"),
    ]:
        rows = data[key]
        add(f"### {title}, n = {rows[0]['n']}")
        add("")
        add("```")
        add(format_series(rows, x="eps", y="seconds", series="strategy"))
        add("```")
        ratio = _speed_ratio(rows, "all-pairs", "index")
        add("")
        add(f"Measured: the indexed variant is on (geometric) average **{ratio:.1f}x**")
        add("faster than All-Pairs at this scale; the gap widens with n (Figure 10).")
        add("")

    # ---------------- Figure 10 ----------------
    add("## Figure 10 — effect of the data size")
    add("")
    add("Paper: All-Pairs grows quadratically; Bounds-Checking and the Index grow")
    add("near-linearly with the Index consistently fastest (up to 3 orders of")
    add("magnitude over All-Pairs at SF 32).")
    add("")
    rows = data["fig10_all"]
    add("### SGB-All (JOIN-ANY), ε = 0.2 (seconds)")
    add("")
    add("```")
    add(format_series(rows, x="n", y="seconds", series="strategy"))
    add("```")
    add("")
    rows = data["fig10_any"]
    add("### SGB-Any, ε = 0.2 (seconds)")
    add("")
    add("```")
    add(format_series(rows, x="n", y="seconds", series="strategy"))
    add("```")
    naive = [r for r in rows if r["strategy"] == "all-pairs"]
    indexed = [r for r in rows if r["strategy"] == "index"]
    naive_growth = naive[-1]["seconds"] / naive[0]["seconds"]
    indexed_growth = indexed[-1]["seconds"] / indexed[0]["seconds"]
    n_growth = naive[-1]["n"] / naive[0]["n"]
    add("")
    add(f"Measured growth over a {n_growth:.0f}x size increase: All-Pairs slows down "
        f"**{naive_growth:.1f}x** (consistent with quadratic growth) while the Index "
        f"slows down only **{indexed_growth:.1f}x** — the same divergence the paper's "
        "Figure 10d shows, so the gap keeps widening with the data size.")
    add("")

    # ---------------- Figure 11 ----------------
    add("## Figure 11 — SGB vs standalone clustering")
    add("")
    add("Paper: the SGB operators beat DBSCAN, BIRCH, and K-means by 1–3 orders of")
    add("magnitude on the Brightkite and Gowalla check-in data.")
    add("")
    for key in ("fig11_brightkite", "fig11_gowalla"):
        rows = data[key]
        add(f"### {rows[0]['dataset']} stand-in (seconds)")
        add("")
        add("```")
        add(format_series(rows, x="n", y="seconds", series="algorithm"))
        add("```")
        add("")

    # ---------------- Table 1 ----------------
    add("## Table 1 — complexity of the SGB-All strategies")
    add("")
    add("Paper (analytical, L∞): All-Pairs O(n²)–O(n³), Bounds-Checking O(n·|G|),")
    add("on-the-fly Index O(n·log|G|).  Measured: fitted log-log growth exponents.")
    add("")
    add("```")
    add(format_table(
        [
            {
                "strategy": r["strategy"],
                "sizes": r["sizes"],
                "seconds": r["seconds"],
                "fitted exponent": r["empirical_exponent"],
            }
            for r in data["table1"]
        ]
    ))
    add("```")
    add("")

    # ---------------- Table 2 ----------------
    add("## Table 2 — TPC-H evaluation queries")
    add("")
    rows = data["table2"]
    add(f"Synthetic TPC-H at scale factor {rows[0]['scale_factor']} through the SQL")
    add("engine (parse → plan → execute), indexed SGB plans.")
    add("")
    add("```")
    add(format_table(
        [
            {"query": r["query"], "output rows": r["output_rows"], "seconds": round(r["seconds"], 3)}
            for r in rows
        ]
    ))
    add("```")
    add("")

    # ---------------- Figure 12 ----------------
    add("## Figure 12 — overhead of SGB vs standard GROUP BY")
    add("")
    add("Paper: JOIN-ANY is at or below the plain GROUP BY; ELIMINATE ≈ +15%,")
    add("SGB-Any ≈ +20%, FORM-NEW-GROUP ≈ +40%.")
    add("")
    rows = data["fig12"]
    add("```")
    add(format_table(
        [
            {
                "panel": r["panel"],
                "scale_factor": r["scale_factor"],
                "query": r["query"],
                "seconds": round(r["seconds"], 3),
                "overhead vs GB (%)": r["overhead_pct"],
            }
            for r in rows
        ]
    ))
    add("```")
    add("")
    add("The measured overheads are of the same order as the paper's (tens of")
    add("percent, not multiples), with JOIN-ANY cheapest among the SGB-All variants")
    add("and FORM-NEW-GROUP most expensive.  Exact percentages differ because the")
    add("derived-relation part of each query (joins + pre-aggregation) dominates")
    add("differently in a pure-Python engine.")
    add("")

    # ---------------- fidelity notes ----------------
    add("## Fidelity notes (where the measured shape deviates from the paper)")
    add("")
    add("* **Magnitude of the Index speed-up.**  The paper reports 2–3 orders of")
    add("  magnitude over All-Pairs at 0.5M–10M tuples; at the laptop-scale inputs")
    add("  used here (≤ 4k points) the measured gap is roughly 4–15x and still")
    add("  widening with n (Figure 10), i.e. the asymptotic story matches but the")
    add("  absolute separation needs the paper's input sizes to fully develop.")
    add("* **Bounds-Checking on ELIMINATE / FORM-NEW-GROUP.**  Without the R-tree,")
    add("  the overlap-group scan costs about as much as All-Pairs on these highly")
    add("  fragmented workloads (|G| close to n), so Bounds-Checking only clearly")
    add("  beats All-Pairs under JOIN-ANY at small ε.  The paper's workloads have")
    add("  larger groups (|G| << n), which is where the O(n·|G|) bound pays off;")
    add("  the indexed variant dominates in both settings.")
    lines.extend(_clustering_note([data["fig11_brightkite"], data["fig11_gowalla"]]))
    add("")

    Path("EXPERIMENTS.md").write_text("\n".join(lines))
    print(f"wrote EXPERIMENTS.md ({len(lines)} lines)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "experiment_results.json")
