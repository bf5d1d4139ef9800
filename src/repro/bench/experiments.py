"""Experiment runners, one per table / figure of the paper's evaluation.

Every runner returns a list of flat dict rows (one per measured point) that
:func:`repro.bench.report.format_series` renders in the layout of the paper's
figure.  The default sizes are laptop-scale — the goal is to reproduce the
*shape* of every result (which method wins, by roughly what factor, how the
curves scale), not the absolute wall-clock numbers of the authors' testbed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.bench.harness import measure
from repro.bench.queries import sgb_queries, standard_queries
from repro.clustering import birch, dbscan, kmeans
from repro.core.api import sgb_all, sgb_any
from repro.core.distance import Metric
from repro.minidb.database import Database
from repro.workloads.checkins import CheckinConfig, checkin_points, generate_checkins
from repro.workloads.synthetic import clustered_points
from repro.workloads.tpch import load_tpch

__all__ = [
    "fig9_sgb_all_epsilon",
    "fig9_sgb_any_epsilon",
    "fig10_sgb_all_scale",
    "fig10_sgb_any_scale",
    "fig11_vs_clustering",
    "fig12_overhead",
    "table1_scaling_exponents",
    "table2_tpch_queries",
]


# ---------------------------------------------------------------------------
# Figure 9: effect of the similarity threshold epsilon
# ---------------------------------------------------------------------------


def fig9_sgb_all_epsilon(
    on_overlap: str = "JOIN-ANY",
    n: int = 2_000,
    eps_values: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    strategies: Sequence[str] = ("all-pairs", "bounds-checking", "index"),
    metric: "Metric | str" = Metric.L2,
    seed: int = 3,
) -> List[Dict[str, object]]:
    """Figure 9a–c: SGB-All runtime vs. epsilon for every strategy."""
    points = clustered_points(n, clusters=20, spread=0.005, low=0.0, high=100.0, seed=seed)
    rows: List[Dict[str, object]] = []
    for eps in eps_values:
        for strategy in strategies:
            # batch=False: this figure ablates the paper's per-tuple candidate
            # discovery strategies; the batch frontier path replaces exactly
            # that discovery, so it would flatten the strategy differences.
            m = measure(
                lambda e=eps, s=strategy: sgb_all(
                    points, eps=e, metric=metric, on_overlap=on_overlap,
                    strategy=s, batch=False,
                ),
                label=f"sgb-all/{on_overlap}",
            )
            rows.append(
                {
                    "figure": "9",
                    "operator": "SGB-All",
                    "on_overlap": on_overlap,
                    "eps": eps,
                    "strategy": strategy,
                    "n": n,
                    "groups": m.value.group_count,
                    "seconds": m.seconds,
                }
            )
    return rows


def fig9_sgb_any_epsilon(
    n: int = 2_000,
    eps_values: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9),
    strategies: Sequence[str] = ("all-pairs", "index"),
    metric: "Metric | str" = Metric.L2,
    seed: int = 3,
) -> List[Dict[str, object]]:
    """Figure 9d: SGB-Any runtime vs. epsilon (All-Pairs vs Index)."""
    points = clustered_points(n, clusters=20, spread=0.005, low=0.0, high=100.0, seed=seed)
    rows: List[Dict[str, object]] = []
    for eps in eps_values:
        for strategy in strategies:
            # batch=False: this figure compares the paper's per-tuple
            # algorithms; the batched pipeline bypasses both of them.
            m = measure(
                lambda e=eps, s=strategy: sgb_any(
                    points, eps=e, metric=metric, strategy=s, batch=False
                ),
                label="sgb-any",
            )
            rows.append(
                {
                    "figure": "9d",
                    "operator": "SGB-Any",
                    "eps": eps,
                    "strategy": strategy,
                    "n": n,
                    "groups": m.value.group_count,
                    "seconds": m.seconds,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 10: effect of the data size
# ---------------------------------------------------------------------------


def fig10_sgb_all_scale(
    on_overlap: str = "JOIN-ANY",
    sizes: Sequence[int] = (500, 1_000, 2_000, 4_000),
    eps: float = 0.2,
    strategies: Sequence[str] = ("bounds-checking", "index"),
    metric: "Metric | str" = Metric.L2,
    seed: int = 5,
) -> List[Dict[str, object]]:
    """Figure 10a–c: SGB-All runtime vs. input size (Bounds-Checking vs Index)."""
    rows: List[Dict[str, object]] = []
    for n in sizes:
        points = clustered_points(n, clusters=25, spread=0.005, low=0.0, high=100.0, seed=seed)
        for strategy in strategies:
            # batch=False: same strategy-ablation pin as fig9_sgb_all_epsilon.
            m = measure(
                lambda p=points, s=strategy: sgb_all(
                    p, eps=eps, metric=metric, on_overlap=on_overlap,
                    strategy=s, batch=False,
                ),
                label=f"sgb-all/{on_overlap}",
            )
            rows.append(
                {
                    "figure": "10",
                    "operator": "SGB-All",
                    "on_overlap": on_overlap,
                    "n": n,
                    "eps": eps,
                    "strategy": strategy,
                    "groups": m.value.group_count,
                    "seconds": m.seconds,
                }
            )
    return rows


def fig10_sgb_any_scale(
    sizes: Sequence[int] = (500, 1_000, 2_000, 4_000),
    eps: float = 0.2,
    strategies: Sequence[str] = ("all-pairs", "index"),
    metric: "Metric | str" = Metric.L2,
    seed: int = 5,
) -> List[Dict[str, object]]:
    """Figure 10d: SGB-Any runtime vs. input size (All-Pairs vs Index)."""
    rows: List[Dict[str, object]] = []
    for n in sizes:
        points = clustered_points(n, clusters=25, spread=0.005, low=0.0, high=100.0, seed=seed)
        for strategy in strategies:
            # batch=False: the scaling comparison is between the paper's
            # per-tuple algorithms (see fig9_sgb_any_epsilon).
            m = measure(
                lambda p=points, s=strategy: sgb_any(
                    p, eps=eps, metric=metric, strategy=s, batch=False
                ),
                label="sgb-any",
            )
            rows.append(
                {
                    "figure": "10d",
                    "operator": "SGB-Any",
                    "n": n,
                    "eps": eps,
                    "strategy": strategy,
                    "groups": m.value.group_count,
                    "seconds": m.seconds,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 11: SGB vs standalone clustering algorithms
# ---------------------------------------------------------------------------


def fig11_vs_clustering(
    sizes: Sequence[int] = (1_000, 2_000, 4_000),
    eps: float = 0.2,
    dataset: str = "brightkite",
    seed: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Figure 11: runtimes of the SGB variants vs DBSCAN, BIRCH, and K-means.

    ``dataset`` selects the synthetic stand-in ("brightkite" or "gowalla" —
    the two differ only in seed / hotspot structure, matching the role the two
    real datasets play in the paper).  Points are raw (latitude, longitude)
    degrees and ``eps`` is an absolute distance in degrees, as in the paper.
    """
    base_seed = seed if seed is not None else (11 if dataset == "brightkite" else 23)
    hotspots = 25 if dataset == "brightkite" else 40
    rows: List[Dict[str, object]] = []
    for n in sizes:
        config = CheckinConfig(
            n_checkins=n, n_users=max(50, n // 10), hotspots=hotspots, seed=base_seed
        )
        # Raw latitude/longitude degrees, as in the paper: eps is an absolute
        # distance in degrees, so the similarity threshold is selective.
        points = checkin_points(generate_checkins(config))

        # batch=False on every SGB line: like the other figure runners, this
        # reproduces the paper's per-tuple operators; the batched pipelines
        # have their own gate (benchmarks/test_batch_vs_scalar.py).
        competitors = {
            "DBSCAN": lambda: dbscan(points, eps=eps, min_pts=4),
            "BIRCH": lambda: birch(points, threshold=eps / 2),
            "K-means(20)": lambda: kmeans(points, k=20),
            "K-means(40)": lambda: kmeans(points, k=40),
            "SGB-All-Join-Any": lambda: sgb_all(
                points, eps=eps, on_overlap="JOIN-ANY", batch=False
            ),
            "SGB-All-Eliminate": lambda: sgb_all(
                points, eps=eps, on_overlap="ELIMINATE", batch=False
            ),
            "SGB-All-Form-New": lambda: sgb_all(
                points, eps=eps, on_overlap="FORM-NEW-GROUP", batch=False
            ),
            "SGB-Any": lambda: sgb_any(points, eps=eps, batch=False),
        }
        for name, fn in competitors.items():
            m = measure(fn, label=name)
            rows.append(
                {
                    "figure": "11",
                    "dataset": dataset,
                    "n": n,
                    "algorithm": name,
                    "seconds": m.seconds,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 12 + Table 2: SQL-level experiments on TPC-H
# ---------------------------------------------------------------------------


def _tpch_database(scale_factor: float, strategy: str = "index") -> Database:
    # sgb_workers=1: the Table 2 / Figure 12 runners reproduce the paper's
    # serial operator costs, so an SGB_WORKERS environment default must not
    # switch their SGB-Any plans onto the sharded engine.  optimizer=False
    # pins the logical plans the same way: the figure/table runners measure
    # the reference plans, and the rewrite layer (measured on its own by
    # benchmarks/test_optimizer_rewrites.py) may not re-place filters or
    # reorder joins under them.
    db = Database(sgb_strategy=strategy, sgb_workers=1, optimizer=False)
    load_tpch(db, scale_factor=scale_factor)
    return db


def table2_tpch_queries(
    scale_factor: float = 0.002,
    eps_power: float = 500.0,
    eps_profit: float = 5000.0,
    overlap: str = "JOIN-ANY",
    strategy: str = "index",
) -> List[Dict[str, object]]:
    """Table 2: run every GB / SGB evaluation query and report runtime and rows."""
    db = _tpch_database(scale_factor, strategy)
    rows: List[Dict[str, object]] = []
    queries = dict(standard_queries())
    queries.update(sgb_queries(eps_power=eps_power, eps_profit=eps_profit, overlap=overlap))
    for name, sql in queries.items():
        m = measure(lambda q=sql: db.execute(q), label=name)
        rows.append(
            {
                "table": "2",
                "query": name,
                "scale_factor": scale_factor,
                "output_rows": len(m.value.rows),
                "seconds": m.seconds,
            }
        )
    return rows


def fig12_overhead(
    scale_factors: Sequence[float] = (0.001, 0.002, 0.004),
    eps_profit: float = 5000.0,
    strategy: str = "index",
) -> List[Dict[str, object]]:
    """Figure 12: overhead of SGB queries relative to the standard GROUP BY.

    Panel (a) compares GB2 with SGB3 (all three overlap variants) and SGB4;
    panel (b) compares GB3 with SGB5 (JOIN-ANY) and SGB6, mirroring the paper.
    """
    from repro.bench.queries import GB2, GB3, sgb3, sgb4, sgb5, sgb6

    rows: List[Dict[str, object]] = []
    for sf in scale_factors:
        db = _tpch_database(sf, strategy)
        panel_a = {
            "GB2": GB2,
            "SGB3-JOIN-ANY": sgb3(eps_profit, overlap="JOIN-ANY"),
            "SGB3-ELIMINATE": sgb3(eps_profit, overlap="ELIMINATE"),
            "SGB3-FORM-NEW": sgb3(eps_profit, overlap="FORM-NEW-GROUP"),
            "SGB4": sgb4(eps_profit),
        }
        panel_b = {
            "GB3": GB3,
            "SGB5-JOIN-ANY": sgb5(eps_profit, overlap="JOIN-ANY"),
            "SGB6": sgb6(eps_profit),
        }
        for panel, queries in (("a", panel_a), ("b", panel_b)):
            baseline_seconds: Optional[float] = None
            for name, sql in queries.items():
                m = measure(lambda q=sql: db.execute(q), label=name)
                if name.startswith("GB"):
                    baseline_seconds = m.seconds
                overhead = (
                    (m.seconds / baseline_seconds - 1.0) * 100.0
                    if baseline_seconds
                    else 0.0
                )
                rows.append(
                    {
                        "figure": "12",
                        "panel": panel,
                        "scale_factor": sf,
                        "query": name,
                        "output_rows": len(m.value.rows),
                        "seconds": m.seconds,
                        "overhead_pct": round(overhead, 1),
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# Table 1: empirical scaling exponents
# ---------------------------------------------------------------------------


def table1_scaling_exponents(
    sizes: Sequence[int] = (500, 1_000, 2_000),
    eps: float = 0.15,
    on_overlap: str = "JOIN-ANY",
    metric: "Metric | str" = Metric.LINF,
    seed: int = 9,
) -> List[Dict[str, object]]:
    """Table 1: fit the empirical growth exponent of every SGB-All strategy.

    The paper's Table 1 is analytical (O(n^2) for All-Pairs, O(n |G|) for
    Bounds-Checking, O(n log |G|) for the on-the-fly index).  This runner
    measures the runtime at increasing input sizes and reports the fitted
    log-log slope, which should be close to 2 for All-Pairs and close to 1
    for the indexed variant.
    """
    strategies = ("all-pairs", "bounds-checking", "index")
    timings: Dict[str, List[float]] = {s: [] for s in strategies}
    for n in sizes:
        points = clustered_points(n, clusters=20, spread=0.005, low=0.0, high=100.0, seed=seed)
        for strategy in strategies:
            # batch=False: the exponents characterise the per-tuple
            # strategies; the batch frontier path replaces their candidate
            # walks and would flatten All-Pairs towards the indexed slope.
            m = measure(
                lambda p=points, s=strategy: sgb_all(
                    p, eps=eps, metric=metric, on_overlap=on_overlap,
                    strategy=s, batch=False,
                )
            )
            timings[strategy].append(m.seconds)

    rows: List[Dict[str, object]] = []
    for strategy in strategies:
        slope = _loglog_slope(list(sizes), timings[strategy])
        rows.append(
            {
                "table": "1",
                "strategy": strategy,
                "on_overlap": on_overlap,
                "sizes": list(sizes),
                "seconds": [round(t, 4) for t in timings[strategy]],
                "empirical_exponent": round(slope, 2),
            }
        )
    return rows


def _loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-9)) for y in ys]
    n = len(lx)
    mean_x = sum(lx) / n
    mean_y = sum(ly) / n
    num = sum((a - mean_x) * (b - mean_y) for a, b in zip(lx, ly))
    den = sum((a - mean_x) ** 2 for a in lx)
    return num / den if den else 0.0
