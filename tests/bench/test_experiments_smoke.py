"""Smoke tests for the experiment runners (tiny sizes, checks structure + shape)."""

import pytest

from repro.bench.experiments import (
    planner_adaptive,
    fig9_sgb_all_epsilon,
    fig9_sgb_any_epsilon,
    fig10_sgb_all_scale,
    fig10_sgb_any_scale,
    fig11_vs_clustering,
    fig12_overhead,
    fused_vs_materialized,
    join_vs_allpairs,
    knn_parallel,
    streaming_window,
    table1_scaling_exponents,
    table2_tpch_queries,
)
from repro.bench.harness import measure, sweep
from repro.bench.report import format_series, format_table, speedup


class TestHarness:
    def test_measure_returns_positive_time_and_value(self):
        m = measure(lambda: sum(range(1000)), label="sum")
        assert m.seconds > 0
        assert m.value == 499500

    def test_measure_repeat_takes_minimum(self):
        m = measure(lambda: 1, repeat=3)
        assert m.seconds >= 0

    def test_sweep_runs_per_value(self):
        results = sweep(lambda n: list(range(n)), "n", [10, 20])
        assert len(results) == 2
        assert results[0].params == {"n": 10}

    def test_format_table_and_series(self):
        rows = [
            {"eps": 0.1, "strategy": "index", "seconds": 0.5},
            {"eps": 0.1, "strategy": "all-pairs", "seconds": 1.5},
        ]
        table = format_table(rows)
        assert "strategy" in table and "index" in table
        series = format_series(rows, x="eps", y="seconds", series="strategy")
        assert "all-pairs" in series.splitlines()[0]
        assert format_table([]) == "(no rows)"

    def test_speedup_relative_to_baseline(self):
        rows = [
            {"eps": 0.1, "strategy": "all-pairs", "seconds": 2.0},
            {"eps": 0.1, "strategy": "index", "seconds": 0.5},
        ]
        enriched = speedup(rows, baseline_label="all-pairs")
        index_row = [r for r in enriched if r["strategy"] == "index"][0]
        assert index_row["speedup"] == pytest.approx(4.0)


class TestFigureRunners:
    def test_fig9_all_returns_rows_per_eps_and_strategy(self):
        rows = fig9_sgb_all_epsilon(
            on_overlap="JOIN-ANY", n=150, eps_values=(0.2, 0.5), strategies=("all-pairs", "index")
        )
        assert len(rows) == 4
        assert {r["strategy"] for r in rows} == {"all-pairs", "index"}
        assert all(r["seconds"] > 0 and r["groups"] > 0 for r in rows)

    def test_fig9_any_runs(self):
        rows = fig9_sgb_any_epsilon(n=150, eps_values=(0.2, 0.5))
        assert len(rows) == 4
        assert all(r["operator"] == "SGB-Any" for r in rows)

    def test_fig10_all_larger_input_costs_more(self):
        rows = fig10_sgb_all_scale(
            sizes=(100, 400), strategies=("index",), on_overlap="JOIN-ANY"
        )
        by_n = {r["n"]: r["seconds"] for r in rows}
        assert by_n[400] > by_n[100] * 0.5  # monotone-ish growth at tiny sizes

    def test_fig10_any_all_pairs_grows_faster_than_index(self):
        rows = fig10_sgb_any_scale(sizes=(200, 800))
        naive = {r["n"]: r["seconds"] for r in rows if r["strategy"] == "all-pairs"}
        indexed = {r["n"]: r["seconds"] for r in rows if r["strategy"] == "index"}
        naive_growth = naive[800] / naive[200]
        indexed_growth = indexed[800] / indexed[200]
        assert naive_growth > indexed_growth

    def test_fig11_includes_all_algorithms(self):
        rows = fig11_vs_clustering(sizes=(300,), eps=0.2)
        algorithms = {r["algorithm"] for r in rows}
        assert {"DBSCAN", "BIRCH", "K-means(20)", "K-means(40)", "SGB-Any"} <= algorithms
        assert all(r["seconds"] > 0 for r in rows)

    def test_table1_exponents_order(self):
        rows = table1_scaling_exponents(sizes=(200, 400, 800))
        exponents = {r["strategy"]: r["empirical_exponent"] for r in rows}
        # All-Pairs must grow at least as fast as the indexed variant.
        assert exponents["all-pairs"] >= exponents["index"] - 0.3

    def test_table2_runs_all_nine_queries(self):
        rows = table2_tpch_queries(scale_factor=0.0005)
        assert len(rows) == 9
        assert {r["query"] for r in rows} == {
            "GB1", "GB2", "GB3", "SGB1", "SGB2", "SGB3", "SGB4", "SGB5", "SGB6",
        }

    def test_streaming_window_compares_both_paths(self):
        rows = streaming_window(sizes=(600,), window=200, slide=50)
        assert len(rows) == 2
        by_path = {r["path"]: r for r in rows}
        assert set(by_path) == {"full-regroup", "incremental"}
        assert all(r["flushes"] == 600 // 50 for r in rows)
        assert all(r["seconds"] > 0 for r in rows)
        assert by_path["incremental"]["speedup"] is not None

    def test_streaming_window_counts_the_trailing_partial_flush(self):
        # 630 points, slide 50: 12 full epochs plus one 30-point partial on
        # close() — both paths must time the same 13 windows.
        rows = streaming_window(sizes=(630,), window=200, slide=50)
        assert all(r["flushes"] == 13 for r in rows)

    def test_streaming_window_clamps_oversized_windows(self):
        rows = streaming_window(sizes=(80,), window=200, slide=50)
        # Clamped to the stream size and rounded to a whole number of epochs.
        assert all(r["window"] == 50 and r["slide"] == 50 for r in rows)

    def test_join_vs_allpairs_compares_both_paths(self):
        rows = join_vs_allpairs(sizes=(600,))
        assert len(rows) == 2
        by_path = {r["path"]: r for r in rows}
        assert set(by_path) == {"all-pairs", "grid"}
        # Identical pair sets: the comparison is apples to apples.
        assert by_path["grid"]["pairs"] == by_path["all-pairs"]["pairs"]
        assert all(r["n_left"] == r["n_right"] == 300 for r in rows)
        assert by_path["grid"]["speedup"] is not None

    def test_fused_vs_materialized_compares_both_paths(self):
        rows = fused_vs_materialized(sizes=(600,))
        assert len(rows) == 2
        by_path = {r["path"]: r for r in rows}
        assert set(by_path) == {"materialized", "fused"}
        # Identical groupings: the comparison is apples to apples.
        assert by_path["fused"]["groups"] == by_path["materialized"]["groups"]
        assert by_path["fused"]["speedup"] is not None

    def test_knn_parallel_compares_serial_and_sharded_modes(self):
        rows = knn_parallel(sizes=(600,), k=2, worker_counts=(2,))
        by_path = {r["path"]: r for r in rows}
        assert set(by_path) == {"serial", "workers=2/rebuild", "workers=2/ship-index"}
        # All three modes return the identical pair list.
        pair_counts = {r["pairs"] for r in rows}
        assert len(pair_counts) == 1 and pair_counts.pop() == 600 // 2 * 2
        assert all(r["cpu_count"] >= 1 for r in rows)

    def test_planner_adaptive_compares_three_arms_per_workload(self):
        rows = planner_adaptive(sizes=(400,), workers=2)
        by_workload = {}
        for r in rows:
            by_workload.setdefault(r["workload"], []).append(r)
        assert set(by_workload) == {"uniform", "skewed"}
        for workload, arm_rows in by_workload.items():
            paths = {r["path"] for r in arm_rows}
            assert paths == {"serial", "one-slab-per-worker (2w)", "auto (planner)"}
            # All three arms return the identical grouping.
            assert len({r["groups"] for r in arm_rows}) == 1
            auto = [r for r in arm_rows if r["path"] == "auto (planner)"][0]
            assert auto["plan"] and auto["plan"].startswith("sgb_any:")
            assert all(r["speedup"] is not None for r in arm_rows)

    def test_fig12_reports_overhead_per_panel(self):
        rows = fig12_overhead(scale_factors=(0.0005,))
        panels = {r["panel"] for r in rows}
        assert panels == {"a", "b"}
        gb_rows = [r for r in rows if r["query"].startswith("GB")]
        assert all(r["overhead_pct"] == 0.0 for r in gb_rows)


class TestCompare:
    def test_compare_attaches_speedup_relative_to_baseline(self):
        from repro.bench.harness import compare

        results = compare({"slow": lambda: sum(range(20000)), "fast": lambda: 1},
                          baseline="slow")
        by_label = {m.label: m for m in results}
        assert by_label["slow"].params["speedup"] == 1.0
        assert by_label["fast"].params["speedup"] >= 1.0

    def test_compare_rejects_unknown_baseline(self):
        from repro.bench.harness import compare

        with pytest.raises(ValueError, match="unknown baseline"):
            compare({"only": lambda: 1}, baseline="missing")
