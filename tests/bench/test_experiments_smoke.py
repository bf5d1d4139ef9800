"""Smoke tests for the experiment runners (tiny sizes, checks structure + shape)."""

from repro.bench.experiments import (
    fig9_sgb_all_epsilon,
    fig9_sgb_any_epsilon,
    fig10_sgb_all_scale,
    fig10_sgb_any_scale,
    fig11_vs_clustering,
    fig12_overhead,
    table1_scaling_exponents,
    table2_tpch_queries,
)
from repro.bench.harness import measure
from repro.bench.report import format_series, format_table


class TestHarness:
    def test_measure_returns_positive_time_and_value(self):
        m = measure(lambda: sum(range(1000)), label="sum")
        assert m.seconds > 0
        assert m.value == 499500

    def test_measure_repeat_takes_minimum(self):
        m = measure(lambda: 1, repeat=3)
        assert m.seconds >= 0

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

    def test_fig12_reports_overhead_per_panel(self):
        rows = fig12_overhead(scale_factors=(0.0005,))
        panels = {r["panel"] for r in rows}
        assert panels == {"a", "b"}
        gb_rows = [r for r in rows if r["query"].startswith("GB")]
        assert all(r["overhead_pct"] == 0.0 for r in gb_rows)

