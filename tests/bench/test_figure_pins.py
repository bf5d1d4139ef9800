"""Guard: figure/table runners stay pinned to the paper's per-tuple operators.

The batch frontier pipeline (SGB-All) and the sharded engine (SGB-Any)
bypass the per-tuple candidate-discovery strategies the figure experiments
ablate — an unpinned figure runner would silently measure the bypass
instead of the strategies and flatten the curves (the Table 1 exponent
ordering is the canary).  These tests wrap the operator entry points inside
``repro.bench.experiments`` and assert every figure/table call goes through
``batch=False``.
"""

import pytest

from repro.bench import experiments as E


@pytest.fixture()
def recorded(monkeypatch):
    """Record (name, kwargs) of every SGB call a runner makes."""
    calls = []
    real_all, real_any = E.sgb_all, E.sgb_any

    def spy_all(*args, **kwargs):
        calls.append(("sgb_all", kwargs))
        return real_all(*args, **kwargs)

    def spy_any(*args, **kwargs):
        calls.append(("sgb_any", kwargs))
        return real_any(*args, **kwargs)

    monkeypatch.setattr(E, "sgb_all", spy_all)
    monkeypatch.setattr(E, "sgb_any", spy_any)
    return calls


def _assert_all_scalar(calls):
    assert calls, "runner never reached an SGB operator"
    for name, kwargs in calls:
        assert kwargs.get("batch") is False, f"{name} call not pinned: {kwargs}"


class TestFigurePins:
    def test_fig9_sgb_all_pinned_to_scalar_path(self, recorded):
        E.fig9_sgb_all_epsilon(n=120, eps_values=(0.3,), strategies=("index",))
        _assert_all_scalar(recorded)

    def test_fig9_sgb_any_pinned_to_scalar_path(self, recorded):
        E.fig9_sgb_any_epsilon(n=120, eps_values=(0.3,), strategies=("index",))
        _assert_all_scalar(recorded)

    def test_fig10_sgb_all_pinned_to_scalar_path(self, recorded):
        E.fig10_sgb_all_scale(sizes=(120,), strategies=("index",))
        _assert_all_scalar(recorded)

    def test_fig10_sgb_any_pinned_to_scalar_path(self, recorded):
        E.fig10_sgb_any_scale(sizes=(120,), strategies=("index",))
        _assert_all_scalar(recorded)

    def test_fig11_pins_every_sgb_line(self, recorded):
        E.fig11_vs_clustering(sizes=(150,), eps=0.2)
        sgb_calls = [c for c in recorded if c[0].startswith("sgb")]
        assert len(sgb_calls) >= 4  # three SGB-All overlap modes + SGB-Any
        _assert_all_scalar(sgb_calls)

    def test_table1_pinned_to_scalar_path(self, recorded):
        E.table1_scaling_exponents(sizes=(100, 200, 400))
        _assert_all_scalar(recorded)


class TestPlannerBypass:
    """The figure/table runners must never consult the cost planner.

    The paper figures pin ``batch=False`` / ``workers=1``, which keeps
    :func:`repro.engine.cost.plan_sgb_any` (and friends) out of the loop —
    a runner that delegated would measure whatever mode this machine's
    planner happens to pick instead of the pinned configuration.
    """

    @pytest.fixture()
    def planner_spy(self, monkeypatch):
        import repro.engine.cost as cost_mod

        calls = []
        for name in ("plan_sgb_any", "plan_sgb_all", "plan_eps_join", "plan_knn_join"):
            real = getattr(cost_mod, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(cost_mod, name, spy)
        return calls

    def test_figure_runners_bypass_planner(self, planner_spy):
        E.fig9_sgb_any_epsilon(n=120, eps_values=(0.3,), strategies=("index",))
        E.fig9_sgb_all_epsilon(n=120, eps_values=(0.3,), strategies=("index",))
        E.fig10_sgb_any_scale(sizes=(120,), strategies=("index",))
        E.table1_scaling_exponents(sizes=(100, 200))
        assert planner_spy == [], f"planner engaged by a pinned runner: {planner_spy}"


class TestOptimizerBypass:
    """The SQL figure/table runners must never enter the rewrite layer.

    ``_tpch_database`` builds its databases with ``optimizer=False``, and the
    gate in :meth:`Database._maybe_optimize` checks the setting *before*
    calling :func:`repro.minidb.plan.rewrite.optimize_plan` — so a spy on
    ``optimize_plan`` proves Table 2 / Figure 12 measure the un-rewritten
    reference plans.
    """

    @pytest.fixture()
    def optimizer_spy(self, monkeypatch):
        import repro.minidb.plan.rewrite as rewrite_mod

        calls = []
        real = rewrite_mod.optimize_plan

        def spy(plan):
            calls.append(type(plan).__name__)
            return real(plan)

        monkeypatch.setattr(rewrite_mod, "optimize_plan", spy)
        return calls

    def test_table2_never_enters_rewrite_layer(self, optimizer_spy):
        E.table2_tpch_queries(scale_factor=0.001)
        assert optimizer_spy == [], f"rewrite layer engaged: {optimizer_spy}"

    def test_fig12_never_enters_rewrite_layer(self, optimizer_spy):
        E.fig12_overhead(scale_factors=(0.001,))
        assert optimizer_spy == [], f"rewrite layer engaged: {optimizer_spy}"

    def test_spy_wiring_sees_an_optimized_query(self, optimizer_spy):
        """Counter-test: the spy does fire for an optimizer-on database, so
        the empty call lists above are meaningful."""
        from repro.minidb.database import Database

        db = Database(optimizer=True)
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        db.execute("SELECT x FROM t WHERE x > 1")
        assert optimizer_spy, "spy never fired — the bypass tests prove nothing"
