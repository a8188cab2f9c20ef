"""SQL rendering and EXPLAIN output of LMFAO plans."""

import pytest

from repro import LMFAO, Aggregate, Delta, Query, QueryBatch, Udf
from repro.engine.explain import explain
from repro.engine.sql import function_sql, render_batch_sql, view_name
from repro.query.functions import Exp, Identity, Log, Power


@pytest.fixture
def plan(toy_db):
    engine = LMFAO(toy_db)
    batch = QueryBatch(
        [
            Query("n", [], [Aggregate.count()]),
            Query(
                "g",
                ["city"],
                [Aggregate.of("units", Delta("price", "<=", 50.0), name="u")],
            ),
        ]
    )
    return engine, engine.plan(batch)


class TestFunctionSql:
    def test_identity(self):
        assert function_sql(Identity("x")) == "x"

    def test_power(self):
        assert function_sql(Power("x", 2)) == "POWER(x, 2)"
        assert function_sql(Power("x", 1)) == "x"

    def test_delta_case_expression(self):
        sql = function_sql(Delta("x", "<=", 3.0))
        assert "CASE WHEN x <= 3.0" in sql

    def test_delta_not_equal_uses_sql_operator(self):
        assert "x <> 3.0" in function_sql(Delta("x", "!=", 3.0))

    def test_delta_in(self):
        sql = function_sql(Delta("x", "in", [1, 2]))
        assert "x IN (1, 2)" in sql

    def test_log_exp(self):
        assert function_sql(Log("x")) == "LN(x)"
        assert "EXP(" in function_sql(Exp(["x"], [0.5]))

    def test_udf_rendered_as_call(self):
        f = Udf(["x", "y"], lambda x, y: x + y, name="my_udf")
        assert function_sql(f) == "my_udf(x, y)"


class TestRenderBatch:
    def test_script_contains_all_views(self, plan):
        engine, engine_plan = plan
        script = render_batch_sql(engine_plan.decomposed)
        for view in engine_plan.decomposed.views:
            assert view_name(view) in script

    def test_views_created_before_use(self, plan):
        """Dependency order: every CREATE VIEW precedes its references."""
        _, engine_plan = plan
        script = render_batch_sql(engine_plan.decomposed)
        for view in engine_plan.decomposed.views:
            if view.is_output:
                continue
            name = view_name(view)
            create_pos = script.index(f"CREATE VIEW {name}")
            use_marker = f"{name}.agg"
            if use_marker in script:
                assert create_pos < script.index(use_marker)

    def test_group_by_clause_present(self, plan):
        _, engine_plan = plan
        script = render_batch_sql(engine_plan.decomposed)
        assert "GROUP BY" in script

    def test_delta_rendered_inline(self, plan):
        _, engine_plan = plan
        script = render_batch_sql(engine_plan.decomposed)
        assert "CASE WHEN price <= 50.0" in script

    def test_header_counts(self, plan):
        _, engine_plan = plan
        script = render_batch_sql(engine_plan.decomposed)
        assert f"{engine_plan.decomposed.n_views} views" in script


class TestExplain:
    def test_sections_present(self, plan, toy_db):
        engine, engine_plan = plan
        text = explain(engine_plan, engine.join_tree)
        for section in (
            "join tree:",
            "roots (Find Roots layer):",
            "directional views",
            "view groups",
            "sharing summary:",
        ):
            assert section in text

    def test_mentions_all_nodes(self, plan):
        engine, engine_plan = plan
        text = explain(engine_plan, engine.join_tree)
        for node in engine.join_tree.nodes:
            assert node in text

    def test_group_levels_cover_all_groups(self, plan):
        engine, engine_plan = plan
        text = explain(engine_plan, engine.join_tree)
        for group in engine_plan.grouped.groups:
            assert f"group {group.id} @" in text

    def test_groups_show_aggregates_and_row_level_sums(self, tiny_retailer):
        from repro.ml import CARTLearner

        ds = tiny_retailer
        engine = LMFAO(ds.database, ds.join_tree)
        batch = CARTLearner(
            engine,
            [f for f in ds.continuous_features if f != ds.label],
            list(ds.categorical_features),
            ds.label,
            "regression",
        ).node_batch([])
        text = explain(engine.plan(batch), engine.join_tree)
        group_lines = [
            line for line in text.splitlines() if "row-level sums:" in line
        ]
        assert len(group_lines) == len(engine.plan(batch).grouped.groups)
        # the Inventory group's covered views multiply 63 shared sums
        assert any(
            "@ Inventory" in line and line.endswith("1032 -> 63")
            for line in group_lines
        )
        # a group with no covered view sums once per aggregate
        assert any(line.endswith("248 -> 248") for line in group_lines)

    def test_groups_show_their_row_level_products(self, tiny_retailer):
        from repro.engine.plan import MulStep
        from repro.ml import CARTLearner

        from .test_post_sum_factors import row_products

        ds = tiny_retailer
        engine = LMFAO(ds.database, ds.join_tree)
        batch = CARTLearner(
            engine,
            [f for f in ds.continuous_features if f != ds.label],
            list(ds.categorical_features),
            ds.label,
            "regression",
        ).node_batch([])
        plan = engine.plan(batch)
        shown = [
            int(line.split("row-level products: ")[1].split()[0])
            for line in explain(plan, engine.join_tree).splitlines()
            if "row-level products:" in line
        ]
        # the multiplies a group's row-level sums read, traced back from
        # each sum's values; the per-group ones after a sum are not
        assert shown == [len(row_products(p)) for p in plan.group_plans]
        assert max(shown) > 0
        # covered views multiply per group, after the sum: not counted
        n_multiplies = sum(
            isinstance(s, MulStep) for p in plan.group_plans for s in p.steps
        )
        assert sum(shown) < n_multiplies
