"""The Compilation layer: generated source properties, and the rendered
source's equivalence with the interpreter that runs the same steps."""

import numpy as np

from repro import LMFAO, Aggregate, Delta, Query, QueryBatch, Udf
from repro.baselines import MaterializedEngine

from .helpers import (
    assert_results_equal,
    assert_results_identical,
    run_rendered,
)


def batch_with_everything():
    return QueryBatch(
        [
            Query("count", [], [Aggregate.count()]),
            Query(
                "static_delta",
                ["city"],
                [Aggregate.of(Delta("price", "<=", 50.0), name="d")],
            ),
            Query(
                "dynamic_delta",
                [],
                [
                    Aggregate.of(
                        Delta("units", "<=", 10.0, dynamic=True), name="v"
                    )
                ],
            ),
            Query("grouped", ["store"], [Aggregate.of("units", name="u")]),
        ]
    )


class TestGeneratedSource:
    def test_source_compiles_per_group(self, toy_db):
        engine = LMFAO(toy_db)
        plan = engine.plan(batch_with_everything())
        source = plan.generated_source()
        for group_plan in plan.group_plans:
            assert f"group_fn_{group_plan.group.id}" in source
        compile(source, "<test>", "exec")

    def test_static_functions_inlined(self, toy_db):
        engine = LMFAO(toy_db)
        plan = engine.plan(batch_with_everything())
        source = plan.generated_source()
        assert "<= 50.0" in source  # static delta inlined as expression

    def test_dynamic_functions_called_through_table(self, toy_db):
        engine = LMFAO(toy_db)
        plan = engine.plan(batch_with_everything())
        source = plan.generated_source()
        assert "dyn[0].evaluate(" in source
        assert "<= 10.0" not in source  # dynamic value NOT inlined

    def test_udf_goes_through_dyn_table(self, toy_db):
        f = Udf(["units"], lambda u: u * 2.0, name="double")
        batch = QueryBatch([Query("q", [], [Aggregate.of(f, name="v")])])
        engine = LMFAO(toy_db)
        source = engine.plan(batch).generated_source()
        assert "dyn[0].evaluate(" in source

    def test_shared_products_are_single_assignments(self, toy_db):
        # two aggregates sharing the factor units*price: the product must
        # appear as one local variable, reused
        batch = QueryBatch(
            [
                Query(
                    "q",
                    ["store"],
                    [
                        Aggregate.of("units", "price", name="a1"),
                        Aggregate.of("units", "price", "price", name="a2"),
                    ],
                )
            ]
        )
        engine = LMFAO(toy_db)
        plan = engine.plan(batch)
        # within each group function, every variable is assigned exactly
        # once (SSA style); variable names restart per function
        from repro.engine import codegen

        for group_plan in plan.group_plans:
            source = codegen.render_source(group_plan)
            assignments = [
                line.strip().split(" = ")[0]
                for line in source.splitlines()
                if " = " in line and not line.strip().startswith("#")
            ]
            single_assign = [
                a for a in assignments if "," not in a and a != "out"
            ]
            assert len(single_assign) == len(set(single_assign))

    def test_describe_is_readable(self, toy_db):
        engine = LMFAO(toy_db)
        plan = engine.plan(batch_with_everything())
        text = plan.describe()
        assert "group" in text and "@" in text


class TestEquivalence:
    def test_rendered_equals_interpreted(self, toy_db):
        batch = batch_with_everything()
        engine = LMFAO(toy_db)
        assert_results_identical(run_rendered(engine, batch), engine.run(batch))

    def test_rendered_equals_materialized_on_datasets(self, tiny_yelp):
        ds = tiny_yelp
        batch = QueryBatch(
            [
                Query("n", [], [Aggregate.count()]),
                Query(
                    "g",
                    ["category"],
                    [Aggregate.of("stars", name="s")],
                ),
            ]
        )
        got = run_rendered(LMFAO(ds.database, ds.join_tree), batch)
        expected = MaterializedEngine(ds.database).run(batch)
        assert_results_equal(got, expected, batch)

    def test_replanning_not_needed_for_dynamic_change(self, toy_db):
        engine = LMFAO(toy_db)

        def make(threshold):
            return QueryBatch(
                [
                    Query(
                        "q",
                        [],
                        [
                            Aggregate.of(
                                Delta("units", "<=", threshold, dynamic=True),
                                name="v",
                            )
                        ],
                    )
                ]
            )

        plan_a = engine.plan(make(5.0))
        plan_b = engine.plan(make(15.0))
        assert plan_a is plan_b  # same plan re-bound, not rebuilt
        r5 = engine.run(make(5.0))["q"].column("v")[0]
        r15 = engine.run(make(15.0))["q"].column("v")[0]
        assert r5 < r15
