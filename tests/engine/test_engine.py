"""End-to-end engine tests: differential vs the materialized baseline."""

import numpy as np
import pytest

from repro import LMFAO, Aggregate, Delta, Identity, Power, Product, Query, QueryBatch
from repro.baselines import MaterializedEngine

from .helpers import assert_results_equal


def standard_batch():
    return QueryBatch(
        [
            Query("count", [], [Aggregate.count()]),
            Query("sum_units", [], [Aggregate.of("units", name="s")]),
            Query(
                "by_city",
                ["city"],
                [
                    Aggregate.of("units", "price", name="up"),
                    Aggregate.count(name="n"),
                ],
            ),
            Query(
                "by_city_store",
                ["city", "store"],
                [Aggregate.of("units", name="u")],
            ),
            Query(
                "delta",
                [],
                [Aggregate.of(Delta("price", "<=", 50.0), "units", name="du")],
            ),
            Query(
                "square",
                ["store"],
                [Aggregate.of(Power("units", 2), name="uu")],
            ),
            Query(
                "sum_of_products",
                [],
                [
                    Aggregate(
                        [
                            Product(["units"], coefficient=2.0),
                            Product(["price"], coefficient=-1.0),
                        ],
                        name="mix",
                    )
                ],
            ),
        ]
    )


class TestAgainstMaterialized:
    def test_standard_batch(self, toy_db):
        batch = standard_batch()
        got = LMFAO(toy_db).run(batch)
        expected = MaterializedEngine(toy_db).run(batch)
        assert_results_equal(got, expected, batch)

    def test_group_by_attr_from_two_relations(self, toy_db):
        batch = QueryBatch(
            [
                Query(
                    "cross_group",
                    ["city", "date"],
                    [Aggregate.of("units", name="u")],
                )
            ]
        )
        got = LMFAO(toy_db).run(batch)
        expected = MaterializedEngine(toy_db).run(batch)
        assert_results_equal(got, expected, batch)

    def test_function_spanning_relations(self, toy_db):
        from repro import Udf

        f = Udf(["units", "price"], lambda u, p: u * p + 1.0, name="up1")
        batch = QueryBatch(
            [Query("span", ["city"], [Aggregate.of(f, name="v")])]
        )
        got = LMFAO(toy_db).run(batch)
        expected = MaterializedEngine(toy_db).run(batch)
        assert_results_equal(got, expected, batch)

    def test_chain_database(self, chain_db):
        batch = QueryBatch(
            [
                Query("count", [], [Aggregate.count()]),
                Query("by_a", ["a"], [Aggregate.count(name="n")]),
                Query("by_e", ["e"], [Aggregate.count(name="n")]),
                Query("by_ae", ["a", "e"], [Aggregate.count(name="n")]),
                Query("by_c", ["c"], [Aggregate.count(name="n")]),
            ]
        )
        got = LMFAO(chain_db).run(batch)
        expected = MaterializedEngine(chain_db).run(batch)
        assert_results_equal(got, expected, batch)

    def test_many_to_many(self, manytomany_db):
        batch = QueryBatch(
            [
                Query("count", [], [Aggregate.count()]),
                Query("by_tag", ["tag"], [Aggregate.of("stars", name="s")]),
                Query(
                    "by_biz", ["biz"], [Aggregate.of("stars", name="s")]
                ),
            ]
        )
        got = LMFAO(manytomany_db).run(batch)
        expected = MaterializedEngine(manytomany_db).run(batch)
        assert_results_equal(got, expected, batch)

    @pytest.mark.parametrize(
        "dataset_fixture",
        ["tiny_favorita", "tiny_retailer", "tiny_yelp", "tiny_tpcds"],
    )
    def test_all_datasets_counts_and_groups(self, dataset_fixture, request):
        dataset = request.getfixturevalue(dataset_fixture)
        group_attr = dataset.categorical_features[0]
        measure = dataset.continuous_features[0]
        batch = QueryBatch(
            [
                Query("count", [], [Aggregate.count()]),
                Query(
                    "grouped", [group_attr], [Aggregate.of(measure, name="m")]
                ),
            ]
        )
        got = LMFAO(dataset.database, dataset.join_tree).run(batch)
        expected = MaterializedEngine(dataset.database).run(batch)
        assert_results_equal(got, expected, batch, rtol=1e-8)


class TestModes:
    @pytest.mark.parametrize("compile_", [True, False])
    @pytest.mark.parametrize("multi_root", [True, False])
    @pytest.mark.parametrize("merge_mode", ["full", "dedup", "none"])
    def test_all_mode_combinations_agree(
        self, toy_db, compile_, multi_root, merge_mode
    ):
        batch = standard_batch()
        reference = MaterializedEngine(toy_db).run(batch)
        engine = LMFAO(
            toy_db,
            compile=compile_,
            multi_root=multi_root,
            merge_mode=merge_mode,
        )
        assert_results_equal(engine.run(batch), reference, batch)

    def test_group_views_disabled_agrees(self, toy_db):
        batch = standard_batch()
        reference = MaterializedEngine(toy_db).run(batch)
        engine = LMFAO(toy_db, group_views=False)
        assert_results_equal(engine.run(batch), reference, batch)

    def test_unsorted_inputs_agree(self, toy_db):
        batch = standard_batch()
        reference = MaterializedEngine(toy_db).run(batch)
        engine = LMFAO(toy_db, sort_inputs=False)
        assert_results_equal(engine.run(batch), reference, batch)


class TestPlanCache:
    def test_same_structure_hits_cache(self, toy_db):
        engine = LMFAO(toy_db)
        batch = standard_batch()
        plan1 = engine.plan(batch)
        plan2 = engine.plan(standard_batch())
        assert plan1 is plan2

    def test_same_shape_under_another_name_gets_its_own_plan(self, toy_db):
        # a plan's outputs are bound to query names: serving the second
        # batch from the first one's plan used to raise KeyError: 'b'
        engine = LMFAO(toy_db)

        def batch_for(query_name, aggregate_name):
            return QueryBatch(
                [
                    Query(
                        query_name,
                        [],
                        [Aggregate.of("units", name=aggregate_name)],
                    )
                ]
            )

        first = engine.run(batch_for("a", "s"))
        second = engine.run(batch_for("b", "s"))
        assert list(second) == ["b"]
        assert second["b"].column("s")[0] == first["a"].column("s")[0]
        assert len(engine._plan_cache) == 2
        # aggregate names are read off the batch, not the plan: a new
        # one neither needs a new plan nor leaks the old name
        renamed = engine.run(batch_for("b", "total"))
        assert len(engine._plan_cache) == 2
        assert renamed["b"].schema.names == ("total",)

    def test_dynamic_rebinding(self, toy_db):
        engine = LMFAO(toy_db)

        def batch_for(threshold):
            d = Delta("price", "<=", threshold, dynamic=True)
            return QueryBatch(
                [Query("q", [], [Aggregate.of(d, "units", name="v")])]
            )

        first = engine.run(batch_for(45.0))
        plan_count = len(engine._plan_cache)
        second = engine.run(batch_for(55.0))
        assert len(engine._plan_cache) == plan_count  # reused
        expected1 = MaterializedEngine(toy_db).run(batch_for(45.0))
        expected2 = MaterializedEngine(toy_db).run(batch_for(55.0))
        assert np.isclose(
            first["q"].column("v")[0], expected1["q"].column("v")[0]
        )
        assert np.isclose(
            second["q"].column("v")[0], expected2["q"].column("v")[0]
        )
        assert not np.isclose(
            first["q"].column("v")[0], second["q"].column("v")[0]
        )

    def test_two_dynamic_functions_same_value_stay_distinct(self, toy_db):
        engine = LMFAO(toy_db)

        def batch_for(t1, t2):
            d1 = Delta("price", "<=", t1, dynamic=True)
            d2 = Delta("units", "<=", t2, dynamic=True)
            return QueryBatch(
                [
                    Query("q1", [], [Aggregate.of(d1, name="v")]),
                    Query("q2", [], [Aggregate.of(d2, name="v")]),
                ]
            )

        got = engine.run(batch_for(50.0, 50.0))
        got2 = engine.run(batch_for(40.0, 12.0))
        reference = MaterializedEngine(toy_db)
        expected2 = reference.run(batch_for(40.0, 12.0))
        assert np.isclose(
            got2["q1"].column("v")[0], expected2["q1"].column("v")[0]
        )
        assert np.isclose(
            got2["q2"].column("v")[0], expected2["q2"].column("v")[0]
        )


class TestValidation:
    def test_unknown_attribute_rejected(self, toy_db):
        engine = LMFAO(toy_db)
        batch = QueryBatch(
            [Query("bad", ["nonexistent"], [Aggregate.count()])]
        )
        with pytest.raises(ValueError, match="unknown attribute"):
            engine.run(batch)

    def test_result_schema_follows_query(self, toy_db):
        engine = LMFAO(toy_db)
        batch = QueryBatch(
            [
                Query(
                    "q",
                    ["city", "store"],
                    [Aggregate.of("units", name="total")],
                )
            ]
        )
        result = engine.run(batch)["q"]
        assert result.attribute_names == ("city", "store", "total")

    def test_timings_populated(self, toy_db):
        result = LMFAO(toy_db).run(standard_batch())
        assert result.plan_seconds >= 0.0
        assert result.execute_seconds > 0.0
