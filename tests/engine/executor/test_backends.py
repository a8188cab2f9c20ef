"""The execution backend: one way to run a group plan.

The interpreter is the only executor; the Compilation layer's rendered
source is held to it bit for bit, and the executor settings the engines
used to take are gone.
"""

import pytest

from repro import (
    LMFAO,
    Aggregate,
    AnalyticsService,
    IncrementalEngine,
    Query,
    QueryBatch,
)
from repro.__main__ import main
from repro.engine.executor import InterpreterBackend

from ..helpers import WORKLOADS, assert_results_identical, run_rendered


class TestDifferential:
    """Rendered source == ``execute_plan``, bit for bit, on every workload."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_rendered_source_agrees(self, toy_db, workload):
        batch = WORKLOADS[workload]()
        engine = LMFAO(toy_db)
        assert_results_identical(run_rendered(engine, batch), engine.run(batch))

    @pytest.mark.parametrize(
        "dataset_fixture",
        ["tiny_favorita", "tiny_retailer", "tiny_yelp", "tiny_tpcds"],
    )
    def test_rendered_source_agrees_on_dataset(self, request, dataset_fixture):
        ds = request.getfixturevalue(dataset_fixture)
        group_attr = ds.categorical_features[0]
        x, y = ds.continuous_features[:2]
        batch = QueryBatch(
            [
                Query("n", [], [Aggregate.count()]),
                Query("g", [group_attr], [Aggregate.of(x, name="u")]),
                Query("xy", [], [Aggregate.of(x, y, name="s")]),
            ]
        )
        engine = LMFAO(ds.database, ds.join_tree)
        assert_results_identical(run_rendered(engine, batch), engine.run(batch))

    def test_rendered_source_agrees_on_a_chain(self, chain_db):
        batch = QueryBatch(
            [
                Query("n", [], [Aggregate.count()]),
                Query("by_a", ["a"], [Aggregate.count(name="n")]),
                Query("by_ae", ["a", "e"], [Aggregate.count(name="n")]),
            ]
        )
        engine = LMFAO(chain_db)
        assert_results_identical(run_rendered(engine, batch), engine.run(batch))

    def test_rendered_source_agrees_on_a_many_to_many_join(self, manytomany_db):
        batch = QueryBatch(
            [
                Query("n", [], [Aggregate.count()]),
                Query("by_tag", ["tag"], [Aggregate.of("stars", name="s")]),
            ]
        )
        engine = LMFAO(manytomany_db)
        assert_results_identical(run_rendered(engine, batch), engine.run(batch))

    @pytest.mark.parametrize("group_views", [True, False])
    @pytest.mark.parametrize("multi_root", [True, False])
    @pytest.mark.parametrize("merge_mode", ["full", "dedup", "none"])
    def test_rendered_source_agrees_under_every_layer_setting(
        self, toy_db, merge_mode, multi_root, group_views
    ):
        # each setting plans differently shaped groups, so each renders
        # different source
        batch = QueryBatch(
            [query for factory in WORKLOADS.values() for query in factory()]
        )
        engine = LMFAO(
            toy_db,
            merge_mode=merge_mode,
            multi_root=multi_root,
            group_views=group_views,
        )
        assert_results_identical(run_rendered(engine, batch), engine.run(batch))


class TestCompileKnob:
    """No executor setting is left to choose."""

    @pytest.mark.parametrize(
        "name, value",
        [
            ("compile", True),
            ("n_threads", 2),
            ("partition_threshold", 50),
            ("backend", "process"),
        ],
        ids=["compile", "n_threads", "partition_threshold", "backend"],
    )
    def test_removed_executor_knobs_are_rejected(self, toy_db, name, value):
        with pytest.raises(TypeError, match=name):
            IncrementalEngine(toy_db, **{name: value})
        if name != "compile":  # LMFAO still accepts it, see below
            with pytest.raises(TypeError, match=name):
                LMFAO(toy_db, **{name: value})

    @pytest.mark.parametrize(
        "command",
        [["run", "favorita", "covar"], ["serve", "favorita"]],
        ids=["run", "serve"],
    )
    def test_backend_flag_is_rejected(self, command):
        with pytest.raises(SystemExit):
            main([*command, "--backend", "interpret"])

    def test_legacy_spellings_construct_and_plan_no_code(self, toy_db):
        batch = WORKLOADS["counts"]()
        engines = [LMFAO(toy_db, compile=flag) for flag in (False, True)]
        with AnalyticsService(backend="compiled") as service:
            service.register_dataset("toy", toy_db)
            service.register_workload("toy", "counts", batch)
            engines.append(service._state("toy").engine)
            for engine in engines:
                assert type(engine.backend) is InterpreterBackend
                plan = engine.plan(batch)
                assert not hasattr(plan, "compiled_fns")
                assert not any(
                    callable(value) for value in vars(plan).values()
                )


class TestEngineEviction:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_plain_run_evicts_interior_views(self, toy_db, workload):
        engine = LMFAO(toy_db)
        batch = WORKLOADS[workload]()
        plan = engine.plan(batch)
        store = engine.execute(plan, [])
        outputs = plan.output_view_ids()
        interior = set(plan.view_consumers()) - outputs
        assert interior, "workload should produce interior views"
        assert store.evicted == interior
        for vid in outputs:
            assert vid in store


class TestGroupEntry:
    """Every planned group enters ``run_group`` once."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_every_group_enters_run_group(self, toy_db, monkeypatch, workload):
        entered = []
        original = InterpreterBackend.run_group

        def counting(self, task):
            entered.append(task.plan.group.id)
            return original(self, task)

        monkeypatch.setattr(InterpreterBackend, "run_group", counting)
        batch = WORKLOADS[workload]()
        engine = LMFAO(toy_db)
        plan = engine.plan(batch)
        engine.run(batch)
        assert sorted(entered) == sorted(
            group_plan.group.id for group_plan in plan.group_plans
        )
