"""The executor: one way to run a group plan, one loop over the groups.

The interpreter is the only executor; the Compilation layer's rendered
source is held to it bit for bit, and the executor settings the engines
used to take are gone.  The groups run front to back, each view is
dropped after the last group that reads it, and with a view cache a
dropped miss is admitted to the cache.
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
from repro.engine.viewcache import ViewCache

from ..helpers import (
    WORKLOADS,
    assert_results_identical,
    output_view_ids,
    run_rendered,
)


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


class TestWhatExecuteLeaves:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_execute_leaves_exactly_the_output_views(self, toy_db, workload):
        engine = LMFAO(toy_db)
        batch = WORKLOADS[workload]()
        plan = engine.plan(batch)
        views, report = engine.execute(plan, [])
        outputs = output_view_ids(plan)
        interior = {view.id for view in plan.decomposed.views} - outputs
        assert interior, "workload should produce interior views"
        assert set(views) == outputs
        assert report is None


class TestGroupEntry:
    """Every planned group enters ``run_group`` once, front to back."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_every_group_enters_run_group(self, toy_db, monkeypatch, workload):
        entered = []
        original = InterpreterBackend.run_group

        def counting(self, plan, relation, incoming, dyn=()):
            entered.append(plan.group.id)
            return original(self, plan, relation, incoming, dyn)

        monkeypatch.setattr(InterpreterBackend, "run_group", counting)
        batch = WORKLOADS[workload]()
        engine = LMFAO(toy_db)
        plan = engine.plan(batch)
        engine.run(batch)
        assert entered == [
            group_plan.group.id for group_plan in plan.group_plans
        ]


class TestCacheHandoff:
    """With a view cache, a cold run admits every cacheable miss once,
    dropped interior views included; a warm rerun admits nothing and
    runs no group."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_cold_run_puts_each_miss_once_warm_run_puts_none(
        self, toy_db, monkeypatch, workload
    ):
        puts, entered = [], []
        put, run_group = ViewCache.put, InterpreterBackend.run_group

        def counting_put(self, sig, data, recipe=None, *, database=None):
            puts.append(sig.digest)
            return put(self, sig, data, recipe, database=database)

        def counting_run_group(self, plan, relation, incoming, dyn=()):
            entered.append(plan.group.id)
            return run_group(self, plan, relation, incoming, dyn)

        monkeypatch.setattr(ViewCache, "put", counting_put)
        monkeypatch.setattr(
            InterpreterBackend, "run_group", counting_run_group
        )
        cache = ViewCache()
        engine = LMFAO(toy_db, view_cache=cache)
        batch = WORKLOADS[workload]()
        plan = engine.plan(batch)
        sigs = engine.view_signatures_for(plan, batch.dynamic_functions())
        cold = engine.run(batch)
        events = cold.cache_report.events
        misses = [vid for vid, event in events.items() if event == "miss"]
        assert sorted(misses) == sorted(
            vid for vid, sig in sigs.items() if sig.cacheable
        )
        assert sorted(puts) == sorted(sigs[vid].digest for vid in misses)
        interior = {
            view.id for view in plan.decomposed.views
        } - output_view_ids(plan)
        cacheable_interior = [
            vid for vid in interior if sigs[vid].cacheable
        ]
        assert cacheable_interior, "workload should cache interior views"
        for vid in cacheable_interior:
            assert sigs[vid].digest in cache, vid

        puts.clear()
        entered.clear()
        warm = engine.run(batch)
        assert puts == [] and entered == []
        report = warm.cache_report
        assert report.skipped_groups == report.total_groups == len(
            plan.group_plans
        )
        assert_results_identical(warm, cold)


class TestLegacyModules:
    def test_legacy_parallel_module_is_gone(self):
        # the deprecated repro.engine.parallel shim was removed; the one
        # home of the merge delta repair folds views with is the cache
        with pytest.raises(ModuleNotFoundError):
            import repro.engine.parallel  # noqa: F401
