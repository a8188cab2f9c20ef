"""Execution backends: interpret == compiled, and what ``compile`` selects."""

import numpy as np
import pytest

from repro import (
    LMFAO,
    Aggregate,
    IncrementalEngine,
    Query,
    QueryBatch,
    WorkloadSession,
)
from repro.engine.executor import (
    CompiledBackend,
    InterpreterBackend,
    views_from_raw,
)

from ..helpers import WORKLOADS, assert_results_equal


class TestDifferential:
    """Interpreted and compiled execution agree on every workload."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_backends_agree(self, toy_db, workload):
        batch = WORKLOADS[workload]()
        expected = LMFAO(toy_db, compile=False).run(batch)
        got = LMFAO(toy_db, compile=True).run(batch)
        assert_results_equal(got, expected, batch)

    @pytest.mark.parametrize(
        "dataset_fixture",
        ["tiny_favorita", "tiny_retailer", "tiny_yelp", "tiny_tpcds"],
    )
    def test_backends_agree_on_dataset(self, request, dataset_fixture):
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
        expected = LMFAO(ds.database, ds.join_tree, compile=False).run(batch)
        got = LMFAO(ds.database, ds.join_tree, compile=True).run(batch)
        assert_results_equal(got, expected, batch, rtol=1e-8)

    def test_backends_agree_on_a_chain(self, chain_db):
        batch = QueryBatch(
            [
                Query("n", [], [Aggregate.count()]),
                Query("by_a", ["a"], [Aggregate.count(name="n")]),
                Query("by_ae", ["a", "e"], [Aggregate.count(name="n")]),
            ]
        )
        expected = LMFAO(chain_db, compile=False).run(batch)
        got = LMFAO(chain_db, compile=True).run(batch)
        assert_results_equal(got, expected, batch)

    def test_backends_agree_on_a_many_to_many_join(self, manytomany_db):
        batch = QueryBatch(
            [
                Query("n", [], [Aggregate.count()]),
                Query("by_tag", ["tag"], [Aggregate.of("stars", name="s")]),
            ]
        )
        expected = LMFAO(manytomany_db, compile=False).run(batch)
        got = LMFAO(manytomany_db, compile=True).run(batch)
        assert_results_equal(got, expected, batch)


#: the LMFAO engine each front end builds for a given ``compile`` flag
FRONT_ENDS = {
    "IncrementalEngine": lambda db, flag: IncrementalEngine(
        db, compile=flag
    ).engine,
    "WorkloadSession": lambda db, flag: WorkloadSession(
        db, compile=flag
    ).engine,
}


class TestCompileKnob:
    def test_compile_selects_the_backend(self, toy_db):
        assert isinstance(LMFAO(toy_db).backend, CompiledBackend)
        backend = LMFAO(toy_db, compile=False).backend
        assert isinstance(backend, InterpreterBackend)
        assert not isinstance(backend, CompiledBackend)

    @pytest.mark.parametrize("front_end", sorted(FRONT_ENDS))
    @pytest.mark.parametrize("compile_flag", [False, True])
    def test_compile_selects_the_backend_of_every_front_end(
        self, toy_db, front_end, compile_flag
    ):
        engine = FRONT_ENDS[front_end](toy_db, compile_flag)
        expected = "compiled" if compile_flag else "interpret"
        assert engine.backend.name == expected
        assert engine.compile_enabled is compile_flag

    @pytest.mark.parametrize(
        "knob", [("n_threads", 2), ("partition_threshold", 50),
                 ("backend", "process")],
        ids=["n_threads", "partition_threshold", "backend"],
    )
    def test_removed_executor_knobs_are_rejected(self, toy_db, knob):
        name, value = knob
        for cls in (LMFAO, IncrementalEngine):
            with pytest.raises(TypeError, match=name):
                cls(toy_db, **{name: value})

    @pytest.mark.parametrize("compile_flag", [False, True])
    def test_plans_carry_code_exactly_when_compiled(
        self, toy_db, compile_flag
    ):
        plan = LMFAO(toy_db, compile=compile_flag).plan(WORKLOADS["counts"]())
        assert plan.compiled_fns
        assert all(
            (fn is not None) == compile_flag for fn in plan.compiled_fns
        )


class TestEngineEviction:
    def test_plain_run_evicts_interior_views(self, toy_db):
        engine = LMFAO(toy_db)
        batch = WORKLOADS["groupbys"]()
        plan = engine.plan(batch)
        store = engine.execute(plan, [])
        outputs = plan.output_view_ids()
        interior = set(plan.view_consumers()) - outputs
        assert interior, "workload should produce interior views"
        assert store.evicted == interior
        for vid in outputs:
            assert vid in store

    def test_interpreted_run_evicts_the_same_views(self, toy_db):
        batch = WORKLOADS["groupbys"]()
        stores = []
        for flag in (False, True):
            engine = LMFAO(toy_db, compile=flag)
            stores.append(engine.execute(engine.plan(batch), []))
        interpreted, compiled = stores
        assert interpreted.evicted == compiled.evicted
        assert set(interpreted) == set(compiled)


class TestGroupEntry:
    """Every planned group, compiled or not, enters ``run_group`` once."""

    @pytest.mark.parametrize("compile_flag", [False, True])
    def test_every_group_enters_run_group(
        self, toy_db, monkeypatch, compile_flag
    ):
        entered = []
        original = InterpreterBackend.run_group

        def counting(self, task):
            entered.append(task.plan.group.id)
            return original(self, task)

        monkeypatch.setattr(InterpreterBackend, "run_group", counting)
        batch = WORKLOADS["covar_style"]()
        engine = LMFAO(toy_db, compile=compile_flag)
        plan = engine.plan(batch)
        engine.run(batch)
        assert sorted(entered) == sorted(
            group_plan.group.id for group_plan in plan.group_plans
        )


class TestViewsFromRaw:
    def test_views_from_raw_three_and_four_tuples(self):
        raw = {
            0: ((), [], [np.array([1.0])]),
            1: (
                ("g",),
                [np.array([0, 1])],
                [np.array([1.0, 2.0])],
                np.array([2.0, 1.0]),
            ),
        }
        views = views_from_raw(raw)
        assert views[0].support is None
        assert views[1].support.tolist() == [2.0, 1.0]
        assert views[1].agg_cols[0].dtype == np.float64
