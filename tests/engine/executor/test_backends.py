"""Execution backends: differential equivalence + backend-specific paths."""

import numpy as np
import pytest

from repro import LMFAO, Aggregate, Query, QueryBatch
from repro.engine.executor import (
    CompiledBackend,
    GroupTask,
    InterpreterBackend,
    ProcessBackend,
    make_backend,
    partition_bounds,
    views_from_raw,
)

from ..helpers import WORKLOADS, assert_results_equal

BACKENDS = ["interpret", "compiled", "process"]


class TestDifferential:
    """All three backends produce identical BatchResults on every workload."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_backends_agree(self, toy_db, workload):
        batch = WORKLOADS[workload]()
        expected = LMFAO(toy_db, compile=False).run(batch)
        for backend in BACKENDS:
            with LMFAO(
                toy_db,
                backend=backend,
                n_threads=2,
                partition_threshold=50,  # force partitioning on 300 rows
            ) as engine:
                got = engine.run(batch)
            assert_results_equal(got, expected, batch)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_agree_on_dataset(self, tiny_favorita, backend):
        ds = tiny_favorita
        batch = QueryBatch(
            [
                Query("n", [], [Aggregate.count()]),
                Query("g", ["family"], [Aggregate.of("units", name="u")]),
            ]
        )
        expected = LMFAO(ds.database, ds.join_tree).run(batch)
        with LMFAO(
            ds.database,
            ds.join_tree,
            backend=backend,
            n_threads=2,
            partition_threshold=100,
        ) as engine:
            got = engine.run(batch)
        assert_results_equal(got, expected, batch, rtol=1e-8)


class TestMakeBackend:
    def test_default_follows_compile_knob(self):
        assert isinstance(
            make_backend(None, compile_enabled=True), CompiledBackend
        )
        backend = make_backend(None, compile_enabled=False)
        assert isinstance(backend, InterpreterBackend)
        assert not isinstance(backend, CompiledBackend)

    def test_names(self):
        assert make_backend("interpret").name == "interpret"
        assert make_backend("compiled").name == "compiled"
        assert make_backend("process").name == "process"

    def test_instance_passthrough(self):
        backend = InterpreterBackend()
        assert make_backend(backend) is backend

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("gpu")

    def test_process_worker_count(self):
        assert make_backend("process", n_threads=3).n_procs == 3

    def test_engine_accepts_backend_instance(self, toy_db):
        batch = WORKLOADS["counts"]()
        engine = LMFAO(toy_db, backend=InterpreterBackend())
        expected = LMFAO(toy_db).run(batch)
        assert_results_equal(engine.run(batch), expected, batch)


class TestCompiledFallback:
    def test_compiled_backend_interprets_uncompiled_plans(self, toy_db):
        # compile=False plans carry no compiled fns; the compiled
        # backend must fall back to interpretation, not crash
        batch = WORKLOADS["groupbys"]()
        engine = LMFAO(toy_db, compile=False, backend=CompiledBackend())
        expected = LMFAO(toy_db, compile=False).run(batch)
        assert_results_equal(engine.run(batch), expected, batch)


class TestProcessBackend:
    def test_small_relations_run_in_process(self, toy_db):
        backend = ProcessBackend(n_procs=2, partition_threshold=10**9)
        engine = LMFAO(toy_db, backend=backend)
        batch = WORKLOADS["counts"]()
        expected = LMFAO(toy_db).run(batch)
        assert_results_equal(engine.run(batch), expected, batch)
        assert backend._pool is None, "threshold not reached: no pool"
        engine.close()

    def test_close_is_idempotent(self, toy_db):
        engine = LMFAO(
            toy_db, backend="process", n_threads=2, partition_threshold=50
        )
        engine.run(WORKLOADS["counts"]())
        engine.close()
        engine.close()

    def test_non_picklable_udf_falls_back_in_process(self, toy_db):
        # closures don't pickle; the process backend must run such
        # groups in-process instead of crashing in the pool
        from repro.query.functions import Udf

        def double(units):
            return 2.0 * units

        batch = QueryBatch(
            [
                Query(
                    "udf_sum",
                    ["city"],
                    [Aggregate.of(Udf(["units"], double, name="dbl"))],
                ),
                Query("n", [], [Aggregate.count()]),
            ]
        )
        expected = LMFAO(toy_db).run(batch)
        with LMFAO(
            toy_db, backend="process", n_threads=2, partition_threshold=50
        ) as engine:
            got = engine.run(batch)
        assert_results_equal(got, expected, batch)

    def test_process_spec_forces_codegen(self, toy_db):
        # the process backend executes generated source, so compile=False
        # must not leave the plan uncompiled
        engine = LMFAO(toy_db, compile=False, backend="process")
        plan = engine.plan(WORKLOADS["counts"]())
        assert all(fn is not None for fn in plan.compiled_fns)


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


class TestPartitioning:
    def test_partition_bounds_cover_all_rows(self):
        for n_rows, n_parts in [(10, 3), (2, 5), (0, 4), (100, 1)]:
            bounds = partition_bounds(n_rows, n_parts)
            assert sum(hi - lo for lo, hi in bounds) == n_rows
            assert all(lo < hi for lo, hi in bounds)
            for (_, prev_hi), (lo, _) in zip(bounds, bounds[1:]):
                assert prev_hi == lo

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
