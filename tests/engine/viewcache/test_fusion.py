"""WorkloadSession: fused execution matches independent runs exactly.

The acceptance differential: a fused covar + linreg + trees session
returns results ``allclose``-identical to three independent
``LMFAO.run`` calls.
"""

import pytest

from repro import LMFAO, ViewCache, WorkloadSession
from repro.engine.viewcache import FusedBatch
from repro.ml import CovarBatch
from repro.ml.trees import CARTLearner

from ..helpers import assert_results_equal


def build_workloads(ds):
    """covar + linreg + trees over a restricted feature set (kept small
    so they plan quickly in the fast lane)."""
    continuous, categorical, label = ds.regression_spec()
    continuous, categorical = continuous[:3], categorical[:2]
    learner = CARTLearner(
        LMFAO(ds.database, ds.join_tree),
        continuous[:2],
        categorical[:1],
        label,
        "regression",
        n_buckets=6,
    )
    return {
        "covar": CovarBatch(continuous, categorical, label).batch,
        "linreg": CovarBatch(continuous, [], label).batch,
        "trees": learner.node_batch([]),
    }


@pytest.fixture(scope="module")
def workloads(tiny_retailer):
    return build_workloads(tiny_retailer)


class TestFusedMatchesIndependent:
    def test_differential(self, tiny_retailer, workloads):
        ds = tiny_retailer
        engine = LMFAO(ds.database, ds.join_tree)
        independent = {
            name: engine.run(batch) for name, batch in workloads.items()
        }
        with WorkloadSession(ds.database, ds.join_tree) as session:
            for name, batch in workloads.items():
                session.add_workload(name, batch)
            fused = session.run()
        for name, batch in workloads.items():
            assert_results_equal(
                fused[name], independent[name], batch, rtol=1e-9
            )

    def test_fusion_dedupes_views(self, tiny_retailer, workloads):
        with WorkloadSession(
            tiny_retailer.database, tiny_retailer.join_tree
        ) as session:
            for name, batch in workloads.items():
                session.add_workload(name, batch)
            report = session.fusion_report()
        assert report.views_fused < report.views_independent
        assert report.views_saved > 0
        assert report.n_workloads == 3


class TestSessionWithCache:
    def test_warm_rerun_matches_cold(self, tiny_retailer, workloads):
        ds = tiny_retailer
        with WorkloadSession(
            ds.database, ds.join_tree, cache=ViewCache()
        ) as session:
            for name, batch in workloads.items():
                session.add_workload(name, batch)
            cold = session.run()
            assert cold.cache_report.n_hits == 0
            warm = session.run()
        assert warm.cache_report.n_misses == 0
        assert (
            warm.cache_report.skipped_groups
            == warm.cache_report.total_groups
        )
        for name, batch in workloads.items():
            assert_results_equal(warm[name], cold[name], batch, rtol=0)

    def test_independent_runs_share_through_cache(
        self, tiny_retailer, workloads
    ):
        """covar's views serve linreg even without DAG fusion — the
        cross-batch sharing is carried by the content-addressed cache."""
        ds = tiny_retailer
        with WorkloadSession(
            ds.database, ds.join_tree, cache=ViewCache()
        ) as session:
            session.add_workload("covar", workloads["covar"])
            session.add_workload("linreg", workloads["linreg"])
            results = session.run_independent()
        assert results["linreg"].cache_report.n_hits > 0
        # and the shared-cache results are still correct
        expected = LMFAO(ds.database, ds.join_tree).run(workloads["linreg"])
        assert_results_equal(
            results["linreg"], expected, workloads["linreg"], rtol=1e-9
        )


class TestFusedBatch:
    def test_members_are_assembled_under_their_own_names(
        self, tiny_retailer, workloads
    ):
        """Each member's answer comes off the one run under its own
        query names, through one answer layout per member kept on the
        fused plan; nothing is renamed."""
        ds = tiny_retailer
        fused = FusedBatch(workloads)
        engine = LMFAO(ds.database, ds.join_tree, view_cache=ViewCache())
        run = fused.run(engine)
        assert run.plan is engine.plan(fused.batch)
        for name, batch in workloads.items():
            result = run.result(name)
            assert [r.name for r in result.values()] == [
                query.name for query in batch
            ]
            assert_results_equal(
                result,
                LMFAO(ds.database, ds.join_tree).run(batch),
                batch,
                rtol=1e-9,
            )
        assert set(run.plan.layouts) == {
            (fused.offsets[name], batch.aggregate_names())
            for name, batch in workloads.items()
        }

    def test_offsets_index_the_union(self, workloads):
        fused = FusedBatch(workloads)
        queries = list(fused.batch)
        for name, batch in workloads.items():
            first = fused.offsets[name]
            for i, query in enumerate(batch):
                assert queries[first + i].name == f"{name}::{query.name}"
                assert queries[first + i].aggregates is query.aggregates
        assert len(queries) == sum(len(b) for b in workloads.values())
        with pytest.raises(ValueError, match="no workloads"):
            FusedBatch({})


class TestSessionValidation:
    def test_rejects_separator_in_name(self, toy_db):
        session = WorkloadSession(toy_db)
        with pytest.raises(ValueError, match="::"):
            session.add_workload("a::b", None)

    def test_rejects_duplicate_names(self, toy_db, workloads):
        session = WorkloadSession(toy_db)
        session.add_workload("a", workloads["linreg"])
        with pytest.raises(ValueError, match="duplicate"):
            session.add_workload("a", workloads["linreg"])

    def test_run_without_workloads_fails(self, toy_db):
        with pytest.raises(ValueError, match="no workloads"):
            WorkloadSession(toy_db).run()
