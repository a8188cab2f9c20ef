"""WorkloadSession: fused execution matches independent runs exactly.

The acceptance differential: a fused covar + linreg + trees session
returns results ``allclose``-identical to three independent
``LMFAO.run`` calls.
"""

import pytest

from repro import LMFAO, ViewCache, WorkloadSession
from repro.ml import CovarBatch
from repro.ml.trees import CARTLearner

from ..helpers import assert_results_equal


def regression_label(ds):
    if ds.database.attribute_kind(ds.label) == "continuous":
        return ds.label
    return ds.continuous_features[0]


def build_workloads(ds):
    """covar + linreg + trees over a restricted feature set (kept small
    so they plan quickly in the fast lane)."""
    label = regression_label(ds)
    continuous = [f for f in ds.continuous_features if f != label][:3]
    categorical = list(ds.categorical_features)[:2]
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
