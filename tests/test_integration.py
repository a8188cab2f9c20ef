"""End-to-end integration: the paper's four workloads on every dataset."""

import os

import numpy as np
import pytest

import repro
from repro import LMFAO, Aggregate, Query, QueryBatch, materialize_join
from repro.baselines import MaterializedEngine
from repro.ml import (
    CovarBatch,
    DataCube,
    build_mi_batch,
    mutual_information_from_results,
    train_ridge,
)

DATASET_FIXTURES = ["tiny_retailer", "tiny_favorita", "tiny_yelp", "tiny_tpcds"]


@pytest.mark.parametrize("fixture", DATASET_FIXTURES)
class TestWorkloadsRunEverywhere:
    def test_covar_workload(self, fixture, request):
        ds = request.getfixturevalue(fixture)
        continuous = ds.continuous_features[:3]
        categorical = ds.categorical_features[:3]
        label = (
            ds.continuous_features[3]
            if ds.database.attribute_kind(ds.label) == "categorical"
            else ds.label
        )
        continuous = [c for c in continuous if c != label]
        covar = CovarBatch(continuous, categorical, label)
        engine = LMFAO(ds.database, ds.join_tree)
        matrix, index = covar.assemble(engine.run(covar.batch))
        assert matrix.shape[0] == index.size
        assert np.allclose(matrix, matrix.T)
        assert matrix[0, 0] > 0

    def test_mi_workload(self, fixture, request):
        ds = request.getfixturevalue(fixture)
        attrs = ds.discrete_attrs[:4]
        engine = LMFAO(ds.database, ds.join_tree)
        batch = build_mi_batch(attrs)
        mi = mutual_information_from_results(attrs, engine.run(batch))
        assert len(mi) == len(attrs) * (len(attrs) - 1) // 2
        assert all(v >= 0 for v in mi.values())

    def test_cube_workload(self, fixture, request):
        ds = request.getfixturevalue(fixture)
        engine = LMFAO(ds.database, ds.join_tree)
        cube = DataCube(engine, ds.cube_dimensions, ds.cube_measures)
        relation = cube.compute()
        flat = materialize_join(ds.database)
        measure = ds.cube_measures[0]
        apex = cube.cuboid([]).column(f"sum:{measure}")[0]
        assert np.isclose(apex, flat.column(measure).sum(), rtol=1e-9)

    def test_count_vs_baseline(self, fixture, request):
        ds = request.getfixturevalue(fixture)
        batch = QueryBatch([Query("n", [], [Aggregate.count()])])
        lmfao_n = (
            LMFAO(ds.database, ds.join_tree)
            .run(batch)["n"]
            .column("count")[0]
        )
        baseline_n = (
            MaterializedEngine(ds.database)
            .run(batch)["n"]
            .column("count")[0]
        )
        assert lmfao_n == baseline_n


class TestEndToEndModels:
    def test_retailer_linreg_pipeline(self, tiny_retailer):
        """The Table 4 pipeline: train on history, test on the last dates."""
        from repro.datasets import train_test_split_by

        ds = tiny_retailer
        train_db, test_db = train_test_split_by(ds, "dateid", 0.15)
        continuous = ds.continuous_features[:6]
        categorical = ds.categorical_features[:4]
        model = train_ridge(
            train_db,
            continuous,
            categorical,
            ds.label,
            join_tree=ds.join_tree,
            method="closed",
        )
        test_flat = materialize_join(test_db)
        rmse = model.rmse(test_flat)
        target = test_flat.column(ds.label)
        trivial = float(np.sqrt(np.mean((target - target.mean()) ** 2)))
        assert np.isfinite(rmse)
        assert rmse < 2 * trivial  # sane model

    def test_favorita_regression_tree_pipeline(self, tiny_favorita):
        from repro.ml import CARTLearner

        ds = tiny_favorita
        engine = LMFAO(ds.database, ds.join_tree)
        learner = CARTLearner(
            engine,
            ["txns", "price"],
            ["stype", "promo", "family"],
            ds.label,
            "regression",
            max_depth=2,
            min_samples_split=50,
            n_buckets=4,
        )
        tree = learner.fit()
        flat = materialize_join(ds.database)
        target = flat.column(ds.label)
        trivial = float(np.sqrt(np.mean((target - target.mean()) ** 2)))
        assert tree.rmse(flat) <= trivial

    def test_tpcds_classification_pipeline(self, tiny_tpcds):
        from repro.ml import CARTLearner

        ds = tiny_tpcds
        engine = LMFAO(ds.database, ds.join_tree)
        learner = CARTLearner(
            engine,
            ds.continuous_features[:3],
            ds.categorical_features[:4],
            ds.label,
            "classification",
            max_depth=2,
            min_samples_split=50,
            n_buckets=4,
        )
        tree = learner.fit()
        flat = materialize_join(ds.database)
        assert 0.0 <= tree.accuracy(flat) <= 1.0

    def test_chow_liu_on_tpcds(self, tiny_tpcds):
        from repro.ml import chow_liu_tree

        ds = tiny_tpcds
        engine = LMFAO(ds.database, ds.join_tree)
        attrs = ds.discrete_attrs[:5]
        edges, _ = chow_liu_tree(engine, attrs)
        assert len(edges) == len(attrs) - 1


class TestMallocThresholds:
    """Importing the package pins glibc's allocator thresholds, unless
    the environment already configures the allocator."""

    @pytest.fixture
    def mallopt_calls(self, monkeypatch):
        if "CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {}):
            pytest.skip("not glibc")
        calls = []

        class FakeLibc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 1

        monkeypatch.setattr(repro.ctypes, "CDLL", lambda name: FakeLibc())
        for name in list(os.environ):
            if name == "GLIBC_TUNABLES" or name.startswith("MALLOC_"):
                monkeypatch.delenv(name)
        return calls

    def test_pins_mmap_and_trim_thresholds(self, mallopt_calls):
        repro._pin_malloc_thresholds()
        assert mallopt_calls == [(-3, 16 << 20), (-1, 64 << 20)]

    @pytest.mark.parametrize(
        "name", ["GLIBC_TUNABLES", "MALLOC_ARENA_MAX", "MALLOC_TRIM_THRESHOLD_"]
    )
    def test_environment_settings_win(self, mallopt_calls, monkeypatch, name):
        monkeypatch.setenv(name, "1")
        repro._pin_malloc_thresholds()
        assert mallopt_calls == []
