"""Ridge regression: LMFAO training matches the materialized baselines."""

import numpy as np
import pytest

from repro import LMFAO, materialize_join
from repro.baselines import gradient_descent_epochs, ols_closed_form
from repro.ml import train_ridge


@pytest.fixture(scope="module")
def favorita_setup(request):
    ds = request.getfixturevalue("tiny_favorita")
    flat = materialize_join(ds.database)
    cont = ["txns", "price"]
    cat = ["stype", "promo", "family"]
    return ds, flat, cont, cat


class TestClosedForm:
    def test_matches_materialized_ols(self, favorita_setup):
        ds, flat, cont, cat = favorita_setup
        lmfao_model = train_ridge(
            ds.database,
            cont,
            cat,
            "units",
            join_tree=ds.join_tree,
            method="closed",
            l2=1e-3,
        )
        baseline = ols_closed_form(
            ds.database, cont, cat, "units", l2=1e-3, flat=flat
        )
        assert np.allclose(
            lmfao_model.theta, baseline.theta, rtol=1e-6, atol=1e-8
        )

    def test_rmse_identical(self, favorita_setup):
        ds, flat, cont, cat = favorita_setup
        lmfao_model = train_ridge(
            ds.database, cont, cat, "units",
            join_tree=ds.join_tree, method="closed",
        )
        baseline = ols_closed_form(ds.database, cont, cat, "units", flat=flat)
        assert np.isclose(lmfao_model.rmse(flat), baseline.rmse(flat))


class TestDefaultSolve:
    def test_equals_materialized_ols_on_every_dataset(self, tiny_regression):
        # two continuous and three categorical features keep the matrix
        # well conditioned, so both solvers agree to rounding; with every
        # feature they agree on the objective, not on every coefficient
        ds, continuous, categorical, label = tiny_regression
        args = (ds.database, continuous[:2], categorical[:3], label)
        model = train_ridge(*args, join_tree=ds.join_tree)
        baseline = ols_closed_form(*args, flat=materialize_join(ds.database))
        assert model.iterations == 0
        np.testing.assert_allclose(model.theta, baseline.theta, rtol=1e-9)

    def test_not_positive_definite_raises(self, favorita_setup):
        # without l2 the one-hot block of each categorical feature sums to
        # the intercept column: no unique minimizer
        ds, _, cont, cat = favorita_setup
        with pytest.raises(ValueError, match="l2=0"):
            train_ridge(
                ds.database, cont, cat, "units", join_tree=ds.join_tree, l2=0.0
            )


class TestBGD:
    def test_bgd_converges_to_closed_form(self, favorita_setup):
        # the one-hot design is nearly collinear with the intercept, so
        # the covar matrix is ill-conditioned and BGD needs many (cheap,
        # O(p^2)) iterations; convergence is asserted on model quality
        ds, flat, cont, cat = favorita_setup
        closed = train_ridge(
            ds.database, cont, cat, "units",
            join_tree=ds.join_tree, method="closed", l2=1e-2,
        )
        bgd = train_ridge(
            ds.database, cont, cat, "units",
            join_tree=ds.join_tree, method="bgd", l2=1e-2,
            max_iterations=20_000,
        )
        assert np.isclose(bgd.rmse(flat), closed.rmse(flat), rtol=1e-4)
        assert np.allclose(bgd.theta, closed.theta, atol=0.05)

    def test_bgd_iterations_bounded(self, favorita_setup):
        ds, _, cont, cat = favorita_setup
        model = train_ridge(
            ds.database, cont, cat, "units",
            join_tree=ds.join_tree, method="bgd", max_iterations=10,
        )
        assert model.iterations <= 10

    def test_unknown_method_rejected(self, favorita_setup):
        ds, _, cont, cat = favorita_setup
        with pytest.raises(ValueError, match="method"):
            train_ridge(
                ds.database, cont, cat, "units",
                join_tree=ds.join_tree, method="sgd",
            )


class TestGradientDescentBaseline:
    def test_one_epoch_is_worse_than_closed_form(self, favorita_setup):
        """The paper's TensorFlow result: one epoch over the join does not
        reach the closed-form accuracy."""
        ds, flat, cont, cat = favorita_setup
        one_epoch = gradient_descent_epochs(
            ds.database, cont, cat, "units", epochs=1, flat=flat
        )
        closed = ols_closed_form(ds.database, cont, cat, "units", flat=flat)
        assert one_epoch.rmse(flat) >= closed.rmse(flat)


class TestPrediction:
    def test_predicts_unseen_categories_as_zero_block(self, favorita_setup):
        ds, flat, cont, cat = favorita_setup
        model = train_ridge(
            ds.database, cont, cat, "units",
            join_tree=ds.join_tree, method="closed",
        )
        predictions = model.predict(flat)
        assert predictions.shape == (flat.n_rows,)
        assert np.isfinite(predictions).all()

    def test_train_test_split(self, favorita_setup):
        from repro.datasets import train_test_split_by

        ds, _, cont, cat = favorita_setup
        train_db, test_db = train_test_split_by(ds, "date", 0.2)
        model = train_ridge(
            train_db, cont, cat, "units",
            join_tree=ds.join_tree, method="closed",
        )
        test_flat = materialize_join(test_db)
        assert test_flat.n_rows > 0
        assert np.isfinite(model.rmse(test_flat))
