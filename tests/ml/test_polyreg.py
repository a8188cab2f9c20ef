"""Polynomial regression (eq. (5)): batch shape and training accuracy."""

import numpy as np
import pytest

from repro import LMFAO, materialize_join
from repro.ml.polyreg import (
    PolynomialCovarBatch,
    monomials,
    train_polynomial,
)


class TestMonomials:
    def test_degree_one_is_linear_basis(self):
        basis = monomials(["x", "y"], 1)
        assert basis == [(), (("x", 1),), (("y", 1),)]

    def test_degree_two_count(self):
        # C(n+d, d) monomials for n features, degree d: C(4,2) = 6
        assert len(monomials(["x", "y"], 2)) == 6

    def test_degree_three_count(self):
        # C(3+3, 3) = 20
        assert len(monomials(["x", "y", "z"], 3)) == 20

    def test_exponents_sum_bounded(self):
        for monomial in monomials(["x", "y"], 3):
            assert sum(e for _, e in monomial) <= 3


class TestBatchShape:
    def test_aggregate_degree_bounded_by_2d(self):
        covar = PolynomialCovarBatch(["x", "y"], [], "label", degree=2)
        for query in covar.batch:
            for agg in query.aggregates:
                for term in agg.terms:
                    total_degree = sum(
                        f.exponent
                        for f in term.factors
                        if f.attr != "label"
                    )
                    assert total_degree <= 4

    def test_categorical_becomes_group_by(self):
        covar = PolynomialCovarBatch(["x"], ["c"], "label", degree=2)
        grouped = [q for q in covar.batch if q.group_by]
        assert grouped
        assert all("c" in q.group_by for q in grouped)

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            PolynomialCovarBatch(["x"], [], "label", degree=0)


class TestTraining:
    @pytest.fixture(scope="class")
    def setup(self, request):
        ds = request.getfixturevalue("tiny_favorita")
        engine = LMFAO(ds.database, ds.join_tree)
        flat = materialize_join(ds.database)
        return ds, engine, flat

    def test_matches_normal_equations(self, setup):
        _, engine, flat = setup
        model = train_polynomial(
            engine, ["txns", "price"], "units", degree=2, l2=1e-3
        )
        design = model.design_matrix(flat)
        target = flat.column("units")
        n = len(target)
        expected = np.linalg.solve(
            design.T @ design / n + 1e-3 * np.eye(design.shape[1]),
            design.T @ target / n,
        )
        assert np.allclose(model.theta, expected, rtol=1e-6, atol=1e-8)

    def test_degree2_no_worse_than_degree1(self, setup):
        _, engine, flat = setup
        linear = train_polynomial(engine, ["txns", "price"], "units", 1)
        quadratic = train_polynomial(engine, ["txns", "price"], "units", 2)
        # richer basis, same data, tiny ridge: training error can't grow
        # (up to the ridge term's influence)
        assert quadratic.rmse(flat) <= linear.rmse(flat) * 1.01

    def test_predictions_finite(self, setup):
        _, engine, flat = setup
        model = train_polynomial(engine, ["price"], "units", degree=3)
        assert np.isfinite(model.predict(flat)).all()
