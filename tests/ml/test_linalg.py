"""QR / SVD over joins: factors match NumPy over the materialized design."""

import numpy as np
import pytest

from repro import LMFAO, materialize_join
from repro.ml.linalg import decompose_join_matrix


def design_matrix_over_join(flat, continuous):
    columns = [np.ones(flat.n_rows)]
    for attr in continuous:
        columns.append(np.asarray(flat.column(attr), dtype=np.float64))
    return np.stack(columns, axis=1)


class TestDecompositions:
    @pytest.fixture(scope="class")
    def setup(self, request):
        ds = request.getfixturevalue("tiny_favorita")
        engine = LMFAO(ds.database, ds.join_tree)
        flat = materialize_join(ds.database)
        decomposition = decompose_join_matrix(
            engine, ["txns", "price", "units"]
        )
        design = design_matrix_over_join(flat, ["price", "units", "txns"])
        # decompose_join_matrix uses the first attr as the plumbing label,
        # so its column order is [1, price, units, txns]
        return decomposition, design

    def test_r_factor_reconstructs_gram(self, setup):
        decomposition, design = setup
        gram = design.T @ design
        reconstructed = decomposition.r_factor.T @ decomposition.r_factor
        assert np.allclose(reconstructed, gram, rtol=1e-8, atol=1e-6)

    def test_r_upper_triangular(self, setup):
        decomposition, _ = setup
        r = decomposition.r_factor
        assert np.allclose(r, np.triu(r))

    def test_singular_values_match_numpy(self, setup):
        decomposition, design = setup
        expected = np.linalg.svd(design, compute_uv=False)
        assert np.allclose(
            decomposition.singular_values, expected, rtol=1e-6
        )

    def test_rank_full(self, setup):
        decomposition, design = setup
        assert decomposition.rank() == design.shape[1]

    def test_n_rows(self, setup):
        decomposition, design = setup
        assert decomposition.n_rows == len(design)

    def test_right_vectors_orthonormal(self, setup):
        decomposition, _ = setup
        v = decomposition.right_vectors
        assert np.allclose(v.T @ v, np.eye(v.shape[1]), atol=1e-8)


class TestSingularDesigns:
    def test_one_hot_collinearity_handled(self, tiny_favorita):
        """One-hot blocks + intercept are exactly collinear; the ridge
        and jittered Cholesky must still factorize."""
        ds = tiny_favorita
        engine = LMFAO(ds.database, ds.join_tree)
        decomposition = decompose_join_matrix(
            engine, ["txns", "price"], ["stype"], ridge=1e-9
        )
        assert np.isfinite(decomposition.singular_values).all()
        # collinearity shows up as a rank deficiency of exactly 1
        p = len(decomposition.singular_values)
        assert decomposition.rank(tolerance=1e-8) <= p

    def test_requires_continuous(self, tiny_favorita):
        ds = tiny_favorita
        engine = LMFAO(ds.database, ds.join_tree)
        with pytest.raises(ValueError):
            decompose_join_matrix(engine, [])
