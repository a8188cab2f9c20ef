"""Covar batches: entries match brute force over the materialized join."""

import numpy as np
import pytest

from repro import LMFAO, materialize_join
from repro.ml.covar import CovarBatch, covar_batch_size


@pytest.fixture(scope="module")
def setup(request):
    toy_db = request.getfixturevalue("toy_db")
    engine = LMFAO(toy_db)
    flat = materialize_join(toy_db)
    covar = CovarBatch(["price", "size"], ["city"], "units")
    matrix, index = covar.assemble(engine.run(covar.batch))
    return toy_db, flat, covar, matrix, index


class TestBatchShape:
    def test_aggregate_count_formula(self, toy_db):
        covar = CovarBatch(["price"], ["city"], "units")
        assert covar.batch.n_application_aggregates == covar_batch_size(1, 1)

    def test_all_continuous_formula(self):
        # (n+1)(n+2)/2 for n features including the label
        n_features = 3  # 3 continuous + label -> n = 4 "attributes"
        size = covar_batch_size(n_features, 0)
        n = n_features + 1
        assert size == (n + 1) * (n + 2) // 2

    def test_label_must_be_continuous(self):
        with pytest.raises(ValueError):
            CovarBatch(["x"], ["c"], "c")


class TestMatrixEntries:
    def test_count_entry(self, setup):
        _, flat, _, matrix, _ = setup
        assert matrix[0, 0] == flat.n_rows

    def test_first_moments(self, setup):
        _, flat, _, matrix, index = setup
        pos = index.continuous_pos("price")
        assert np.isclose(matrix[0, pos], flat.column("price").sum())

    def test_continuous_pair(self, setup):
        _, flat, _, matrix, index = setup
        expected = (flat.column("price") * flat.column("size")).sum()
        got = matrix[index.continuous_pos("price"), index.continuous_pos("size")]
        assert np.isclose(got, expected)

    def test_label_column(self, setup):
        _, flat, _, matrix, index = setup
        expected = (flat.column("price") * flat.column("units")).sum()
        got = matrix[index.continuous_pos("price"), index.label_position]
        assert np.isclose(got, expected)

    def test_squared_diagonal(self, setup):
        _, flat, _, matrix, index = setup
        pos = index.continuous_pos("size")
        assert np.isclose(matrix[pos, pos], (flat.column("size") ** 2).sum())

    def test_categorical_diagonal_counts(self, setup):
        _, flat, _, matrix, index = setup
        city = flat.column("city")
        for value in np.unique(city):
            pos = index.categorical_pos("city", value)
            assert matrix[pos, pos] == (city == value).sum()

    def test_categorical_cross_continuous(self, setup):
        _, flat, _, matrix, index = setup
        city = flat.column("city")
        units = flat.column("units")
        for value in np.unique(city):
            pos = index.categorical_pos("city", value)
            row, col = sorted((pos, index.label_position))
            assert np.isclose(
                matrix[row, col], units[city == value].sum()
            )

    def test_matrix_symmetric(self, setup):
        *_, matrix, _ = setup
        assert np.allclose(matrix, matrix.T)

    def test_matrix_psd(self, setup):
        # sum of outer products z z^T is positive semidefinite
        *_, matrix, _ = setup
        eigenvalues = np.linalg.eigvalsh(matrix)
        assert eigenvalues.min() > -1e-6 * max(1.0, eigenvalues.max())

    def test_unseen_category_raises(self, setup):
        *_, index = setup
        with pytest.raises(KeyError):
            index.categorical_pos("city", 999_999)


def loop_assembly(covar, results, index):
    """The per-value assembly ``CovarBatch.assemble`` replaced: one
    ``searchsorted`` per category value.  The reference it must equal."""
    matrix = np.zeros((index.size, index.size))
    numeric = list(covar.continuous) + [covar.label]

    def numeric_pos(attr):
        if attr == covar.label:
            return index.label_position
        return index.continuous_pos(attr)

    def cat_pos(cat, value):
        values = index.category_values[cat]
        return index.offsets[cat] + int(np.searchsorted(values, value))

    scalar = results["covar:scalar"]
    matrix[0, 0] = scalar.column("count")[0]
    for attr in numeric:
        matrix[0, numeric_pos(attr)] = scalar.column(f"m1:{attr}")[0]
    for i, a in enumerate(numeric):
        for b in numeric[i:]:
            pa, pb = sorted((numeric_pos(a), numeric_pos(b)))
            matrix[pa, pb] = scalar.column(f"m2:{a}*{b}")[0]
    for cat in covar.categorical:
        relation = results[f"covar:g:{cat}"]
        values = relation.column(cat)
        for value, count in zip(values, relation.column("count")):
            pos = cat_pos(cat, value)
            matrix[0, pos] = count
            matrix[pos, pos] = count
        for attr in numeric:
            for value, moment in zip(values, relation.column(f"m1:{attr}")):
                row, col = sorted((cat_pos(cat, value), numeric_pos(attr)))
                matrix[row, col] = moment
    for i, a in enumerate(covar.categorical):
        for b in covar.categorical[i + 1:]:
            relation = results[f"covar:gg:{a}*{b}"]
            for va, vb, count in zip(
                relation.column(a), relation.column(b), relation.column("count")
            ):
                row, col = sorted((cat_pos(a, va), cat_pos(b, vb)))
                matrix[row, col] = count
    lower = np.tril_indices(index.size, -1)
    matrix[lower] = matrix.T[lower]
    return matrix


class TestAssembly:
    def test_bit_identical_to_the_per_value_loop(self, tiny_regression):
        ds, continuous, categorical, label = tiny_regression
        covar = CovarBatch(continuous, categorical, label)
        results = LMFAO(ds.database, ds.join_tree).run(covar.batch)
        matrix, index = covar.assemble(results)
        np.testing.assert_array_equal(
            matrix, loop_assembly(covar, results, index)
        )

    def test_positions_of_a_column(self, setup):
        *_, index = setup
        values = index.category_values["city"]
        positions = index.categorical_positions("city", values[::-1])
        assert positions.tolist() == [
            index.categorical_pos("city", v) for v in values[::-1]
        ]
        with pytest.raises(KeyError, match="999999"):
            index.categorical_positions("city", np.append(values, 999_999))


class TestCategoricalPairs:
    def test_pair_blocks(self, tiny_favorita):
        ds = tiny_favorita
        engine = LMFAO(ds.database, ds.join_tree)
        covar = CovarBatch(["txns"], ["stype", "promo"], "units")
        matrix, index = covar.assemble(engine.run(covar.batch))
        flat = materialize_join(ds.database)
        stype = flat.column("stype")
        promo = flat.column("promo")
        for sv in np.unique(stype):
            for pv in np.unique(promo):
                expected = ((stype == sv) & (promo == pv)).sum()
                row, col = sorted(
                    (
                        index.categorical_pos("stype", sv),
                        index.categorical_pos("promo", pv),
                    )
                )
                assert matrix[row, col] == expected
