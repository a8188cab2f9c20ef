"""Kernel laws: factorization, joins and grouped sums vs brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import ops

small_ints = st.lists(st.integers(0, 9), min_size=0, max_size=60)


def encode(columns):
    """The value-based path: every column gets a fresh, exact dictionary."""
    return [ops.factorize(np.asarray(c)) for c in columns]


def brute_join_pairs(left, right):
    return sorted(
        (i, j)
        for i, lv in enumerate(left)
        for j, rv in enumerate(right)
        if lv == rv
    )


class TestFactorize:
    def test_round_trip(self):
        col = np.array([5, 3, 5, 9, 3])
        codes, uniques = ops.factorize(col)
        assert (uniques[codes] == col).all()

    def test_codes_follow_value_order(self):
        codes, uniques = ops.factorize(np.array([30, 10, 20]))
        assert uniques.tolist() == [10, 20, 30]
        assert codes.tolist() == [2, 0, 1]

    def test_empty(self):
        codes, uniques = ops.factorize(np.array([], dtype=np.int64))
        assert len(codes) == 0 and len(uniques) == 0

    def test_floats(self):
        codes, uniques = ops.factorize(np.array([2.5, 1.5, 2.5]))
        assert (uniques[codes] == np.array([2.5, 1.5, 2.5])).all()


class TestFactorizeRows:
    def test_single_column(self):
        codes, keys = ops.factorize_rows(encode([np.array([4, 2, 4])]))
        assert (keys[0][codes] == np.array([4, 2, 4])).all()

    def test_two_columns_decode(self):
        a = np.array([1, 2, 1, 2])
        b = np.array([5, 5, 5, 6])
        codes, keys = ops.factorize_rows(encode([a, b]))
        assert (keys[0][codes] == a).all()
        assert (keys[1][codes] == b).all()

    def test_three_columns_decode(self):
        rng = np.random.default_rng(3)
        cols = [rng.integers(0, 4, 80) for _ in range(3)]
        codes, keys = ops.factorize_rows(encode(cols))
        for col, key_col in zip(cols, keys):
            assert (key_col[codes] == col).all()

    def test_keys_are_lexicographically_sorted(self):
        a = np.array([2, 1, 2, 1])
        b = np.array([9, 9, 3, 1])
        _, keys = ops.factorize_rows(encode([a, b]))
        tuples = list(zip(keys[0].tolist(), keys[1].tolist()))
        assert tuples == sorted(tuples)

    def test_distinct_count(self):
        a = np.array([1, 1, 2, 2, 1])
        b = np.array([0, 0, 0, 1, 0])
        codes, keys = ops.factorize_rows(encode([a, b]))
        assert len(keys[0]) == 3
        assert codes.max() == 2

    def test_requires_columns(self):
        with pytest.raises(ValueError):
            ops.factorize_rows([])

    @given(small_ints, small_ints)
    @settings(max_examples=50, deadline=None)
    def test_property_decode(self, left, right):
        if len(left) != len(right):
            left = (left + [0] * len(right))[: max(len(left), len(right))]
            right = (right + [0] * len(left))[: len(left)]
        a, b = np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64)
        if len(a) == 0:
            return
        codes, keys = ops.factorize_rows(encode([a, b]))
        assert (keys[0][codes] == a).all()
        assert (keys[1][codes] == b).all()


class TestJoinIndices:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        left = rng.integers(0, 6, 40)
        right = rng.integers(0, 6, 30)
        lc, rc = ops.shared_codes(encode([left]), [right])
        li, ri = ops.join_indices(lc, rc)
        got = sorted(zip(li.tolist(), ri.tolist()))
        assert got == brute_join_pairs(left, right)

    def test_many_to_many_fanout(self):
        left = np.array([1, 1, 2])
        right = np.array([1, 1, 1, 2])
        lc, rc = ops.shared_codes(encode([left]), [right])
        li, ri = ops.join_indices(lc, rc)
        assert len(li) == 2 * 3 + 1

    def test_no_matches(self):
        lc, rc = ops.shared_codes(
            encode([np.array([1, 2])]), [np.array([3, 4])]
        )
        li, ri = ops.join_indices(lc, rc)
        assert len(li) == 0 and len(ri) == 0

    def test_empty_sides(self):
        lc, rc = ops.shared_codes(
            encode([np.array([], dtype=np.int64)]), [np.array([1, 2])]
        )
        li, ri = ops.join_indices(lc, rc)
        assert len(li) == 0

    def test_composite_keys(self):
        rng = np.random.default_rng(5)
        la, lb = rng.integers(0, 4, 30), rng.integers(0, 3, 30)
        ra, rb = rng.integers(0, 4, 25), rng.integers(0, 3, 25)
        lc, rc = ops.shared_codes(encode([la, lb]), [ra, rb])
        li, ri = ops.join_indices(lc, rc)
        expected = sum(
            int(((ra == a) & (rb == b)).sum()) for a, b in zip(la, lb)
        )
        assert len(li) == expected
        assert (la[li] == ra[ri]).all() and (lb[li] == rb[ri]).all()

    @given(small_ints, small_ints)
    @settings(max_examples=50, deadline=None)
    def test_property_join(self, left, right):
        la = np.asarray(left, dtype=np.int64)
        ra = np.asarray(right, dtype=np.int64)
        lc, rc = ops.shared_codes(encode([la]), [ra])
        li, ri = ops.join_indices(lc, rc)
        assert sorted(zip(li.tolist(), ri.tolist())) == brute_join_pairs(
            la, ra
        )


# -- encoded kernels: relation-style dictionaries vs brute force ---------------
#
# The engine never hands the kernels an exact dictionary: a context column
# is ``source[idx]``, so its codes are ``source_codes[idx]`` over the
# *source's* dictionary, which may hold values the context lacks.  These
# tests build columns that way and require the kernels to agree bit for
# bit with a brute-force reference and with the value-based path (fresh
# exact dictionaries), on every branch the kernels can take.

INT_KEYS = [-7, -1, 0, 3, 4, 11]
FLOAT_KEYS = [-2.5, -0.5, 0.25, 3.0, 4.5]


@st.composite
def key_domains(draw):
    """A key domain: negative ints or floats."""
    return draw(st.sampled_from([INT_KEYS, FLOAT_KEYS]))


@st.composite
def context_columns(draw, n_columns, max_rows=40):
    """(encoded columns, their values): ``n_columns`` columns of one
    length, each gathered out of a longer source column."""
    n_rows = draw(st.integers(0, max_rows))
    encoded, values = [], []
    for _ in range(n_columns):
        domain = draw(key_domains())
        source = np.asarray(
            draw(st.lists(st.sampled_from(domain), min_size=1, max_size=30))
        )
        idx = np.asarray(
            draw(
                st.lists(
                    st.integers(0, len(source) - 1),
                    min_size=n_rows,
                    max_size=n_rows,
                )
            ),
            dtype=np.int64,
        )
        codes, uniques = ops.factorize(source)
        encoded.append((codes[idx], uniques))
        values.append(source[idx])
    return encoded, values


def brute_group_keys(values):
    """(codes, key tuples) by sorting the distinct row tuples."""
    rows = list(zip(*(v.tolist() for v in values)))
    keys = sorted(set(rows))
    rank = {key: i for i, key in enumerate(keys)}
    return [rank[row] for row in rows], keys


def assert_group_keys(encoded, values):
    codes, keys = ops.factorize_rows(encoded)
    want_codes, want_keys = brute_group_keys(values)
    assert codes.dtype == np.int64
    assert codes.tolist() == want_codes
    assert list(zip(*(k.tolist() for k in keys))) == want_keys
    # the value-based path: same codes, same keys, same dtypes
    value_codes, value_keys = ops.factorize_rows(encode(values))
    assert (codes == value_codes).all()
    for got, want, column in zip(keys, value_keys, values):
        assert got.dtype == want.dtype == column.dtype
        assert (got == want).all()


def wide(code_values, size):
    """A column whose dictionary has ``size`` entries, few of them used."""
    return np.asarray(code_values, dtype=np.int64), np.arange(size)


class TestEncodedGroupKeys:
    @given(st.integers(1, 3).flatmap(context_columns))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_and_value_path(self, drawn):
        assert_group_keys(*drawn)

    def test_single_row(self):
        encoded = [(np.array([2]), np.array([5, 6, 7])), wide([0], 4)]
        assert_group_keys(encoded, [np.array([7]), np.array([0])])

    def test_empty(self):
        encoded = [
            (np.array([], dtype=np.int64), np.array([1, 2])),
            (np.array([], dtype=np.int64), np.array([0.5])),
        ]
        codes, keys = ops.factorize_rows(encoded)
        assert len(codes) == 0
        assert [len(k) for k in keys] == [0, 0]
        assert [k.dtype for k in keys] == [np.int64, np.float64]

    @given(
        st.lists(
            st.tuples(st.integers(0, 99), st.integers(0, 99)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_product_past_the_dense_limit(self, rows):
        # 100 x 100 slots for at most 30 rows: no bitmap, one np.unique
        assert not ops._addressable(100 * 100, len(rows))
        values = [np.asarray(c, dtype=np.int64) for c in zip(*rows)]
        assert_group_keys([wide(v, 100) for v in values], values)

    @given(
        st.lists(
            st.tuples(*[st.integers(0, 69_999)] * 4),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_product_past_int64(self, rows):
        # 70 000 ** 4 > 2 ** 63: the radix is compacted part-way
        assert 70_000**4 > ops._MAX_RADIX
        values = [np.asarray(c, dtype=np.int64) for c in zip(*rows)]
        assert_group_keys([wide(v, 70_000) for v in values], values)


def assert_join(left_encoded, left_values, right_values):
    """Encoded join == brute force, pair for pair and in order == the
    value-based path."""
    lc, rc = ops.shared_codes(left_encoded, right_values)
    li, ri = ops.join_indices(lc, rc)
    left_rows = list(zip(*(v.tolist() for v in left_values)))
    right_rows = list(zip(*(v.tolist() for v in right_values)))
    # grouped by left row, then in right order: sorted (i, j) pairs
    assert list(zip(li.tolist(), ri.tolist())) == brute_join_pairs(
        left_rows, right_rows
    )
    assert li.dtype == ri.dtype == np.int64
    vi, vj = ops.join_indices(*ops.shared_codes(encode(left_values), right_values))
    assert (li == vi).all() and (ri == vj).all()
    return rc


class TestEncodedJoin:
    @given(
        st.integers(1, 2).flatmap(
            lambda k: st.tuples(context_columns(k), context_columns(k, 12))
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_and_value_path(self, drawn):
        # either side may hold keys the other lacks, the right side may
        # repeat keys (sort path) or not (lookup path), either may be empty
        (left_encoded, left_values), (_, right_values) = drawn
        assert_join(left_encoded, left_values, right_values)

    def test_right_keys_absent_from_the_dictionary(self):
        source = np.array([10, 20, 30, 20])
        codes, uniques = ops.factorize(source)
        idx = np.array([3, 0, 1])
        right = np.array([25, 20, 5, 40, 10])
        rc = assert_join([(codes[idx], uniques)], [source[idx]], [right])
        assert rc.tolist() == [-1, 1, -1, -1, 0]

    def test_unique_right_side_takes_no_sort(self, monkeypatch):
        left = np.array([3, 1, 3, 2, 9])
        right = np.array([9, 3, 7])
        monkeypatch.setattr(
            np, "argsort", lambda *a, **k: pytest.fail("sorted")
        )
        lc, rc = ops.shared_codes([(left, np.arange(10))], [right])
        li, ri = ops.join_indices(lc, rc)
        assert li.tolist() == [0, 2, 4] and ri.tolist() == [1, 1, 0]

    def test_many_to_many_right_side(self):
        left = np.array([1, 1, 2, 5])
        right = np.array([2, 1, 1, 7, 1])
        assert_join(encode([left]), [left], [right])

    def test_single_row_and_empty_sides(self):
        one = np.array([4])
        none = np.array([], dtype=np.int64)
        assert_join(encode([one]), [one], [one])
        assert_join(encode([one]), [one], [none])
        assert_join(encode([none]), [none], [one])
        assert_join(encode([none]), [none], [none])

    def test_code_space_too_large_to_address(self):
        # the left code 99 999 would need a 100 000-slot table for 4 rows
        left = np.array([99_999, 5, 5, 70_000])
        right = np.array([5, 99_999, 123])
        lc, rc = ops.shared_codes([wide(left, 100_000)], [right])
        assert not ops._addressable(100_000, len(left) + len(right))
        li, ri = ops.join_indices(lc, rc)
        assert list(zip(li.tolist(), ri.tolist())) == [(0, 1), (1, 0), (2, 0)]

    @given(
        st.lists(st.tuples(*[st.integers(0, 2)] * 4), max_size=12),
        st.lists(st.tuples(*[st.integers(0, 3)] * 4), max_size=12),
    )
    @settings(max_examples=50, deadline=None)
    def test_composite_code_space_past_int64(self, left_rows, right_rows):
        # small keys at the top of 70 000-entry dictionaries
        shift = 69_996
        left = [np.asarray(c, dtype=np.int64) + shift for c in zip(*left_rows)]
        right = [np.asarray(c, dtype=np.int64) + shift for c in zip(*right_rows)]
        if not left:
            left = [np.array([], dtype=np.int64)] * 4
        if not right:
            right = [np.array([], dtype=np.int64)] * 4
        assert_join([wide(c, 70_000) for c in left], left, right)

    def test_negative_codes_match_nothing(self):
        li, ri = ops.join_indices(np.array([-1, 0, 2]), np.array([-1, 2, -1]))
        assert li.tolist() == [2] and ri.tolist() == [1]
        # and on the sort path (the right side repeats a code)
        li, ri = ops.join_indices(np.array([-1, 2]), np.array([-1, 2, -1, 2]))
        assert li.tolist() == [1, 1] and ri.tolist() == [1, 3]

    def test_requires_columns(self):
        with pytest.raises(ValueError):
            ops.shared_codes([], [])
        with pytest.raises(ValueError):
            ops.shared_codes(encode([np.array([1])]), [])


class TestColumnEncodings:
    def test_encodes_on_first_use_only(self, monkeypatch):
        calls = []
        real = ops.factorize
        monkeypatch.setattr(
            ops, "factorize", lambda c: calls.append(1) or real(c)
        )
        memo = ops.ColumnEncodings({"a": np.array([3, 1, 3])})
        first = memo["a"]
        assert memo["a"] is first and len(calls) == 1
        assert first[0].tolist() == [1, 0, 1]
        assert first[1].tolist() == [1, 3]

    def test_unknown_column(self):
        with pytest.raises(KeyError):
            ops.ColumnEncodings({})["a"]


class TestGroupRows:
    @given(st.lists(st.integers(0, 6), max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_one_row_of_each_group(self, values):
        codes, keys = ops.factorize_rows([ops.factorize(np.asarray(values, dtype=np.int64))])
        rows = ops.group_rows(codes, len(keys[0]))
        assert rows.dtype == np.int64
        assert codes[rows].tolist() == list(range(len(keys[0])))


class TestGroupAggregate:
    def test_sums_match_brute_force(self):
        rng = np.random.default_rng(6)
        keys = rng.integers(0, 5, 100)
        values = rng.normal(0, 1, 100)
        out_keys, sums = ops.group_aggregate([keys], [values])
        for k, s in zip(out_keys[0], sums[0]):
            assert np.isclose(s, values[keys == k].sum())

    def test_scalar_aggregate(self):
        values = np.array([1.0, 2.0, 3.5])
        keys, sums = ops.group_aggregate([], [values])
        assert keys == []
        assert sums[0].tolist() == [6.5]

    def test_scalar_empty(self):
        keys, sums = ops.group_aggregate([], [np.array([])])
        assert sums[0].tolist() == [0.0]

    def test_composite_group_by(self):
        a = np.array([1, 1, 2, 2, 1])
        b = np.array([0, 1, 0, 0, 0])
        v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        keys, sums = ops.group_aggregate([a, b], [v])
        table = {
            (ka, kb): s
            for ka, kb, s in zip(keys[0], keys[1], sums[0])
        }
        assert table[(1, 0)] == 6.0
        assert table[(1, 1)] == 2.0
        assert table[(2, 0)] == 7.0

    def test_multiple_value_columns(self):
        keys = np.array([0, 0, 1])
        v1 = np.array([1.0, 2.0, 3.0])
        v2 = np.array([10.0, 20.0, 30.0])
        _, sums = ops.group_aggregate([keys], [v1, v2])
        assert sums[0].tolist() == [3.0, 3.0]
        assert sums[1].tolist() == [30.0, 30.0]

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.floats(-5, 5)),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_group_sums(self, rows):
        keys = np.asarray([k for k, _ in rows], dtype=np.int64)
        values = np.asarray([v for _, v in rows])
        out_keys, sums = ops.group_aggregate([keys], [values])
        total = {}
        for k, v in rows:
            total[k] = total.get(k, 0.0) + v
        got = dict(zip(out_keys[0].tolist(), sums[0].tolist()))
        assert set(got) == set(total)
        for k in total:
            assert np.isclose(got[k], total[k], atol=1e-9)


class TestSemijoinAndSort:
    def test_semijoin_mask(self):
        mask = ops.semijoin_mask(np.array([1, 2, 3]), np.array([2, 4]))
        assert mask.tolist() == [False, True, False]

    def test_lexsort_rows(self):
        a = np.array([2, 1, 2])
        b = np.array([0, 5, -1])
        order = ops.lexsort_rows([a, b])
        assert a[order].tolist() == [1, 2, 2]
        assert b[order].tolist() == [5, -1, 0]

    def test_lexsort_requires_columns(self):
        with pytest.raises(ValueError):
            ops.lexsort_rows([])
