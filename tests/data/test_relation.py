"""Relation operations vs brute force."""

import numpy as np
import pytest

from repro.data import Relation
from repro.data.schema import Schema, categorical, continuous, key


def make(name, cols, attrs):
    return Relation(name, Schema(attrs), cols)


@pytest.fixture
def r():
    return make(
        "R",
        {
            "a": np.array([1, 2, 1, 3]),
            "x": np.array([1.0, 2.0, 3.0, 4.0]),
        },
        [key("a"), continuous("x")],
    )


class TestConstruction:
    def test_missing_column_rejected(self):
        with pytest.raises(ValueError, match="missing column"):
            make("R", {"a": np.array([1])}, [key("a"), continuous("x")])

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            make(
                "R",
                {"a": np.array([1, 2]), "x": np.array([1.0])},
                [key("a"), continuous("x")],
            )

    def test_from_dict_infers_kinds(self):
        rel = Relation.from_dict(
            "R", {"a": np.array([1, 2]), "x": np.array([0.5, 1.5])}
        )
        assert rel.schema["a"].is_categorical
        assert rel.schema["x"].is_continuous

    def test_unknown_column_raises(self, r):
        with pytest.raises(KeyError, match="no column"):
            r.column("zzz")


class TestRowOps:
    def test_take(self, r):
        taken = r.take(np.array([2, 0]))
        assert taken.column("a").tolist() == [1, 1]
        assert taken.column("x").tolist() == [3.0, 1.0]

    def test_filter(self, r):
        filtered = r.filter(r.column("a") == 1)
        assert filtered.n_rows == 2

    def test_project(self, r):
        projected = r.project(["x"])
        assert projected.attribute_names == ("x",)

    def test_sorted_by(self, r):
        sorted_rel = r.sorted_by(["a", "x"])
        assert sorted_rel.column("a").tolist() == [1, 1, 2, 3]

    def test_with_column(self, r):
        extended = r.with_column(continuous("y"), np.zeros(4))
        assert extended.column("y").tolist() == [0.0] * 4
        with pytest.raises(ValueError):
            extended.with_column(continuous("y"), np.zeros(4))

    def test_distinct(self, r):
        distinct = r.distinct(["a"])
        assert sorted(distinct.column("a").tolist()) == [1, 2, 3]


class TestJoin:
    def test_natural_join_matches_brute_force(self):
        left = make(
            "L",
            {"k": np.array([1, 1, 2]), "x": np.array([0.1, 0.2, 0.3])},
            [key("k"), continuous("x")],
        )
        right = make(
            "R",
            {"k": np.array([1, 2, 2]), "y": np.array([10.0, 20.0, 30.0])},
            [key("k"), continuous("y")],
        )
        joined = left.join(right)
        rows = sorted(joined.to_rows())
        expected = sorted(
            (lk, lx, ry)
            for lk, lx in zip([1, 1, 2], [0.1, 0.2, 0.3])
            for rk, ry in zip([1, 2, 2], [10.0, 20.0, 30.0])
            if lk == rk
        )
        assert rows == expected

    def test_cross_product_when_no_shared_attrs(self):
        left = make("L", {"x": np.array([1.0, 2.0])}, [continuous("x")])
        right = make("R", {"y": np.array([5.0])}, [continuous("y")])
        assert left.join(right).n_rows == 2

    def test_join_keeps_schema_union(self):
        left = make("L", {"k": np.array([1])}, [key("k")])
        right = make(
            "R",
            {"k": np.array([1]), "y": np.array([2.0])},
            [key("k"), continuous("y")],
        )
        assert left.join(right).attribute_names == ("k", "y")


class TestGroupBySum:
    def test_grouped(self, r):
        result = r.group_by_sum(["a"], {"sx": r.column("x")})
        table = dict(
            zip(result.column("a").tolist(), result.column("sx").tolist())
        )
        assert table == {1: 4.0, 2: 2.0, 3: 4.0}

    def test_scalar(self, r):
        result = r.group_by_sum([], {"sx": r.column("x")})
        assert result.column("sx").tolist() == [10.0]

    def test_to_rows_empty(self):
        rel = make("E", {"a": np.array([], dtype=np.int64)}, [key("a")])
        assert rel.to_rows() == []
