"""Property-based differential tests: random batches over random data.

The core invariant: for any acyclic database and any aggregate batch, all
engine configurations and the materialized-join baseline agree tuple-for-
tuple.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    LMFAO,
    Aggregate,
    Database,
    Delta,
    Identity,
    Power,
    Product,
    Query,
    QueryBatch,
    Relation,
)
from repro.baselines import MaterializedEngine
from repro.data.schema import Schema, continuous, key

from .helpers import assert_results_equal, run_rendered

ATTRS = {
    "Sales": ["date", "store", "units"],
    "Stores": ["store", "size"],
    "Oil": ["date", "price"],
}
NUMERIC = ["units", "size", "price"]
GROUPABLE = ["date", "store"]


@st.composite
def databases(draw):
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    n_sales = draw(st.integers(1, 80))
    n_stores = draw(st.integers(1, 6))
    n_dates = draw(st.integers(1, 8))
    sales = Relation(
        "Sales",
        Schema([key("date"), key("store"), continuous("units")]),
        {
            "date": rng.integers(0, n_dates, n_sales),
            "store": rng.integers(0, n_stores, n_sales),
            "units": np.round(rng.normal(5, 2, n_sales), 2),
        },
    )
    # dimension tables may be partial (dangling fact rows!)
    store_keys = rng.choice(
        n_stores, size=max(1, n_stores - draw(st.integers(0, 1))), replace=False
    )
    stores = Relation(
        "Stores",
        Schema([key("store"), continuous("size")]),
        {
            "store": store_keys,
            "size": np.round(rng.normal(10, 3, len(store_keys)), 2),
        },
    )
    date_keys = rng.choice(
        n_dates, size=max(1, n_dates - draw(st.integers(0, 1))), replace=False
    )
    oil = Relation(
        "Oil",
        Schema([key("date"), continuous("price")]),
        {
            "date": date_keys,
            "price": np.round(rng.normal(50, 5, len(date_keys)), 2),
        },
    )
    return Database([sales, stores, oil], name=f"prop{seed}")


@st.composite
def factors(draw):
    kind = draw(st.sampled_from(["identity", "power", "delta"]))
    attr = draw(st.sampled_from(NUMERIC))
    if kind == "identity":
        return Identity(attr)
    if kind == "power":
        return Power(attr, draw(st.integers(1, 3)))
    op = draw(st.sampled_from(["<=", ">", "=="]))
    value = draw(
        st.floats(-10, 60, allow_nan=False, allow_infinity=False)
    )
    return Delta(attr, op, value)


@st.composite
def aggregates(draw, index):
    n_terms = draw(st.integers(1, 2))
    terms = []
    for _ in range(n_terms):
        n_factors = draw(st.integers(0, 3))
        coefficient = draw(
            st.floats(-3, 3, allow_nan=False, allow_infinity=False)
        )
        terms.append(
            Product([draw(factors()) for _ in range(n_factors)], coefficient)
        )
    return Aggregate(terms, name=f"agg{index}")


@st.composite
def batches(draw):
    n_queries = draw(st.integers(1, 4))
    queries = []
    for qi in range(n_queries):
        group_by = draw(
            st.lists(st.sampled_from(GROUPABLE), unique=True, max_size=2)
        )
        n_aggs = draw(st.integers(1, 3))
        aggs = [draw(aggregates(i)) for i in range(n_aggs)]
        queries.append(Query(f"q{qi}", group_by, aggs))
    return QueryBatch(queries)


class TestDifferentialProperty:
    @given(databases(), batches())
    @settings(max_examples=40, deadline=None)
    def test_rendered_source_matches_materialized(self, db, batch):
        got = run_rendered(LMFAO(db), batch)
        expected = MaterializedEngine(db).run(batch)
        assert_results_equal(got, expected, batch, rtol=1e-7, atol=1e-7)

    @given(databases(), batches())
    @settings(max_examples=20, deadline=None)
    def test_interpreted_matches_materialized(self, db, batch):
        got = LMFAO(db).run(batch)
        expected = MaterializedEngine(db).run(batch)
        assert_results_equal(got, expected, batch, rtol=1e-7, atol=1e-7)

    @given(databases(), batches())
    @settings(max_examples=20, deadline=None)
    def test_single_root_matches_multi_root(self, db, batch):
        multi = LMFAO(db, multi_root=True).run(batch)
        single = LMFAO(db, multi_root=False).run(batch)
        assert_results_equal(multi, single, batch, rtol=1e-7, atol=1e-7)

    @given(databases(), batches())
    @settings(max_examples=20, deadline=None)
    def test_merge_modes_agree(self, db, batch):
        full = LMFAO(db, merge_mode="full").run(batch)
        none = LMFAO(db, merge_mode="none").run(batch)
        assert_results_equal(full, none, batch, rtol=1e-7, atol=1e-7)
