"""Property-based differential tests on a snowflake (depth-2) schema.

The star-schema property tests never exercise *transitive* carried
attributes: a group-by attribute two edges away from the root must ride
through an intermediate node's view.  This suite generates random
snowflake databases (Fact - Dim - SubDim chain plus a second dimension)
and random batches over attributes at every depth.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LMFAO, Aggregate, Database, Delta, Product, Query, QueryBatch, Relation
from repro.baselines import MaterializedEngine
from repro.data.schema import Schema, continuous, key

from .helpers import assert_results_equal


@st.composite
def snowflake_db(draw):
    """Fact(a, b, x) - Dim(a, c, y) - SubDim(c, z); Other(b, w)."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    n_fact = draw(st.integers(1, 60))
    n_dim = draw(st.integers(1, 10))
    n_sub = draw(st.integers(1, 6))
    n_other = draw(st.integers(1, 8))
    fact = Relation(
        "Fact",
        Schema([key("a"), key("b"), continuous("x")]),
        {
            "a": rng.integers(0, n_dim + 1, n_fact),  # may dangle
            "b": rng.integers(0, n_other, n_fact),
            "x": np.round(rng.normal(0, 2, n_fact), 2),
        },
    )
    dim = Relation(
        "Dim",
        Schema([key("a"), key("c"), continuous("y")]),
        {
            "a": np.arange(n_dim),
            "c": rng.integers(0, n_sub, n_dim),
            "y": np.round(rng.normal(5, 1, n_dim), 2),
        },
    )
    sub = Relation(
        "SubDim",
        Schema([key("c"), continuous("z")]),
        {
            "c": np.arange(n_sub),
            "z": np.round(rng.normal(-1, 3, n_sub), 2),
        },
    )
    other = Relation(
        "Other",
        Schema([key("b"), continuous("w")]),
        {
            "b": np.arange(n_other),
            "w": np.round(rng.normal(0, 1, n_other), 2),
        },
    )
    return Database([fact, dim, sub, other], name="snowflake")


GROUPABLE = ["a", "b", "c"]
NUMERIC = ["x", "y", "z", "w"]


@st.composite
def snowflake_batch(draw):
    queries = []
    for qi in range(draw(st.integers(1, 3))):
        group_by = draw(
            st.lists(st.sampled_from(GROUPABLE), unique=True, max_size=2)
        )
        aggs = []
        for ai in range(draw(st.integers(1, 2))):
            n_factors = draw(st.integers(0, 2))
            factors = [
                draw(st.sampled_from(NUMERIC)) for _ in range(n_factors)
            ]
            if draw(st.booleans()):
                factors.append(
                    Delta(
                        draw(st.sampled_from(NUMERIC)),
                        draw(st.sampled_from(["<=", ">"])),
                        draw(st.floats(-5, 8, allow_nan=False)),
                    )
                )
            aggs.append(
                Aggregate([Product(factors)], name=f"agg{ai}")
            )
        queries.append(Query(f"q{qi}", group_by, aggs))
    return QueryBatch(queries)


class TestSnowflakeDifferential:
    @given(snowflake_db(), snowflake_batch())
    @settings(max_examples=30, deadline=None)
    def test_matches_materialized(self, db, batch):
        got = LMFAO(db).run(batch)
        expected = MaterializedEngine(db).run(batch)
        assert_results_equal(got, expected, batch, rtol=1e-7, atol=1e-7)

    @given(snowflake_db(), snowflake_batch())
    @settings(max_examples=15, deadline=None)
    def test_root_at_leaf_matches(self, db, batch):
        """Force the root to the deepest leaf: every group-by attr is
        carried transitively."""
        from repro.engine.grouping import group_views
        from repro.engine.interpreter import execute_plan
        from repro.engine.pushdown import Decomposer
        from repro.jointree.join_tree import join_tree_from_database

        tree = join_tree_from_database(db)
        roots = {q.name: "SubDim" for q in batch}
        decomposed = Decomposer(tree).decompose(batch, roots)
        grouped = group_views(decomposed)
        from repro.engine.plan import build_group_plan

        view_data = {}
        for group in grouped.groups:  # topological order
            plan = build_group_plan(
                group, decomposed.views, db.relation(group.node), {}
            )
            incoming = {
                vid: view_data[vid] for vid in plan.input_view_ids
            }
            view_data.update(
                execute_plan(plan, db.relation(group.node), incoming, [])
            )
        # compare the scalar/count totals against the default engine
        default = LMFAO(db).run(batch)
        for output in decomposed.outputs:
            query = next(q for q in batch if q.name == output.query_name)
            ref = output.term_refs[0][0]
            data = view_data[ref.view_id]
            expected_rel = default[query.name]
            got_total = float(np.sum(data.sums[ref.agg_index]))
            agg_name = query.aggregates[0].name or "agg"
            expected_total = float(np.sum(expected_rel.column(agg_name)))
            assert np.isclose(got_total, expected_total, rtol=1e-7, atol=1e-7)

    @given(snowflake_db())
    @settings(max_examples=15, deadline=None)
    def test_subdim_groupby_carried_two_edges(self, db):
        """Group-by on SubDim's key when rooted at Fact: 'c' rides
        through Dim's view."""
        batch = QueryBatch(
            [Query("g", ["c"], [Aggregate.of("x", name="sx")])]
        )
        tree = None
        engine = LMFAO(db, tree)
        got = engine.run(batch)
        expected = MaterializedEngine(db).run(batch)
        assert_results_equal(got, expected, batch, rtol=1e-7, atol=1e-7)
