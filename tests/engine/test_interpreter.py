"""Step-level tests of the interpreted executor and ViewData."""

import numpy as np
import pytest

from repro import LMFAO, Aggregate, Query, QueryBatch
from repro.data import Relation
from repro.data.schema import Schema, continuous, key
from repro.engine.grouping import group_views
from repro.engine.interpreter import ViewData, execute_plan
from repro.engine.plan import build_group_plan
from repro.engine.pushdown import Decomposer
from repro.jointree.join_tree import join_tree_from_database


class TestViewData:
    def test_scalar_view(self):
        data = ViewData((), [], np.array([[7.0]]))
        assert data.n_rows == 1

    def test_grouped_view(self):
        data = ViewData(
            ("g",), [np.array([1, 2, 3])], np.zeros((1, 3))
        )
        assert data.n_rows == 3


def make_plan(db, batch):
    tree = join_tree_from_database(db)
    from repro.engine.roots import assign_roots

    roots = assign_roots(batch, tree, db)
    decomposed = Decomposer(tree).decompose(batch, roots)
    grouped = group_views(decomposed)
    dyn_slots = {}
    plans = [
        build_group_plan(
            group, decomposed.views, db.relation(group.node), dyn_slots
        )
        for group in grouped.groups
    ]
    return decomposed, grouped, plans


class TestExecutePlan:
    def test_leaf_group_produces_views(self, toy_db):
        batch = QueryBatch(
            [Query("g", ["city"], [Aggregate.of("units", name="u")])]
        )
        decomposed, grouped, plans = make_plan(toy_db, batch)
        first = plans[0]
        produced = execute_plan(
            first, toy_db.relation(first.node), {}, []
        )
        assert set(produced) == set(first.group.view_ids)

    def test_full_pipeline_by_hand(self, toy_db):
        batch = QueryBatch(
            [Query("n", [], [Aggregate.count()])]
        )
        decomposed, grouped, plans = make_plan(toy_db, batch)
        view_data = {}
        for group in grouped.groups:  # topological order
            plan = plans[group.id]
            incoming = {
                vid: view_data[vid] for vid in plan.input_view_ids
            }
            view_data.update(
                execute_plan(
                    plan, toy_db.relation(plan.node), incoming, []
                )
            )
        output = next(
            view_data[v.id]
            for v in decomposed.views
            if v.is_output
        )
        assert output.sums[0][0] == 300.0

    def test_empty_relation_produces_empty_views(self):
        sales = Relation(
            "S",
            Schema([key("k"), continuous("x")]),
            {"k": np.array([], dtype=np.int64), "x": np.array([])},
        )
        dim = Relation(
            "D",
            Schema([key("k"), continuous("y")]),
            {"k": np.array([1, 2]), "y": np.array([1.0, 2.0])},
        )
        from repro.data import Database

        db = Database([sales, dim])
        engine = LMFAO(db)
        batch = QueryBatch(
            [
                Query("n", [], [Aggregate.count()]),
                Query("g", ["k"], [Aggregate.of("x", name="sx")]),
            ]
        )
        result = engine.run(batch)
        assert result["n"].column("count")[0] == 0.0
        assert result["g"].n_rows == 0

    def test_plan_describe_lists_steps(self, toy_db):
        batch = QueryBatch([Query("n", [], [Aggregate.count()])])
        _, _, plans = make_plan(toy_db, batch)
        text = plans[0].describe()
        assert "group" in text


class TestDanglingTuples:
    def test_fact_rows_without_dimension_partner_dropped(self):
        """Join semantics: a fact row with no dimension match is not in
        the join and must not be counted."""
        from repro.data import Database

        sales = Relation(
            "S",
            Schema([key("k"), continuous("x")]),
            {"k": np.array([1, 2, 99]), "x": np.array([1.0, 2.0, 4.0])},
        )
        dim = Relation(
            "D",
            Schema([key("k")]),
            {"k": np.array([1, 2])},
        )
        db = Database([sales, dim])
        engine = LMFAO(db)
        result = engine.run(
            QueryBatch(
                [
                    Query("n", [], [Aggregate.count()]),
                    Query("sx", [], [Aggregate.of("x", name="v")]),
                ]
            )
        )
        assert result["n"].column("count")[0] == 2.0
        assert result["sx"].column("v")[0] == 3.0

    def test_dimension_fanout_counted(self):
        """A fact row matching several dimension rows contributes once
        per combination (bag semantics)."""
        from repro.data import Database

        fact = Relation(
            "F",
            Schema([key("k")]),
            {"k": np.array([1])},
        )
        dim = Relation(
            "D",
            Schema([key("k"), continuous("y")]),
            {"k": np.array([1, 1, 1]), "y": np.array([1.0, 2.0, 3.0])},
        )
        db = Database([fact, dim])
        engine = LMFAO(db)
        result = engine.run(
            QueryBatch(
                [
                    Query("n", [], [Aggregate.count()]),
                    Query("sy", [], [Aggregate.of("y", name="v")]),
                ]
            )
        )
        assert result["n"].column("count")[0] == 3.0
        assert result["sy"].column("v")[0] == 6.0
