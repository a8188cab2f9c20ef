"""Group Views: ranks, groups, dependency DAG, execution levels."""

import pytest

from repro import LMFAO, Aggregate, Query, QueryBatch
from repro.engine.grouping import group_views
from repro.engine.pushdown import Decomposer
from repro.engine.roots import assign_roots
from repro.jointree.join_tree import join_tree_from_database

from .test_key_encodings import paper_batches


def assert_listed_topologically(grouped):
    """Every dependency is listed before its consumer, and a group's id
    is its position in the list."""
    assert grouped.groups
    for position, group in enumerate(grouped.groups):
        assert group.id == position
        for dep in group.depends_on:
            assert dep < position, (dep, group.id)


def grouped_for(db, batch, group_enabled=True, multi_root=True):
    tree = join_tree_from_database(db)
    roots = assign_roots(batch, tree, db, multi_root=multi_root)
    decomposed = Decomposer(tree).decompose(batch, roots)
    return decomposed, group_views(decomposed, group_enabled=group_enabled)


class TestGrouping:
    def test_groups_cover_all_views(self, toy_db):
        batch = QueryBatch(
            [
                Query("a", ["city"], [Aggregate.count()]),
                Query("b", [], [Aggregate.of("units", name="u")]),
            ]
        )
        decomposed, grouped = grouped_for(toy_db, batch)
        grouped_ids = sorted(
            vid for group in grouped.groups for vid in group.view_ids
        )
        assert grouped_ids == sorted(v.id for v in decomposed.views)

    def test_group_views_share_source_node(self, toy_db):
        batch = QueryBatch(
            [Query("a", ["city"], [Aggregate.count()])]
        )
        decomposed, grouped = grouped_for(toy_db, batch)
        for group in grouped.groups:
            for vid in group.view_ids:
                assert decomposed.views[vid].source == group.node

    def test_no_intragroup_dependencies(self, toy_db):
        batch = QueryBatch(
            [
                Query("a", ["city"], [Aggregate.of("units", name="u")]),
                Query("b", ["date"], [Aggregate.of("units", name="u")]),
                Query("c", [], [Aggregate.count()]),
            ]
        )
        decomposed, grouped = grouped_for(toy_db, batch)
        reachable = {}

        def deps_of(vid):
            if vid not in reachable:
                direct = set(decomposed.views[vid].referenced_view_ids())
                closure = set(direct)
                for d in direct:
                    closure |= deps_of(d)
                reachable[vid] = closure
            return reachable[vid]

        for group in grouped.groups:
            ids = set(group.view_ids)
            for vid in ids:
                assert not (deps_of(vid) & ids), (
                    f"view {vid} depends on a view in its own group"
                )

    def test_dependency_graph_respects_refs(self, toy_db):
        batch = QueryBatch([Query("a", ["city"], [Aggregate.count()])])
        decomposed, grouped = grouped_for(toy_db, batch)
        for group in grouped.groups:
            for vid in group.view_ids:
                for ref in decomposed.views[vid].referenced_view_ids():
                    dep_group = grouped.group_of[ref]
                    if dep_group != group.id:
                        assert dep_group in group.depends_on

    def test_groups_listed_topologically(self, toy_db):
        """``grouped.groups`` is the execution order by itself — every
        dependency appears before its consumer (the contract the group
        loop and hand-rolled test loops rely on)."""
        batch = QueryBatch(
            [
                Query("a", ["city"], [Aggregate.count()]),
                Query("b", ["price"], [Aggregate.count()]),
            ]
        )
        _, grouped = grouped_for(toy_db, batch)
        assert_listed_topologically(grouped)

    @pytest.mark.parametrize("merge_mode", ["full", "dedup", "none"])
    @pytest.mark.parametrize("multi_root", [True, False])
    @pytest.mark.parametrize("group_enabled", [True, False])
    @pytest.mark.parametrize(
        "fixture",
        ["tiny_retailer", "tiny_favorita", "tiny_yelp", "tiny_tpcds"],
    )
    def test_paper_batches_listed_topologically(
        self, request, fixture, group_enabled, multi_root, merge_mode
    ):
        ds = request.getfixturevalue(fixture)
        engine = LMFAO(
            ds.database,
            ds.join_tree,
            multi_root=multi_root,
            merge_mode=merge_mode,
            group_views=group_enabled,
        )
        for batch in paper_batches(ds, engine):
            assert_listed_topologically(engine.plan(batch).grouped)

    def test_grouping_disabled_gives_singletons(self, toy_db):
        batch = QueryBatch([Query("a", ["city"], [Aggregate.count()])])
        decomposed, grouped = grouped_for(toy_db, batch, group_enabled=False)
        assert grouped.n_groups == decomposed.n_views
        for group in grouped.groups:
            assert len(group.view_ids) == 1

    def test_grouping_reduces_group_count(self, tiny_favorita):
        from repro.ml import CovarBatch

        ds = tiny_favorita
        batch = CovarBatch(["txns"], ["stype", "family"], "units").batch
        decomposed, grouped = grouped_for(ds.database, batch)
        _, ungrouped = grouped_for(ds.database, batch, group_enabled=False)
        assert grouped.n_groups < ungrouped.n_groups
