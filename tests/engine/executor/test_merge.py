"""The distributive-SUM merge primitive delta repair folds views with.

:func:`merge_partials` lives in :mod:`repro.engine.executor.store`.
"""

import numpy as np
import pytest

from repro import LMFAO
from repro.engine.executor import (
    DataflowScheduler,
    merge_partials,
    retire_dead_keys,
)
from repro.engine.interpreter import ViewData, execute_plan

from ..helpers import WORKLOADS


def view_table(view, with_support):
    """{group key: [sums..., support]} of one view, independent of row order."""
    columns = list(view.agg_cols)
    if with_support:
        columns.append(view.support)
    n_rows = len(columns[0])
    if view.key_cols:
        keys = list(zip(*(col.tolist() for col in view.key_cols)))
    else:
        keys = [()] * n_rows
    return {key: [float(col[i]) for col in columns] for i, key in enumerate(keys)}


class TestRowSplitsMergeToTheWhole:
    """A group run over a split of its relation's rows merges back to the
    run over all of them — what delta repair relies on when it folds a
    delta partition's views into the cached ones."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_every_group_of_the_workload(self, toy_db, workload):
        batch = WORKLOADS[workload]()
        dyn = batch.dynamic_functions()
        engine = LMFAO(toy_db, compile=False, root="Sales", track_support=True)
        plan = engine.plan(batch)
        views = {}

        def task(group_id):
            group_plan = plan.group_plans[group_id]
            relation = engine.database.relation(group_plan.node)
            incoming = {vid: views[vid] for vid in group_plan.input_view_ids}
            whole = execute_plan(group_plan, relation, incoming, dyn)
            cut = relation.n_rows // 3
            merged = merge_partials(
                [
                    execute_plan(group_plan, relation.take(rows), incoming, dyn)
                    for rows in (
                        np.arange(cut),
                        np.arange(cut, relation.n_rows),
                    )
                ]
            )
            assert set(merged) == set(whole)
            for vid, expected in whole.items():
                got = merged[vid]
                assert got.group_by == expected.group_by
                with_support = expected.support is not None and bool(
                    expected.group_by
                )
                got_table = view_table(got, with_support)
                expected_table = view_table(expected, with_support)
                assert got_table.keys() == expected_table.keys()
                for key, sums in expected_table.items():
                    assert got_table[key] == pytest.approx(
                        sums, rel=1e-9, abs=1e-9
                    )
            return whole

        DataflowScheduler().run(
            plan.dependencies(),
            task,
            lambda group_id, produced: views.update(produced),
        )
        assert views.keys() >= plan.output_view_ids()


class TestMergePartials:
    def test_scalar_views_add(self):
        part1 = {0: ViewData((), [], [np.array([2.0]), np.array([5.0])])}
        part2 = {0: ViewData((), [], [np.array([3.0]), np.array([-1.0])])}
        merged = merge_partials([part1, part2])
        assert merged[0].agg_cols[0].tolist() == [5.0]
        assert merged[0].agg_cols[1].tolist() == [4.0]

    def test_grouped_views_reaggregate(self):
        part1 = {
            1: ViewData(
                ("g",), [np.array([0, 1])], [np.array([1.0, 2.0])]
            )
        }
        part2 = {
            1: ViewData(
                ("g",), [np.array([1, 2])], [np.array([10.0, 20.0])]
            )
        }
        merged = merge_partials([part1, part2])
        table = dict(
            zip(merged[1].key_cols[0].tolist(), merged[1].agg_cols[0].tolist())
        )
        assert table == {0: 1.0, 1: 12.0, 2: 20.0}

    def test_view_missing_from_one_partition(self):
        part1 = {0: ViewData((), [], [np.array([1.0])])}
        part2 = {}
        merged = merge_partials([part1, part2])
        assert merged[0].agg_cols[0].tolist() == [1.0]

    def test_merged_keys_sorted(self):
        part1 = {1: ViewData(("g",), [np.array([5, 1])], [np.array([1.0, 1.0])])}
        part2 = {1: ViewData(("g",), [np.array([3])], [np.array([1.0])])}
        merged = merge_partials([part1, part2])
        assert merged[1].key_cols[0].tolist() == [1, 3, 5]


class TestMergePartialsEdgeCases:
    """The merge primitive IVM relies on: degenerate partition shapes."""

    def test_no_partitions(self):
        assert merge_partials([]) == {}

    def test_all_partitions_empty(self):
        assert merge_partials([{}, {}, {}]) == {}

    def test_single_partition_grouped_reaggregates_to_itself(self):
        part = {
            2: ViewData(
                ("g",), [np.array([1, 4])], [np.array([3.0, 9.0])]
            )
        }
        merged = merge_partials([part])
        assert merged[2].key_cols[0].tolist() == [1, 4]
        assert merged[2].agg_cols[0].tolist() == [3.0, 9.0]

    def test_single_partition_scalar(self):
        part = {0: ViewData((), [], [np.array([4.5])])}
        merged = merge_partials([part])
        assert merged[0].agg_cols[0].tolist() == [4.5]

    def test_disjoint_group_keys_concatenate(self):
        part1 = {1: ViewData(("g",), [np.array([0, 1])], [np.array([1.0, 2.0])])}
        part2 = {1: ViewData(("g",), [np.array([5, 9])], [np.array([3.0, 4.0])])}
        merged = merge_partials([part1, part2])
        assert merged[1].key_cols[0].tolist() == [0, 1, 5, 9]
        assert merged[1].agg_cols[0].tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_fully_overlapping_group_keys_sum(self):
        part1 = {1: ViewData(("g",), [np.array([0, 1])], [np.array([1.0, 2.0])])}
        part2 = {1: ViewData(("g",), [np.array([0, 1])], [np.array([10.0, 20.0])])}
        merged = merge_partials([part1, part2])
        assert merged[1].key_cols[0].tolist() == [0, 1]
        assert merged[1].agg_cols[0].tolist() == [11.0, 22.0]

    def test_composite_keys_align_by_tuple(self):
        part1 = {
            1: ViewData(
                ("a", "b"),
                [np.array([0, 0]), np.array([0, 1])],
                [np.array([1.0, 2.0])],
            )
        }
        part2 = {
            1: ViewData(
                ("a", "b"),
                [np.array([0, 1]), np.array([1, 0])],
                [np.array([5.0, 7.0])],
            )
        }
        merged = merge_partials([part1, part2])
        table = dict(
            zip(
                zip(
                    merged[1].key_cols[0].tolist(),
                    merged[1].key_cols[1].tolist(),
                ),
                merged[1].agg_cols[0].tolist(),
            )
        )
        assert table == {(0, 0): 1.0, (0, 1): 7.0, (1, 0): 7.0}

    def test_support_merges_like_a_sum_column(self):
        part1 = {
            1: ViewData(
                ("g",),
                [np.array([0, 1])],
                [np.array([1.0, 2.0])],
                support=np.array([2.0, 1.0]),
            )
        }
        part2 = {
            1: ViewData(
                ("g",),
                [np.array([1])],
                [np.array([-2.0])],
                support=np.array([-1.0]),
            )
        }
        merged = merge_partials([part1, part2])
        assert merged[1].support.tolist() == [2.0, 0.0]
        assert merged[1].agg_cols[0].tolist() == [1.0, 0.0]

    def test_support_dropped_when_any_piece_lacks_it(self):
        part1 = {
            1: ViewData(
                ("g",),
                [np.array([0])],
                [np.array([1.0])],
                support=np.array([1.0]),
            )
        }
        part2 = {1: ViewData(("g",), [np.array([0])], [np.array([1.0])])}
        merged = merge_partials([part1, part2])
        assert merged[1].support is None
        assert merged[1].agg_cols[0].tolist() == [2.0]


def grouped_view(keys, values, support=None):
    return ViewData(
        ("g",),
        [np.asarray(keys)],
        [np.asarray(values, dtype=np.float64)],
        support=None if support is None else np.asarray(support, float),
    )


class TestDeltaMerge:
    """``retire_dead_keys(merge_partials([current, +delta, -delta]))`` —
    the delta-repair recipe of ``ViewCache._delta_merge`` — on the
    degenerate partition shapes a delta stream produces."""

    def test_retracted_key_is_retired(self):
        current = {1: grouped_view([0, 1], [1.0, 2.0], support=[1.0, 1.0])}
        delta = {1: grouped_view([1], [-2.0], support=[-1.0])}
        merged = merge_partials([current, delta])[1]
        # the merge alone keeps the zero-support key ...
        assert merged.key_cols[0].tolist() == [0, 1]
        # ... retirement drops it
        retired = retire_dead_keys(merged)
        assert retired.key_cols[0].tolist() == [0]
        assert retired.agg_cols[0].tolist() == [1.0]

    def test_empty_delta_partition(self):
        """A delta partition with no view entries at all is a no-op
        merge — empty deltas are skipped upstream, but the primitive
        must still be safe against them."""
        current = {1: grouped_view([0, 1], [1.0, 2.0])}
        merged = merge_partials([current, {}])[1]
        assert merged.key_cols[0].tolist() == [0, 1]
        assert merged.agg_cols[0].tolist() == [1.0, 2.0]

    def test_zero_row_delta_views(self):
        """A delta partition whose views carry zero rows merges cleanly."""
        current = {1: grouped_view([0, 1], [1.0, 2.0])}
        empty = grouped_view(
            np.array([], dtype=np.int64), np.array([], dtype=np.float64)
        )
        merged = merge_partials([current, {1: empty}])[1]
        assert merged.key_cols[0].tolist() == [0, 1]
        assert merged.agg_cols[0].tolist() == [1.0, 2.0]

    def test_all_retracted_partition(self):
        """Retracting every contributing row retires every group key:
        the maintained view is empty, exactly like a from-scratch run
        over the emptied relation."""
        current = {1: grouped_view([0, 1], [1.0, 2.0], support=[1.0, 1.0])}
        retract_all = {
            1: grouped_view([0, 1], [-1.0, -2.0], support=[-1.0, -1.0])
        }
        merged = retire_dead_keys(merge_partials([current, retract_all])[1])
        assert merged.n_rows == 0
        assert merged.key_cols[0].tolist() == []
        assert merged.agg_cols[0].tolist() == []
        assert merged.support.tolist() == []
