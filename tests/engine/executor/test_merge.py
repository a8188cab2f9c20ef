"""The distributive-SUM merge delta repair folds views with.

:func:`merge` lives in :mod:`repro.engine.viewcache.cache`.
"""

import numpy as np
import pytest

from repro import LMFAO
from repro.engine.interpreter import ViewData, execute_plan
from repro.engine.viewcache import ViewCache
from repro.engine.viewcache.cache import _regrouped, merge

from ..helpers import WORKLOADS, output_view_ids


def view_table(view):
    """{group key: [sums...]} of one view, independent of row order."""
    columns = list(view.sums)
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
        engine = LMFAO(toy_db, root="Sales", view_cache=ViewCache())
        plan = engine.plan(batch)
        views = {}
        for group_plan in plan.group_plans:
            relation = engine.database.relation(group_plan.node)
            incoming = {vid: views[vid] for vid in group_plan.input_view_ids}
            whole = execute_plan(group_plan, relation, incoming, dyn)
            cut = relation.n_rows // 3
            head, tail = (
                execute_plan(group_plan, relation.take(rows), incoming, dyn)
                for rows in (
                    np.arange(cut),
                    np.arange(cut, relation.n_rows),
                )
            )
            assert set(head) == set(tail) == set(whole)
            for vid, expected in whole.items():
                got = merge(head[vid], tail[vid])
                assert got.group_by == expected.group_by
                assert got.count == expected.count
                got_table = view_table(got)
                expected_table = view_table(expected)
                assert got_table.keys() == expected_table.keys()
                for key, sums in expected_table.items():
                    assert got_table[key] == pytest.approx(
                        sums, rel=1e-9, abs=1e-9
                    )
            views.update(whole)
        assert views.keys() >= output_view_ids(plan)


def grouped_view(keys, values, support=None):
    """A view keyed by ``g``; ``support`` (optional) is its COUNT row."""
    rows = [values] if support is None else [values, support]
    return ViewData(
        ("g",),
        [np.asarray(keys)],
        np.asarray(rows, dtype=np.float64),
        None if support is None else 1,
    )


def count_row(view):
    return view.sums[view.count]


class TestMerge:
    def test_scalar_views_add(self):
        part1 = ViewData((), [], np.array([[2.0], [5.0]]))
        part2 = ViewData((), [], np.array([[3.0], [-1.0]]))
        merged = merge(part1, part2)
        assert merged.sums[0].tolist() == [5.0]
        assert merged.sums[1].tolist() == [4.0]

    def test_grouped_views_reaggregate(self):
        merged = merge(
            grouped_view([0, 1], [1.0, 2.0]),
            grouped_view([1, 2], [10.0, 20.0]),
        )
        table = dict(
            zip(merged.key_cols[0].tolist(), merged.sums[0].tolist())
        )
        assert table == {0: 1.0, 1: 12.0, 2: 20.0}

    def test_merged_keys_sorted(self):
        merged = merge(
            grouped_view([5, 1], [1.0, 1.0]), grouped_view([3], [1.0])
        )
        assert merged.key_cols[0].tolist() == [1, 3, 5]


class TestMergeEdgeCases:
    """The merge IVM relies on: degenerate delta shapes."""

    def test_no_delta_grouped_reaggregates_to_itself(self):
        merged = merge(grouped_view([1, 4], [3.0, 9.0]))
        assert merged.key_cols[0].tolist() == [1, 4]
        assert merged.sums[0].tolist() == [3.0, 9.0]

    def test_no_delta_scalar(self):
        merged = merge(ViewData((), [], np.array([[4.5]])))
        assert merged.sums[0].tolist() == [4.5]

    def test_disjoint_group_keys_concatenate(self):
        merged = merge(
            grouped_view([0, 1], [1.0, 2.0]), grouped_view([5, 9], [3.0, 4.0])
        )
        assert merged.key_cols[0].tolist() == [0, 1, 5, 9]
        assert merged.sums[0].tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_fully_overlapping_group_keys_sum(self):
        merged = merge(
            grouped_view([0, 1], [1.0, 2.0]),
            grouped_view([0, 1], [10.0, 20.0]),
        )
        assert merged.key_cols[0].tolist() == [0, 1]
        assert merged.sums[0].tolist() == [11.0, 22.0]

    def test_composite_keys_align_by_tuple(self):
        part1 = ViewData(
            ("a", "b"),
            [np.array([0, 0]), np.array([0, 1])],
            np.array([[1.0, 2.0]]),
        )
        part2 = ViewData(
            ("a", "b"),
            [np.array([0, 1]), np.array([1, 0])],
            np.array([[5.0, 7.0]]),
        )
        merged = merge(part1, part2)
        table = dict(
            zip(
                zip(
                    merged.key_cols[0].tolist(),
                    merged.key_cols[1].tolist(),
                ),
                merged.sums[0].tolist(),
            )
        )
        assert table == {(0, 0): 1.0, (0, 1): 7.0, (1, 0): 7.0}

    def test_support_merges_like_a_sum_column(self):
        merged = merge(
            grouped_view([0, 1], [1.0, 2.0], support=[2.0, 1.0]),
            grouped_view([1], [-2.0], support=[1.0]),
        )
        assert count_row(merged).tolist() == [2.0, 2.0]
        assert merged.sums[0].tolist() == [1.0, 0.0]


class TestDeltaMerge:
    """``merge(current, +delta, -delta)`` — the delta-repair recipe of
    ``ViewCache.on_delta`` — on the degenerate shapes a delta stream
    produces."""

    def test_retracted_key_is_retired(self):
        current = grouped_view([0, 1], [1.0, 2.0], support=[1.0, 1.0])
        delta = grouped_view([1], [-2.0], support=[-1.0])
        merged = merge(current, delta)
        assert merged.key_cols[0].tolist() == [0]
        assert merged.sums[0].tolist() == [1.0]
        assert count_row(merged).tolist() == [1.0]

    def test_zero_support_retires_even_a_nonzero_sum(self):
        current = grouped_view([0, 1, 2], [1.0, 0.5, 3.0],
                               support=[2.0, 1.0, 1.0])
        delta = grouped_view([1], [0.0], support=[-1.0])
        merged = merge(current, delta)
        assert merged.key_cols[0].tolist() == [0, 2]
        assert merged.sums[0].tolist() == [1.0, 3.0]
        assert count_row(merged).tolist() == [2.0, 1.0]

    def test_zero_sum_key_is_kept_without_support(self):
        current = grouped_view([0, 1], [1.0, 2.0])
        merged = merge(current, grouped_view([1], [-2.0]))
        assert merged.key_cols[0].tolist() == [0, 1]
        assert merged.sums[0].tolist() == [1.0, 0.0]

    def test_zero_row_delta_views(self):
        """A delta whose views carry zero rows merges cleanly."""
        current = grouped_view([0, 1], [1.0, 2.0], support=[1.0, 1.0])
        empty = grouped_view(
            np.array([], dtype=np.int64), [], support=[]
        )
        merged = merge(current, empty)
        assert merged.key_cols[0].tolist() == [0, 1]
        assert merged.sums[0].tolist() == [1.0, 2.0]

    def test_all_retracted(self):
        """Retracting every contributing row retires every group key:
        the maintained view is empty, exactly like a from-scratch run
        over the emptied relation."""
        current = grouped_view([0, 1], [1.0, 2.0], support=[1.0, 1.0])
        retract_all = grouped_view([0, 1], [-1.0, -2.0], support=[-1.0, -1.0])
        merged = merge(current, retract_all)
        assert merged.n_rows == 0
        assert merged.key_cols[0].tolist() == []
        assert merged.sums[0].tolist() == []
        assert count_row(merged).tolist() == []


class TestInPlaceMerge:
    """A delta holding only keys the view holds is added at those keys'
    rows instead of regrouping every piece."""

    @staticmethod
    def composite_view(rng, pairs, n_sums=3):
        pairs = sorted(pairs)
        return ViewData(
            ("a", "b"),
            [np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])],
            np.vstack(
                [
                    rng.normal(size=(n_sums, len(pairs))),
                    rng.integers(1, 4, len(pairs)).astype(float),
                ]
            ),
            count=n_sums,
        )

    def test_bit_for_bit_what_regrouping_gives(self):
        rng = np.random.default_rng(7)
        held = [(a, b) for a in range(6) for b in range(5)]
        current = self.composite_view(rng, held)
        for seed in range(20):
            pick = np.random.default_rng(seed).permutation(len(held))
            new = self.composite_view(rng, [held[i] for i in pick[:9]])
            old = self.composite_view(rng, [held[i] for i in pick[5:12]])
            pieces = (current, new, old.with_sums(-old.sums))
            got = merge(*pieces)
            expected = _regrouped(pieces)
            for got_col, expected_col in zip(
                got.key_cols + list(got.sums),
                expected.key_cols + list(expected.sums),
            ):
                assert np.array_equal(got_col, expected_col)

    def test_key_encodings_carry_over(self):
        current = grouped_view([1, 4, 7], [1.0, 2.0, 3.0], support=[1, 1, 1])
        encoded = current.encoded(0)
        merged = merge(current, grouped_view([4], [5.0], support=[2]))
        assert merged.key_cols[0] is current.key_cols[0]
        assert merged.encoded(0) is encoded
        assert merged.sums[0].tolist() == [1.0, 7.0, 3.0]
        assert count_row(merged).tolist() == [1.0, 3.0, 1.0]

    def test_retiring_a_key_in_place_drops_its_row(self):
        current = grouped_view([1, 4, 7], [1.0, 2.0, 3.0], support=[1, 1, 2])
        merged = merge(
            current, grouped_view([4, 7], [-2.0, -1.0], support=[-1, -1])
        )
        assert merged.key_cols[0].tolist() == [1, 7]
        assert merged.sums[0].tolist() == [1.0, 2.0]
        assert count_row(merged).tolist() == [1.0, 1.0]

    def test_a_new_key_regroups(self):
        current = grouped_view([1, 4], [1.0, 2.0], support=[1, 1])
        merged = merge(
            current,
            grouped_view([4], [1.0], support=[1]),
            grouped_view([2], [5.0], support=[1]),
        )
        assert merged.key_cols[0].tolist() == [1, 2, 4]
        assert merged.sums[0].tolist() == [1.0, 5.0, 3.0]
        assert count_row(merged).tolist() == [1.0, 1.0, 2.0]
