"""Incremental view maintenance: differential tests against recomputation.

Every test asserts the same contract: after any sequence of
``apply_delta`` calls, the incremental engine's results have *exactly*
the group keys a from-scratch evaluation of the updated database
produces, and aggregate values that agree to floating-point roundoff
(sums are re-associated by the merge, so the last few ulps may differ).
"""

import numpy as np
import pytest

from repro import (
    Aggregate,
    DeltaBatch,
    IncrementalEngine,
    LMFAO,
    Query,
    QueryBatch,
)
from repro.data import Database, Relation
from repro.data.database import AppliedDelta
from repro.engine.plan import DotStep, GroupSumStep
from repro.engine.viewcache import ViewCache
from repro.workloads import build

from .helpers import assert_results_equal


def simple_batch(extra_group_by):
    """A small mixed batch: scalar count + grouped sums."""
    queries = [
        Query("n", [], [Aggregate.count()]),
        Query(
            "by_key",
            list(extra_group_by),
            [Aggregate.count(name="cnt")],
        ),
    ]
    return QueryBatch(queries)


def reference_results(engine, batch):
    """From-scratch evaluation of the engine's current database."""
    ref = LMFAO(engine.database, engine.engine.join_tree)
    return ref.run(batch)


def sample_inserts(rng, relation, n):
    """n new rows drawn (with replacement) from existing rows."""
    idx = rng.integers(0, relation.n_rows, n)
    return {a: relation.column(a)[idx] for a in relation.schema.names}


DATASET_FIXTURES = [
    "tiny_retailer",
    "tiny_favorita",
    "tiny_yelp",
    "tiny_tpcds",
]


@pytest.fixture(params=DATASET_FIXTURES)
def any_dataset(request):
    return request.getfixturevalue(request.param)


class TestDeltaBatchApi:
    def test_insert_appends_rows(self, toy_db):
        applied = toy_db.apply_delta(
            DeltaBatch.insert(
                "Oil", {"date": np.array([100]), "price": np.array([9.5])}
            )
        )
        assert isinstance(applied, AppliedDelta)
        assert applied.database.relation("Oil").n_rows == 26
        assert applied.inserted.n_rows == 1
        assert applied.deleted is None

    def test_delete_splits_rows(self, toy_db):
        applied = toy_db.apply_delta(
            DeltaBatch.delete("Oil", np.array([0, 2, 2]))
        )
        assert applied.database.relation("Oil").n_rows == 23
        assert applied.deleted.n_rows == 2  # indices deduplicated
        assert applied.inserted is None

    def test_delete_out_of_range_raises(self, toy_db):
        with pytest.raises(IndexError):
            toy_db.apply_delta(DeltaBatch.delete("Oil", np.array([99])))

    def test_mixed_deletes_before_inserts(self, toy_db):
        oil = toy_db.relation("Oil")
        applied = toy_db.apply_delta(
            DeltaBatch(
                "Oil",
                inserts={
                    "date": np.array([100, 101]),
                    "price": np.array([1.0, 2.0]),
                },
                delete_indices=np.array([5]),
            )
        )
        assert applied.database.relation("Oil").n_rows == oil.n_rows + 1
        assert applied.deleted.column("date").tolist() == [5]
        assert applied.inserted.column("date").tolist() == [100, 101]

    def test_empty_delta(self):
        assert DeltaBatch("Oil").is_empty
        assert DeltaBatch("Oil", inserts={"date": np.array([])}).is_empty
        assert not DeltaBatch.delete("Oil", np.array([1])).is_empty

    def test_match_rows(self, toy_db):
        oil = toy_db.relation("Oil")
        idx = oil.match_rows({"date": np.array([3, 7])})
        assert oil.column("date")[idx].tolist() == [3, 7]


class TestIncrementalMatchesRecomputation:
    """apply_delta == full recomputation on all four bundled datasets."""

    def _delta_roundtrip(self, ds, deltas_fn, batch=None):
        engine = IncrementalEngine(ds.database, ds.join_tree)
        fact = engine.root
        if batch is None:
            group_attr = ds.categorical_features[0]
            batch = simple_batch([group_attr])
        engine.run(batch)
        rng = np.random.default_rng(0)
        report = engine.apply_delta(
            *deltas_fn(rng, engine.database.relation(fact))
        )
        got = engine.run(batch)
        expected = reference_results(engine, batch)
        assert_results_equal(got, expected, batch, rtol=1e-9, atol=1e-9)
        return report

    def test_inserts(self, any_dataset):
        def deltas(rng, fact):
            return [
                DeltaBatch.insert(
                    fact.name, sample_inserts(rng, fact, fact.n_rows // 20)
                )
            ]

        report = self._delta_roundtrip(any_dataset, deltas)
        assert report.all_incremental

    def test_deletes(self, any_dataset):
        def deltas(rng, fact):
            idx = rng.choice(fact.n_rows, fact.n_rows // 20, replace=False)
            return [DeltaBatch.delete(fact.name, idx)]

        report = self._delta_roundtrip(any_dataset, deltas)
        assert report.all_incremental

    def test_mixed(self, any_dataset):
        def deltas(rng, fact):
            idx = rng.choice(fact.n_rows, fact.n_rows // 30, replace=False)
            return [
                DeltaBatch(
                    fact.name,
                    inserts=sample_inserts(rng, fact, fact.n_rows // 30),
                    delete_indices=idx,
                )
            ]

        report = self._delta_roundtrip(any_dataset, deltas)
        assert report.all_incremental

    def test_empty_delta_is_noop(self, any_dataset):
        def deltas(rng, fact):
            return [DeltaBatch(fact.name)]

        report = self._delta_roundtrip(any_dataset, deltas)
        assert report.n_changes == 0
        assert report.maintenance == []

    def test_covar_workload(self, tiny_favorita):
        ds = tiny_favorita
        batch = build(ds, "covar")

        def deltas(rng, fact):
            idx = rng.choice(fact.n_rows, fact.n_rows // 50, replace=False)
            return [
                DeltaBatch(
                    fact.name,
                    inserts=sample_inserts(rng, fact, fact.n_rows // 50),
                    delete_indices=idx,
                )
            ]

        report = self._delta_roundtrip(ds, deltas, batch=batch)
        assert report.all_incremental


class TestDeltaPartitionRuns:
    """A group plan run over a partition of its node relation is that
    partition's additive share of every view: inserted rows add it,
    retracted rows add its negation."""

    def _sales_group(self, toy_db, batch=None):
        from repro.engine.interpreter import execute_plan

        engine = LMFAO(toy_db, root="Sales", view_cache=ViewCache())
        plan = engine.plan(batch or simple_batch(["city"]))
        view_data = {}
        for group_plan in plan.group_plans:  # topological order
            view_data.update(
                execute_plan(
                    group_plan,
                    toy_db.relation(group_plan.node),
                    {v: view_data[v] for v in group_plan.input_view_ids},
                    [],
                )
            )
        group = next(g for g in plan.grouped.groups if g.node == "Sales")
        group_plan = plan.group_plans[group.id]
        incoming = {vid: view_data[vid] for vid in group_plan.input_view_ids}
        return group_plan, incoming

    def _assert_same_views(self, got, want):
        assert set(got) == set(want)
        for vid in want:
            for a, b in zip(got[vid].key_cols, want[vid].key_cols):
                np.testing.assert_array_equal(a, b)
            for a, b in zip(got[vid].sums, want[vid].sums):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
            assert got[vid].count == want[vid].count

    def test_inserted_rows_add_their_run(self, toy_db):
        from repro.engine.interpreter import execute_plan
        from repro.engine.viewcache.cache import merge

        group_plan, incoming = self._sales_group(toy_db)
        sales = toy_db.relation("Sales")
        head = sales.take(np.arange(10))
        tail = sales.take(np.arange(10, sales.n_rows))
        inserted = execute_plan(group_plan, head, incoming, [])
        merged = {
            vid: merge(data, inserted[vid])
            for vid, data in execute_plan(
                group_plan, tail, incoming, []
            ).items()
        }
        self._assert_same_views(
            merged, execute_plan(group_plan, sales, incoming, [])
        )

    def test_retracted_rows_add_their_negated_run(self, toy_db):
        from repro.engine.interpreter import execute_plan
        from repro.engine.viewcache.cache import merge

        group_plan, incoming = self._sales_group(toy_db)
        sales = toy_db.relation("Sales")
        head = sales.take(np.arange(10))
        tail = sales.take(np.arange(10, sales.n_rows))
        retraction = {
            vid: data.with_sums(-data.sums)
            for vid, data in execute_plan(
                group_plan, head, incoming, []
            ).items()
        }
        merged = {
            vid: merge(data, retraction[vid])
            for vid, data in execute_plan(
                group_plan, sales, incoming, []
            ).items()
        }
        self._assert_same_views(
            merged, execute_plan(group_plan, tail, incoming, [])
        )

    # -- one signed run == the inserted rows' run - the retracted rows' --

    @staticmethod
    def _signed_run(group_plan, relation, incoming, inserted, retracted):
        """The group run once over the inserted rows at +1 and the
        retracted rows at -1, and each of the two runs unweighted."""
        from repro.engine.interpreter import execute_plan

        ins, ret = relation.take(inserted), relation.take(retracted)
        rows = Relation(
            relation.name,
            relation.schema,
            {
                n: np.concatenate([ins.column(n), ret.column(n)])
                for n in relation.schema.names
            },
        )
        signs = np.concatenate(
            [np.ones(ins.n_rows), np.full(ret.n_rows, -1.0)]
        )
        return (
            execute_plan(group_plan, rows, incoming, [], signs),
            execute_plan(group_plan, ins, incoming, []),
            execute_plan(group_plan, ret, incoming, []),
        )

    @staticmethod
    def _by_key(data):
        """{key: aggregates} of one view's data."""
        columns = np.column_stack(list(data.sums))
        keys = zip(*(col.tolist() for col in data.key_cols))
        if not data.key_cols:
            keys = [()]
        return dict(zip(keys, columns))

    def _assert_signed_is_difference(self, signed, inserted, retracted):
        assert set(signed) == set(inserted) == set(retracted)
        for vid in signed:
            got = self._by_key(signed[vid])
            plus = self._by_key(inserted[vid])
            minus = self._by_key(retracted[vid])
            assert set(got) == set(plus) | set(minus)
            data = signed[vid]
            zero = np.zeros(len(data.sums))
            for key, row in got.items():
                np.testing.assert_allclose(
                    row,
                    plus.get(key, zero) - minus.get(key, zero),
                    rtol=1e-12,
                    atol=1e-12,
                    err_msg=f"view {vid} key {key}",
                )

    @staticmethod
    def _sum_shapes(group_plan):
        """{(grouped?, counts only?, over the bare relation?)} of the
        plan's sums; a :class:`DotStep`'s are scalar payload sums."""
        return {
            (s.codes is not None, s.values is None, s.base is None)
            for s in group_plan.steps
            if isinstance(s, GroupSumStep)
        } | {
            (False, False, s.base is None)
            for s in group_plan.steps
            if isinstance(s, DotStep)
        }

    def test_signed_run_is_inserted_minus_retracted(self, toy_db):
        batch = QueryBatch(
            [
                Query(
                    "n",
                    [],
                    [
                        Aggregate.count(),
                        Aggregate.of("units", name="u"),
                        Aggregate.of("units", "price", name="up"),
                    ],
                ),
                Query(
                    "by_city",
                    ["city"],
                    [Aggregate.count(name="c"), Aggregate.of("units", "size")],
                ),
                Query("by_store", ["store"], [Aggregate.of("units")]),
            ]
        )
        group_plan, incoming = self._sales_group(toy_db, batch)
        # scalar and grouped sums over joined rows; a count over joined
        # rows is a sum of the children's COUNT payloads
        assert {(False, False, False), (True, False, False)} <= (
            self._sum_shapes(group_plan)
        )
        # the parts overlap: rows 25-39 are inserted and retracted alike
        self._assert_signed_is_difference(
            *self._signed_run(
                group_plan,
                toy_db.relation("Sales"),
                incoming,
                np.arange(0, 40),
                np.arange(25, 60),
            )
        )

    def test_signed_run_over_the_bare_relation(self, toy_db):
        sales = toy_db.relation("Sales")
        engine = LMFAO(Database([sales], name="one"), view_cache=ViewCache())
        batch = QueryBatch(
            [
                Query("n", [], [Aggregate.count(), Aggregate.of("units")]),
                Query(
                    "by_store",
                    ["store"],
                    [Aggregate.count(name="c"), Aggregate.of("units")],
                ),
            ]
        )
        (group_plan,) = engine.plan(batch).group_plans
        # every sum shape, each over the relation's own rows
        assert self._sum_shapes(group_plan) == {
            (grouped, counts, True)
            for grouped in (False, True)
            for counts in (False, True)
        }
        self._assert_signed_is_difference(
            *self._signed_run(
                group_plan, sales, {}, np.arange(0, 40), np.arange(25, 60)
            )
        )

    def test_signed_rows_that_join_nothing_sum_to_zero(self, toy_db):
        group_plan, incoming = self._sales_group(toy_db)
        sales = toy_db.relation("Sales")
        columns = {n: sales.column(n)[:12] for n in sales.schema.names}
        columns["store"] = columns["store"] + 100  # no Stores partner
        strays = Relation("Sales", sales.schema, columns)
        signed, inserted, retracted = self._signed_run(
            group_plan, strays, incoming, np.arange(0, 8), np.arange(4, 12)
        )
        self._assert_signed_is_difference(signed, inserted, retracted)
        for data in signed.values():
            if data.group_by:
                assert data.n_rows == 0
                assert data.count is not None
            else:
                assert all(col.tolist() == [0.0] for col in data.sums)


class TestKeyRetirement:
    def test_deleting_all_rows_of_a_key_drops_it(self, tiny_favorita):
        ds = tiny_favorita
        engine = IncrementalEngine(ds.database, ds.join_tree)
        fact = engine.root
        batch = simple_batch(["store"])
        engine.run(batch)
        store_col = engine.database.relation(fact).column("store")
        victim = int(store_col[0])
        idx = np.flatnonzero(store_col == victim)
        report = engine.apply_delta(DeltaBatch.delete(fact, idx))
        assert report.all_incremental
        got = engine.run(batch)
        assert victim not in got["by_key"].column("store")
        expected = reference_results(engine, batch)
        assert_results_equal(got, expected, batch)

    def test_deleting_everything_empties_results(self, toy_db):
        engine = IncrementalEngine(toy_db)
        batch = simple_batch(["store"])
        engine.run(batch)
        fact = engine.root
        n = engine.database.relation(fact).n_rows
        report = engine.apply_delta(DeltaBatch.delete(fact, np.arange(n)))
        assert report.all_incremental
        got = engine.run(batch)
        assert got["by_key"].n_rows == 0
        assert got["n"].column("count")[0] == 0.0


class TestPropagation:
    def test_non_root_delta_propagates_not_recomputes(self, tiny_favorita):
        ds = tiny_favorita
        engine = IncrementalEngine(ds.database, ds.join_tree)
        batch = simple_batch([ds.categorical_features[0]])
        engine.run(batch)
        dim = next(r.name for r in engine.database if r.name != engine.root)
        dim_rel = engine.database.relation(dim)
        rng = np.random.default_rng(1)
        report = engine.apply_delta(
            DeltaBatch.insert(dim, sample_inserts(rng, dim_rel, 3))
        )
        # an insert-only dimension delta merges a delta at every level
        assert report.all_incremental
        assert [m.mode for m in report.maintenance] == ["incremental"]
        assert report.maintenance[0].relation == dim
        assert engine.stats()["incremental"] == 1
        assert engine.stats()["fallbacks"] == 0
        got = engine.run(batch)
        expected = reference_results(engine, batch)
        assert_results_equal(got, expected, batch)

    def test_unrepairable_view_is_a_counted_fallback(self, tiny_favorita):
        """A consumer whose cached input is gone cannot be repaired: it
        is evicted, the delta is recorded as a recompute with a reason,
        and the next run recomputes it from the updated database."""
        ds = tiny_favorita
        engine = IncrementalEngine(ds.database, ds.join_tree)
        batch = simple_batch([ds.categorical_features[0]])
        engine.run(batch)
        dim = next(r.name for r in engine.database if r.name != engine.root)
        # drop the interior view at the dimension itself (LRU pressure
        # does the same): the views above it lose the input they would
        # be re-run with
        cache = engine.view_cache
        sigs = engine.engine.view_signatures_for(engine.engine.plan(batch))
        victims = [
            sig.digest
            for sig in sigs.values()
            if sig.relations == {dim} and sig.digest in cache
        ]
        assert victims
        for digest in victims:
            cache._evict_entry(digest)
        dim_rel = engine.database.relation(dim)
        rng = np.random.default_rng(2)
        report = engine.apply_delta(
            DeltaBatch.insert(dim, sample_inserts(rng, dim_rel, 2))
        )
        record = report.maintenance[0]
        assert record.mode == "recompute"
        assert "evicted" in record.reason and dim in record.reason
        assert not report.all_incremental
        assert report.views_evicted > 0
        stats = engine.stats()
        assert stats["fallbacks"] == 1
        assert stats["last_fallback_reason"] == record.reason
        # the fallback still leaves correct state behind
        got = engine.run(batch)
        assert got.cache_report.n_misses > 0
        expected = reference_results(engine, batch)
        assert_results_equal(got, expected, batch)

    def test_counters_add_up_to_deltas(self, tiny_favorita):
        ds = tiny_favorita
        engine = IncrementalEngine(ds.database, ds.join_tree)
        batch = simple_batch([ds.categorical_features[0]])
        engine.run(batch)
        rng = np.random.default_rng(5)
        names = [engine.root] + [
            r.name for r in engine.database if r.name != engine.root
        ]
        for name in names:
            rel = engine.database.relation(name)
            report = engine.apply_delta(
                DeltaBatch.insert(name, sample_inserts(rng, rel, 2))
            )
            assert len(report.maintenance) == 1
        stats = engine.stats()
        assert stats["deltas"] == len(names)
        assert stats["incremental"] == len(names)
        assert stats["fallbacks"] == 0
        assert stats["last_fallback_reason"] is None


class TestServedFromMaintainedViews:
    """``run`` after a delta is assembled from the repaired cache."""

    @pytest.mark.parametrize("target", ["root", "dimension"])
    def test_post_delta_run_has_no_cache_misses(self, any_dataset, target):
        ds = any_dataset
        engine = IncrementalEngine(ds.database, ds.join_tree)
        batch = build(ds, "covar")
        first = engine.run(batch)
        assert first.cache_report.n_misses > 0
        name = engine.root
        if target == "dimension":
            name = next(
                r.name for r in engine.database if r.name != engine.root
            )
        rel = engine.database.relation(name)
        rng = np.random.default_rng(6)
        report = engine.apply_delta(
            DeltaBatch(
                name,
                inserts=sample_inserts(rng, rel, 3),
                delete_indices=np.array([0]),
            )
        )
        assert report.all_incremental and report.views_patched > 0
        got = engine.run(batch)
        assert got.cache_report.n_misses == 0
        assert got.cache_report.skipped_groups == got.cache_report.total_groups
        expected = reference_results(engine, batch)
        assert_results_equal(got, expected, batch, rtol=1e-7, atol=1e-7)

    def test_udf_batch_stays_exact_across_deltas(self, tiny_favorita):
        """Views under a ``Udf`` factor are uncacheable, so nothing
        maintains them; every run recomputes them from the current
        database and the results still track the deltas."""
        from repro import Udf

        ds = tiny_favorita
        engine = IncrementalEngine(ds.database, ds.join_tree)
        batch = QueryBatch(
            [
                Query("n", [], [Aggregate.count()]),
                Query(
                    "doubled",
                    [ds.categorical_features[0]],
                    [
                        Aggregate.of(
                            Udf(["units"], lambda x: x * 2.0, name="dbl"),
                            name="d",
                        )
                    ],
                ),
            ]
        )
        first = engine.run(batch)
        assert "uncacheable" in first.cache_report.events.values()
        rng = np.random.default_rng(7)
        dim = next(r.name for r in engine.database if r.name != engine.root)
        for name in (engine.root, dim, engine.root):
            rel = engine.database.relation(name)
            engine.apply_delta(
                DeltaBatch(
                    name,
                    inserts=sample_inserts(rng, rel, 4),
                    delete_indices=np.array([1]),
                )
            )
            got = engine.run(batch)
            expected = reference_results(engine, batch)
            assert_results_equal(got, expected, batch, rtol=1e-9, atol=1e-9)
        stats = engine.stats()
        assert stats["deltas"] == 3
        assert stats["incremental"] + stats["fallbacks"] == 3


class TestRandomDeltaSequences:
    """Property-style: arbitrary insert/delete interleavings stay exact."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sequence_matches_recomputation(self, tiny_yelp, seed):
        ds = tiny_yelp
        engine = IncrementalEngine(ds.database, ds.join_tree)
        fact = engine.root
        batch = simple_batch([ds.categorical_features[0]])
        engine.run(batch)
        rng = np.random.default_rng(seed)
        for _ in range(6):
            relation = engine.database.relation(fact)
            op = rng.integers(0, 3)
            if op == 0:
                delta = DeltaBatch.insert(
                    fact,
                    sample_inserts(
                        rng, relation, int(rng.integers(1, 40))
                    ),
                )
            elif op == 1:
                size = int(
                    rng.integers(1, max(2, relation.n_rows // 10))
                )
                idx = rng.choice(relation.n_rows, size, replace=False)
                delta = DeltaBatch.delete(fact, idx)
            else:
                size = int(
                    rng.integers(1, max(2, relation.n_rows // 20))
                )
                delta = DeltaBatch(
                    fact,
                    inserts=sample_inserts(
                        rng, relation, int(rng.integers(1, 30))
                    ),
                    delete_indices=rng.choice(
                        relation.n_rows, size, replace=False
                    ),
                )
            report = engine.apply_delta(delta)
            assert report.all_incremental
            got = engine.run(batch)
            expected = reference_results(engine, batch)
            assert_results_equal(got, expected, batch, rtol=1e-8, atol=1e-8)

    def test_delta_before_the_first_run(self, tiny_yelp):
        ds = tiny_yelp
        engine = IncrementalEngine(ds.database, ds.join_tree)
        batch = simple_batch([ds.categorical_features[0]])
        report = engine.apply_delta(
            DeltaBatch.delete(engine.root, np.array([0]))
        )
        # nothing cached, nothing to repair — and nothing left stale
        assert report.views_patched == report.views_evicted == 0
        assert report.all_incremental
        got = engine.run(batch)  # materializes against the updated db
        expected = reference_results(engine, batch)
        assert_results_equal(got, expected, batch)

    def test_clearing_the_cache_squashes_drift(self, tiny_yelp):
        ds = tiny_yelp
        engine = IncrementalEngine(ds.database, ds.join_tree)
        batch = simple_batch([ds.categorical_features[0]])
        engine.run(batch)
        fact = engine.root
        rng = np.random.default_rng(9)
        relation = engine.database.relation(fact)
        engine.apply_delta(
            DeltaBatch.insert(fact, sample_inserts(rng, relation, 25))
        )
        # dropping the maintained views forces a from-scratch run
        engine.view_cache.clear()
        got = engine.run(batch)
        assert got.cache_report.n_hits == 0
        expected = reference_results(engine, batch)
        assert_results_equal(got, expected, batch)
