"""The repair rules of ``ViewCache.on_delta``, held by counting group runs.

Every repair run goes through the module attribute
``repro.engine.viewcache.cache.execute_plan``; these tests wrap it and
count what it was asked to read.  No timing: each rule is a statement
about which rows a run reads and how many runs there are.

* At the updated relation a group runs **once** over the signed delta
  (inserted rows at +1, retracted rows at -1), not once per sign.
* Above it a group runs **once** over the node relation's rows that
  join a key of its children's deltas, with the deltas in place of the
  children — never over the whole relation.
* The COUNT aggregate on every keyed view (its support) retires the
  keys a delta empties, at the updated relation and above it.
* A view that cannot be repaired is evicted, a counted recompute that
  still leaves ground-truth answers behind.
* A group's cached views repair through one run of its plan, under the
  binding they were computed with, each input resolved once.
"""

from collections import Counter

import numpy as np
import pytest

from repro import (
    LMFAO,
    Aggregate,
    Delta,
    DeltaBatch,
    IncrementalEngine,
    Query,
    QueryBatch,
)
from repro.engine.interpreter import execute_plan
from repro.engine.viewcache import ViewCache, cache as cache_module
from repro.engine.viewcache.signature import (
    relation_fingerprint,
    view_digest,
)
from repro.storage.cachestore import CacheStore
from repro.workloads import build

from ..helpers import assert_results_equal
from ..test_ivm import simple_batch
from ..test_repair_property import assert_same_answer, served


@pytest.fixture
def runs(monkeypatch):
    """Every repair run as ``(node, relation rows, weighted)``."""
    calls = []

    def counted(plan, relation, incoming, dyn, weights=None):
        calls.append((plan.node, relation.n_rows, weights is not None))
        return execute_plan(plan, relation, incoming, dyn, weights)

    monkeypatch.setattr(cache_module, "execute_plan", counted)
    return calls


def groups_at(engine, relation):
    """Distinct cached group plans whose node is ``relation``."""
    cache = engine.view_cache
    plans = {
        id(entry.recipe.plan)
        for entry in cache._entries.values()
        if entry.recipe is not None and entry.recipe.plan.node == relation
    }
    return len(plans)


def assert_ground_truth(engine, batch):
    got = engine.run(batch)
    expected = LMFAO(engine.database, engine.engine.join_tree).run(batch)
    assert_results_equal(got, expected, batch, rtol=1e-9, atol=1e-9)
    return got


def test_root_delta_runs_each_group_once_over_the_signed_delta(
    tiny_retailer, runs
):
    ds = tiny_retailer
    engine = IncrementalEngine(ds.database, ds.join_tree)
    batch = build(ds, "covar")
    engine.run(batch)
    root = engine.database.relation(engine.root)
    n_groups = groups_at(engine, engine.root)
    assert n_groups > 0
    rng = np.random.default_rng(0)
    source = rng.integers(0, root.n_rows, 20)
    report = engine.apply_delta(
        DeltaBatch(
            engine.root,
            inserts={a: root.column(a)[source] for a in root.schema.names},
            delete_indices=rng.choice(root.n_rows, 15, replace=False),
        )
    )
    assert [m.mode for m in report.maintenance] == ["incremental"]
    # one weighted run per group, reading the 35 signed rows
    assert runs == [(engine.root, 35, True)] * n_groups
    assert assert_ground_truth(engine, batch).cache_report.n_misses == 0


def test_insert_only_root_delta_runs_unweighted(toy_db, runs):
    engine = IncrementalEngine(toy_db)
    batch = simple_batch(["store"])
    engine.run(batch)
    sales = engine.database.relation("Sales")
    engine.apply_delta(
        DeltaBatch.insert(
            "Sales", {a: sales.column(a)[:4] for a in sales.schema.names}
        )
    )
    assert runs and all(run == ("Sales", 4, False) for run in runs)
    assert_ground_truth(engine, batch)


def test_dimension_update_reads_only_the_fact_rows_it_can_affect(
    tiny_retailer, runs
):
    """A 2-row ``Items`` update: retract two rows, insert them back with
    their price changed.  The root groups run over the ``Inventory``
    rows whose ``ksn`` is one of the two, never over all of them."""
    ds = tiny_retailer
    engine = IncrementalEngine(ds.database, ds.join_tree)
    batch = build(ds, "covar")
    engine.run(batch)
    items = engine.database.relation("Items")
    rows = np.array([3, 11])
    inserts = {a: items.column(a)[rows].copy() for a in items.schema.names}
    inserts["price"] = inserts["price"] + 2.5
    report = engine.apply_delta(
        DeltaBatch("Items", inserts=inserts, delete_indices=rows)
    )
    assert report.all_incremental
    fact = engine.database.relation("Inventory")
    matching = int(np.isin(fact.column("ksn"), inserts["ksn"]).sum())
    assert 0 < matching < fact.n_rows
    at_root = [n_rows for node, n_rows, _ in runs if node == "Inventory"]
    # each affected root group runs once, with the children's deltas
    assert at_root == [matching] * groups_at(engine, "Inventory")
    assert assert_ground_truth(engine, batch).cache_report.n_misses == 0


def test_unchanged_children_are_only_rekeyed(tiny_retailer, runs):
    """An ``Items`` insert of a never-seen key changes no join partner
    of any ``Inventory`` row: the root views are re-keyed, not run."""
    ds = tiny_retailer
    engine = IncrementalEngine(ds.database, ds.join_tree)
    batch = build(ds, "covar")
    engine.run(batch)
    items = engine.database.relation("Items")
    new = {a: items.column(a)[:1].copy() for a in items.schema.names}
    new["ksn"] = new["ksn"] + items.column("ksn").max() + 1
    report = engine.apply_delta(DeltaBatch.insert("Items", new))
    assert [m.mode for m in report.maintenance] == ["incremental"]
    assert runs and all(node == "Items" for node, _, _ in runs)
    assert assert_ground_truth(engine, batch).cache_report.n_misses == 0


def test_interior_key_retires_by_support_when_its_child_key_is_lost(
    tiny_favorita, runs
):
    """Retracting the only ``Oil`` row of a date drops that date from
    the ``Transactions`` views above it.  The retraction merges at every
    level: ``Transactions`` runs only over its rows with that date, and
    the keyed view's COUNT for the date cancels to zero, retiring it."""
    ds = tiny_favorita
    engine = IncrementalEngine(ds.database, ds.join_tree)
    batch = simple_batch(["date"])
    engine.run(batch)
    oil = engine.database.relation("Oil")
    dates, counts = np.unique(oil.column("date"), return_counts=True)
    unique_date = dates[counts == 1][0]
    txns = engine.database.relation("Transactions")
    n_dated = int((txns.column("date") == unique_date).sum())
    assert 0 < n_dated < txns.n_rows
    keyed = [
        entry.data
        for entry in engine.view_cache._entries.values()
        if entry.recipe.plan.node == "Transactions"
        and "date" in entry.data.group_by
    ]
    assert keyed and all(data.count is not None for data in keyed)
    assert all(unique_date in data.key_cols[0] for data in keyed)
    victim = np.flatnonzero(oil.column("date") == unique_date)
    report = engine.apply_delta(DeltaBatch.delete("Oil", victim))
    assert [m.mode for m in report.maintenance] == ["incremental"]
    at_txns = [n_rows for node, n_rows, _ in runs if node == "Transactions"]
    # once over the dated rows, never the whole relation
    assert at_txns == [n_dated] * groups_at(engine, "Transactions")
    repaired = [
        entry.data
        for entry in engine.view_cache._entries.values()
        if entry.recipe.plan.node == "Transactions"
        and "date" in entry.data.group_by
    ]
    assert len(repaired) == len(keyed)
    assert not any(unique_date in data.key_cols[0] for data in repaired)
    got = assert_ground_truth(engine, batch)
    assert unique_date not in got["by_key"].column("date")
    assert got.cache_report.n_misses == 0


def test_child_missing_from_both_tiers_is_a_counted_recompute(
    tiny_retailer, runs
):
    """With a child view gone from memory and no disk tier, the views
    above it cannot be repaired: they are evicted, the delta counts as a
    recompute, and the next run recomputes them from the database."""
    ds = tiny_retailer
    engine = IncrementalEngine(ds.database, ds.join_tree)
    batch = build(ds, "covar")
    engine.run(batch)
    cache = engine.view_cache
    for digest in cache.entries_containing("Items"):
        if cache._entries[digest].sig.relations == {"Items"}:
            cache._evict_entry(digest)
    items = engine.database.relation("Items")
    report = engine.apply_delta(
        DeltaBatch.insert(
            "Items", {a: items.column(a)[:2] for a in items.schema.names}
        )
    )
    assert [m.mode for m in report.maintenance] == ["recompute"]
    assert engine.stats()["fallbacks"] == 1
    assert not any(node == "Inventory" for node, _, _ in runs)
    assert assert_ground_truth(engine, batch).cache_report.n_misses > 0


def assert_served_answers_recomputed(engine, ds):
    """Every served batch answered from the repaired views equals an
    LMFAO run without a view cache, and nothing fell back."""
    planner = LMFAO(engine.database, ds.join_tree)
    for batch in served(ds).values():
        assert_same_answer(engine.run(batch), planner.run(batch), batch)
    assert engine.stats()["fallbacks"] == 0, engine.stats()


def test_duplicate_dimension_key_inserted_then_retracted(tiny_retailer):
    """A copy of an ``Items`` row repeats its ``ksn``: every ``Inventory``
    row of that key now joins twice, so every view above it doubles that
    key's multiplicity.  Retracting the copy halves it back."""
    ds = tiny_retailer
    engine = IncrementalEngine(ds.database, ds.join_tree)
    for batch in served(ds).values():
        engine.run(batch)
    items = engine.database.relation("Items")
    copy = {a: items.column(a)[[5]].copy() for a in items.schema.names}
    engine.apply_delta(DeltaBatch.insert("Items", copy))
    assert_served_answers_recomputed(engine, ds)
    n_items = engine.database.relation("Items").n_rows
    engine.apply_delta(DeltaBatch.delete("Items", [n_items - 1]))
    assert_served_answers_recomputed(engine, ds)


def test_zero_delta_of_a_sibling_view_still_replaces_it(tiny_favorita):
    """Moving three ``Holidays`` rows to another ``htype`` leaves the
    ``('date',)`` view as it was while ``('date', 'htype')`` changes.
    The root groups read both; the unchanged one must enter their runs
    as its zero delta, not as itself, or the contexts that join only it
    would add their whole value again."""
    ds = tiny_favorita
    engine = IncrementalEngine(ds.database, ds.join_tree)
    for batch in served(ds).values():
        engine.run(batch)

    def holidays_views():
        return {
            entry.data.group_by: entry.data
            for entry in engine.view_cache._entries.values()
            if entry.recipe.plan.node == "Holidays"
        }

    before = holidays_views()
    holidays = engine.database.relation("Holidays")
    rows = np.array([17, 9, 21])
    moved = {a: holidays.column(a)[rows].copy() for a in holidays.schema.names}
    n_htypes = holidays.column("htype").max() + 1
    moved["htype"] = (moved["htype"] + 1) % n_htypes
    engine.apply_delta(
        DeltaBatch("Holidays", inserts=moved, delete_indices=rows)
    )
    after = holidays_views()

    def same(group_by):
        was, now = before[group_by], after[group_by]
        return was.n_rows == now.n_rows and all(
            np.array_equal(a, b)
            for a, b in zip(
                was.key_cols + list(was.sums), now.key_cols + list(now.sums)
            )
        )

    assert same(("date",))
    assert not same(("date", "htype"))
    assert_served_answers_recomputed(engine, ds)


def test_changed_child_read_from_disk_is_a_counted_recompute(
    tiny_favorita, tmp_path
):
    """A changed child view that no repair in the pass merged a delta
    into — here dropped from memory, so the disk tier holds it at its
    pre-delta digest — cannot stand in for its own delta.  The views
    above it are evicted, not fed the stale view whole beside their
    other children's deltas; moving the rows back must not revive such
    a view under a digest the next run asks for."""
    ds = tiny_favorita
    engine = IncrementalEngine(
        ds.database,
        ds.join_tree,
        view_cache=ViewCache(store=CacheStore(str(tmp_path / "cache"))),
    )
    batches = served(ds)
    for batch in batches.values():
        engine.run(batch)
    cache = engine.view_cache
    (dates,) = [
        digest
        for digest, entry in cache._entries.items()
        if entry.recipe.plan.node == "Holidays"
        and entry.data.group_by == ("date",)
    ]
    cache._evict_entry(dates, count=False)
    holidays = engine.database.relation("Holidays")
    rows = np.arange(holidays.n_rows - 3, holidays.n_rows)
    original = {a: holidays.column(a)[rows].copy() for a in holidays.schema.names}
    moved = {a: col.copy() for a, col in original.items()}
    moved["htype"] = (moved["htype"] + 1) % (holidays.column("htype").max() + 1)
    for inserts in (moved, original):
        report = engine.apply_delta(
            DeltaBatch("Holidays", inserts=inserts, delete_indices=rows)
        )
        planner = LMFAO(engine.database, ds.join_tree)
        for batch in batches.values():
            assert_same_answer(engine.run(batch), planner.run(batch), batch)
    # the move evicted the views above the dropped one; its inverse,
    # with every view back in memory, repairs them all
    assert engine.stats()["fallbacks"] == 1
    assert [m.mode for m in report.maintenance] == ["incremental"]


def test_counts_past_exact_float_integers_are_recomputed(
    tiny_retailer, monkeypatch
):
    """Retirement needs a cancelled COUNT to read exactly zero, which
    float64 guarantees below 2**53 only.  With the bound lowered under
    the views' counts, every keyed view a delta reaches is evicted
    instead of merged, and the answers stay those of a recompute."""
    monkeypatch.setattr(cache_module, "EXACT_COUNT", 2.0)
    ds = tiny_retailer
    engine = IncrementalEngine(ds.database, ds.join_tree)
    batch = build(ds, "covar")
    engine.run(batch)
    items = engine.database.relation("Items")
    report = engine.apply_delta(
        DeltaBatch.insert(
            "Items", {a: items.column(a)[:2] for a in items.schema.names}
        )
    )
    assert [m.mode for m in report.maintenance] == ["recompute"]
    assert assert_ground_truth(engine, batch).cache_report.n_misses > 0


def test_served_counts_are_exact(tiny_tpcds, tiny_yelp):
    """The largest COUNT any served view of the fan-out datasets holds
    is far inside float64's exact integers, so repairs merge them."""
    for ds in (tiny_tpcds, tiny_yelp):
        engine = IncrementalEngine(ds.database, ds.join_tree)
        for batch in served(ds).values():
            engine.run(batch)
        counts = [
            entry.data.sums[entry.data.count].max()
            for entry in engine.view_cache._entries.values()
            if entry.data.count is not None and entry.data.n_rows
        ]
        assert counts and max(counts) < cache_module.EXACT_COUNT / 2**20


@pytest.mark.parametrize(
    "fixture, dimension",
    [("tiny_retailer", "Census"), ("tiny_favorita", "Oil")],
)
def test_each_affected_entry_is_repaired_once_children_first(
    request, fixture, dimension, monkeypatch
):
    """One pass per delta: every affected entry enters ``_repair``
    exactly once, and after every affected input of its recipe.  The
    served batches run before each delta, so the LRU order the entries
    sit in is not the order their repairs need."""
    ds = request.getfixturevalue(fixture)
    engine = IncrementalEngine(ds.database, ds.join_tree)
    calls = []
    real = ViewCache._repair

    def recorded(self, digest, entry, repair):
        # each input's digest before the delta: its shape over the
        # pass's pre-delta fingerprints
        inputs = [
            view_digest(shape, footprint, repair.old_fps)
            for _, shape, footprint in entry.recipe.inputs
        ]
        calls.append((digest, inputs))
        return real(self, digest, entry, repair)

    monkeypatch.setattr(ViewCache, "_repair", recorded)
    rng = np.random.default_rng(0)
    for relation in (engine.root, dimension):
        for batch in served(ds).values():
            engine.run(batch)
        calls.clear()
        rel = engine.database.relation(relation)
        rows = rng.integers(0, rel.n_rows, 3)
        report = engine.apply_delta(
            DeltaBatch.insert(
                relation, {a: rel.column(a)[rows] for a in rel.schema.names}
            )
        )
        assert report.all_incremental
        order = [digest for digest, _ in calls]
        assert len(order) == len(set(order)) == report.views_patched > 0
        position = {digest: i for i, digest in enumerate(order)}
        for i, (_, inputs) in enumerate(calls):
            for child in inputs:
                assert position.get(child, -1) < i
    assert_served_answers_recomputed(engine, ds)


@pytest.mark.parametrize(
    "fixture, dimension",
    [("tiny_retailer", "Census"), ("tiny_favorita", "Oil")],
)
def test_a_group_runs_once_per_pass_and_resolves_each_input_once(
    request, fixture, dimension, monkeypatch
):
    """A group's cached views repair through one run: in one pass the
    group (its plan under one run's binding) executes its plan at most
    once, and resolves each input the delta did not change at most
    once, however many of its views are cached."""
    ds = request.getfixturevalue(fixture)
    engine = IncrementalEngine(ds.database, ds.join_tree)
    batches = served(ds)
    recipes, resolved, ran = [], [], []
    real_repair, real_resolve = ViewCache._repair, ViewCache._resolve_input

    def repair(self, digest, entry, pass_):
        recipes.append(entry.recipe)
        return real_repair(self, digest, entry, pass_)

    def resolve(self, digest):
        resolved.append(digest)
        return real_resolve(self, digest)

    def run(plan, relation, incoming, dyn, weights=None):
        ran.append((id(plan), id(dyn)))
        return execute_plan(plan, relation, incoming, dyn, weights)

    monkeypatch.setattr(ViewCache, "_repair", repair)
    monkeypatch.setattr(ViewCache, "_resolve_input", resolve)
    monkeypatch.setattr(cache_module, "execute_plan", run)
    rng = np.random.default_rng(0)
    for relation in (engine.root, dimension):
        engine.run(batches["covar"])
        engine.run(batches["trees"])
        del recipes[:], resolved[:], ran[:]
        rel = engine.database.relation(relation)
        rows = rng.integers(0, rel.n_rows, 3)
        report = engine.apply_delta(
            DeltaBatch.insert(
                relation, {a: rel.column(a)[rows] for a in rel.schema.names}
            )
        )
        assert report.all_incremental
        groups = {(id(r.plan), id(r.dyn)): r for r in recipes}
        assert 0 < len(groups) < len(recipes) == report.views_patched
        assert 0 < len(resolved) <= sum(
            len(recipe.plan.input_view_ids) for recipe in groups.values()
        )
        fps = {
            rel.name: relation_fingerprint(rel) for rel in engine.database
        }
        unchanged = Counter(
            view_digest(shape, footprint, fps)
            for recipe in groups.values()
            for _, shape, footprint in recipe.inputs
            if relation not in footprint
        )
        assert not Counter(resolved) - unchanged
        assert ran and set(Counter(ran).values()) == {1}
        assert set(ran) <= set(groups)
    assert_served_answers_recomputed(engine, ds)


def test_a_function_rebound_in_place_does_not_change_a_repair(
    tiny_favorita,
):
    """A repair runs a view's group under the binding the view was
    computed with.  One batch runs under a dynamic threshold, then under
    another after the function was re-bound in place, and a ``Sales``
    delta repairs the views of both runs.  Re-bound back, the batch is
    served from its first run's repaired views: they must equal a fresh
    run, not hold the second threshold's delta."""
    ds = tiny_favorita
    engine = IncrementalEngine(ds.database, ds.join_tree)
    sales = engine.database.relation("Sales")
    low, high = np.quantile(sales.column("units"), [0.3, 0.8])
    threshold = Delta("units", "<=", low, dynamic=True)
    batch = QueryBatch(
        [
            Query("total", [], [Aggregate.of(threshold, name="n")]),
            Query("by_store", ["store"], [Aggregate.of(threshold, name="n")]),
        ]
    )
    engine.run(batch)
    threshold.value = float(high)
    engine.run(batch)
    rng = np.random.default_rng(0)
    n = sales.n_rows // 100
    source = rng.integers(0, sales.n_rows, n)
    report = engine.apply_delta(
        DeltaBatch(
            "Sales",
            inserts={a: sales.column(a)[source] for a in sales.schema.names},
            delete_indices=rng.choice(sales.n_rows, n, replace=False),
        )
    )
    assert report.all_incremental
    threshold.value = float(low)
    got = assert_ground_truth(engine, batch)
    report = got.cache_report
    assert report.skipped_groups == report.total_groups > 0
