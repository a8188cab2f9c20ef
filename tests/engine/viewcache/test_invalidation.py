"""Delta-driven cache invalidation: footprint-exact, patch-or-evict.

The acceptance property: after an IVM ``DeltaBatch`` on a relation,
only cached views whose subtree contains that relation are evicted or
delta-patched — everything else keeps its content address — and a
subsequent cache-served run matches a cold recomputation.
"""

import numpy as np
import pytest

from repro import (
    LMFAO,
    Aggregate,
    DeltaBatch,
    IncrementalEngine,
    Query,
    QueryBatch,
    ViewCache,
)

from ..helpers import assert_results_equal


def mixed_batch():
    """Queries whose views span all three toy relations."""
    return QueryBatch(
        [
            Query("n", [], [Aggregate.count()]),
            Query("by_city", ["city"], [Aggregate.of("units", name="u")]),
            Query("by_date", ["date"], [Aggregate.of("price", name="p")]),
            Query(
                "by_store",
                ["store"],
                [Aggregate.of("units", "size", name="us")],
            ),
        ]
    )


def stores_insert():
    return DeltaBatch.insert(
        "Stores",
        {
            "store": np.array([6]),
            "city": np.array([2]),
            "size": np.array([88.0]),
        },
    )


@pytest.fixture
def warm_engine(toy_db):
    """An IncrementalEngine + shared cache with one materialized batch."""
    cache = ViewCache()
    engine = IncrementalEngine(toy_db, view_cache=cache)
    batch = mixed_batch()
    engine.run(batch)
    return engine, cache, batch


def footprints(engine, batch):
    """digest -> relation footprint for the batch's cacheable views."""
    plan = engine.engine.plan(batch)
    sigs = engine.engine.view_signatures_for(plan)
    return {
        sig.digest: sig.relations
        for sig in sigs.values()
        if sig.cacheable
    }


class TestFootprintExactness:
    def test_delta_touches_only_containing_views(self, warm_engine):
        engine, cache, batch = warm_engine
        by_digest = footprints(engine, batch)
        before = set(cache.digests())
        assert before, "warm-up cached nothing"

        report = engine.apply_delta(stores_insert())
        assert report.n_changes == 1
        after = set(cache.digests())

        for digest in before:
            relations = by_digest[digest]
            if "Stores" in relations:
                assert digest not in after, (
                    f"stale entry with footprint {sorted(relations)} "
                    "survived a Stores delta"
                )
            else:
                assert digest in after, (
                    f"entry with footprint {sorted(relations)} was "
                    "dropped although Stores is not in it"
                )

    def test_leaf_views_are_patched_not_just_evicted(self, warm_engine):
        engine, cache, batch = warm_engine
        engine.apply_delta(stores_insert())
        assert cache.stats().patches > 0, (
            "insert-only delta on a leaf relation should patch, "
            "not evict, its leaf views"
        )
        # the patched entries are re-keyed to the *updated* relation
        # content, so the next run's signatures find them immediately
        by_digest = footprints(engine, batch)  # new database fingerprints
        rekeyed = [
            digest
            for digest, relations in by_digest.items()
            if relations == frozenset({"Stores"})
        ]
        assert rekeyed
        for digest in rekeyed:
            assert digest in cache

    def test_retraction_without_support_repairs_in_place(self, warm_engine):
        """Leaf views carry no support counts, so a delete delta cannot
        be merged exactly — those entries are repaired by re-running
        their group plan over the full updated relation and re-keyed
        under the new content addresses (never evicted wholesale)."""
        engine, cache, batch = warm_engine
        stale = set(cache.entries_containing("Stores"))
        patches_before = cache.stats().patches
        engine.apply_delta(DeltaBatch.delete("Stores", np.array([0])))
        assert cache.stats().patches >= patches_before + len(stale) > 0
        assert cache.stats().invalidations == 0
        assert stale.isdisjoint(cache.digests())
        # the repaired entries answer exactly like a cold engine
        warm = LMFAO(engine.database, sort_inputs=False, view_cache=cache)
        served = warm.run(batch)
        cold = LMFAO(engine.database, sort_inputs=False).run(batch)
        assert_results_equal(served, cold, batch, rtol=1e-9)


class TestInteriorRekey:
    """Interior DAG entries are repaired + re-keyed, never evicted."""

    def interior(self, engine, batch, relation):
        """Digests of cacheable views whose subtree spans ``relation``
        plus at least one other relation (i.e. interior, not leaf)."""
        return {
            digest
            for digest, rels in footprints(engine, batch).items()
            if relation in rels and len(rels) > 1
        }

    def test_interior_entries_rekey_not_evict(self, warm_engine):
        engine, cache, batch = warm_engine
        before = self.interior(engine, batch, "Stores")
        assert before, "the toy batch must cache interior views"
        assert before <= set(cache.digests())
        engine.apply_delta(stores_insert())
        # old addresses gone, repaired data present under exactly the
        # digests the next run's signatures will compute
        assert before.isdisjoint(cache.digests())
        after = self.interior(engine, batch, "Stores")
        for digest in after:
            assert digest in cache
        assert cache.stats().invalidations == 0
        assert cache.stats().patches >= len(after)

    def test_rekeyed_interior_entries_serve_exact_results(
        self, warm_engine
    ):
        engine, cache, batch = warm_engine
        engine.apply_delta(stores_insert())
        # the repair re-keyed every entry to exactly the digest the
        # owning engine's next run computes — a 100% hit, no misses
        plan = engine.engine.plan(batch)
        sigs = engine.engine.view_signatures_for(plan)
        for sig in sigs.values():
            if sig.cacheable:
                assert sig.digest in cache
        warm = LMFAO(engine.database, sort_inputs=False, view_cache=cache)
        served = warm.run(batch)
        cold = LMFAO(engine.database, sort_inputs=False).run(batch)
        assert_results_equal(served, cold, batch, rtol=1e-9)

    def test_interior_rekey_after_retraction(self, warm_engine):
        engine, cache, batch = warm_engine
        engine.apply_delta(DeltaBatch.delete("Stores", np.array([2])))
        assert cache.stats().invalidations == 0
        after = self.interior(engine, batch, "Stores")
        for digest in after:
            assert digest in cache


class TestStaleEpochEntries:
    def test_old_epoch_admission_is_rejected_not_patched(self, toy_db):
        """An entry offered by a reader pinned to an older database
        version must never be patched forward: it predates deltas the
        patch would skip, so "patching" it would publish wrong data
        under a current content address.  Admission gating rejects the
        offer outright (``stale_rejects``) instead of admitting an
        entry the next delta could only evict."""
        cache = ViewCache()
        engine = IncrementalEngine(toy_db, view_cache=cache)
        batch = mixed_batch()
        engine.run(batch)
        # epoch 1: a *duplicate* of store 2 — its id has Sales rows, so
        # the join fans out and every downstream answer really changes
        # (an unmatched store id would hide a mis-patch from the final
        # results)
        engine.apply_delta(
            DeltaBatch.insert(
                "Stores",
                {
                    "store": np.array([2]),
                    "city": np.array([1]),
                    "size": np.array([70.0]),
                },
            )
        )
        # a reader still pinned to the epoch-0 database finishes now
        # and offers its (stale-fingerprint) views to the shared cache:
        # every Stores-footprint offer is rejected at admission
        digests_before = set(cache.digests())
        old_reader = LMFAO(toy_db, sort_inputs=False, view_cache=cache)
        old_reader.run(batch)
        assert cache.stats().stale_rejects > 0
        old_sigs = old_reader.view_signatures_for(old_reader.plan(batch))
        stale = {
            sig.digest
            for sig in old_sigs.values()
            if sig.cacheable and "Stores" in sig.relations
        }
        assert stale.isdisjoint(cache.digests())
        # epoch-0 views whose footprint excludes Stores are still
        # current (their relations never changed) and admissible
        assert digests_before <= set(cache.digests())
        # the next delta sees only current entries: everything patches
        invalidations_before = cache.stats().invalidations
        engine.apply_delta(
            DeltaBatch.insert(
                "Stores",
                {
                    "store": np.array([3]),
                    "city": np.array([0]),
                    "size": np.array([50.0]),
                },
            )
        )
        assert cache.stats().invalidations == invalidations_before
        # a cache-served run at the new epoch must match a cold engine
        # bit for bit; a mis-patched stale entry would poison it
        warm = LMFAO(engine.database, sort_inputs=False, view_cache=cache)
        served = warm.run(batch)
        cold = LMFAO(engine.database, sort_inputs=False).run(batch)
        assert_results_equal(served, cold, batch, rtol=1e-9)


    def test_clear_forgets_the_admission_watermark(self, toy_db):
        """``clear()`` disowns the version the last delta produced (the
        service rolls a non-durable commit back with it): admissions
        from the surviving version must not be stale-rejected after."""
        cache = ViewCache()
        engine = IncrementalEngine(toy_db, view_cache=cache)
        batch = mixed_batch()
        engine.run(batch)
        engine.apply_delta(stores_insert())
        cache.clear()
        assert len(cache) == 0
        # roll back: serve the pre-delta database again
        reader = LMFAO(toy_db, sort_inputs=False, view_cache=cache)
        reader.run(batch)
        assert cache.stats().stale_rejects == 0
        again = reader.run(batch)
        assert again.cache_report.n_misses == 0


class TestCachedRunMatchesCold:
    @pytest.mark.parametrize(
        "delta",
        [
            stores_insert(),
            DeltaBatch.delete("Stores", np.array([1, 3])),
            DeltaBatch.insert(
                "Oil",
                {"date": np.array([25, 26]),
                 "price": np.array([61.0, 59.5])},
            ),
        ],
        ids=["stores-insert", "stores-delete", "oil-insert"],
    )
    def test_cache_served_run_equals_cold_recompute(self, toy_db, delta):
        cache = ViewCache()
        engine = IncrementalEngine(toy_db, view_cache=cache)
        batch = mixed_batch()
        engine.run(batch)
        engine.apply_delta(delta)

        # a fresh engine over the updated database, sharing the cache:
        # it must serve whatever survived/was patched and still agree
        # with a completely cold engine bit for bit
        warm = LMFAO(engine.database, sort_inputs=False, view_cache=cache)
        served = warm.run(batch)
        cold = LMFAO(engine.database, sort_inputs=False).run(batch)
        assert_results_equal(served, cold, batch, rtol=1e-9)

    def test_incremental_engine_results_track_deltas(self, toy_db):
        cache = ViewCache()
        engine = IncrementalEngine(toy_db, view_cache=cache)
        batch = mixed_batch()
        engine.run(batch)
        engine.apply_delta(stores_insert())
        maintained = engine.run(batch)
        cold = IncrementalEngine(engine.database).run(batch)
        assert_results_equal(maintained, cold, batch, rtol=1e-8)
