"""Content signatures: canonical across plans, sensitive to data."""

import numpy as np
import pytest

from repro import LMFAO, Aggregate, Delta, Query, QueryBatch, Udf, ViewCache
from repro.data.database import DeltaBatch
from repro.engine.views import AggregateSpec, View, ViewRef
from repro.engine.viewcache.signature import (
    database_fingerprint,
    structure_digest,
    relation_fingerprint,
    view_signatures,
)


def count_batch():
    return QueryBatch(
        [
            Query("n", [], [Aggregate.count()]),
            Query("by_city", ["city"], [Aggregate.of("units", name="u")]),
            Query("by_date", ["date"], [Aggregate.of("price", name="p")]),
        ]
    )


def signatures_for(engine, batch):
    plan = engine.plan(batch)
    return plan, engine.view_signatures_for(plan, batch.dynamic_functions())


def threshold_batch(threshold):
    return QueryBatch(
        [
            Query(
                "cheap",
                [],
                [
                    Aggregate.of(
                        Delta("price", "<=", threshold, dynamic=True),
                        name="n",
                    )
                ],
            )
        ]
    )


class TestRelationFingerprint:
    def test_equal_content_different_objects(self, toy_db):
        copy = toy_db.relation("Sales").take(
            np.arange(toy_db.relation("Sales").n_rows)
        )
        assert relation_fingerprint(copy) == relation_fingerprint(
            toy_db.relation("Sales")
        )

    def test_changed_content_changes_fingerprint(self, toy_db):
        sales = toy_db.relation("Sales")
        changed = sales.append_rows(
            {"date": np.array([0]), "store": np.array([0]),
             "units": np.array([1.0])}
        )
        assert relation_fingerprint(changed) != relation_fingerprint(sales)

    def test_database_fingerprint_tracks_any_relation(self, toy_db):
        step = toy_db.apply_delta(
            DeltaBatch.insert(
                "Oil", {"date": np.array([99]), "price": np.array([1.0])}
            )
        )
        assert database_fingerprint(step.database) != database_fingerprint(
            toy_db
        )


class TestCanonicalAcrossPlans:
    def test_independent_engines_agree(self, toy_db):
        """Two engines planning independently built (but structurally
        equal) batches produce the same digests — the property that
        makes the cache shareable across batches and sessions."""
        _, sigs_a = signatures_for(LMFAO(toy_db), count_batch())
        _, sigs_b = signatures_for(LMFAO(toy_db), count_batch())
        digests_a = sorted(s.digest for s in sigs_a.values())
        digests_b = sorted(s.digest for s in sigs_b.values())
        assert digests_a == digests_b

    def test_distinct_batches_share_structurally_equal_views(self, toy_db):
        """Views that come out structurally identical in two different
        batches (here: the Stores-side leaf view, untouched by the
        extra by_date query) carry the same digest — cross-batch
        sharing needs no coordination between the plans."""
        by_city = Query("by_city", ["city"], [Aggregate.of("units", name="u")])
        by_date = Query("by_date", ["date"], [Aggregate.of("price", name="p")])
        _, sub_sigs = signatures_for(
            LMFAO(toy_db, root="Sales"), QueryBatch([by_city])
        )
        _, full_sigs = signatures_for(
            LMFAO(toy_db, root="Sales"), QueryBatch([by_city, by_date])
        )
        full_digests = {s.digest for s in full_sigs.values()}
        shared = [
            s for s in sub_sigs.values() if s.digest in full_digests
        ]
        assert shared, "no view shared between the two batches' plans"

    def test_footprint_covers_subtree_relations(self, toy_db):
        plan, sigs = signatures_for(LMFAO(toy_db), count_batch())
        for view in plan.decomposed.views:
            sig = sigs[view.id]
            assert view.source in sig.relations
            for ref_vid in view.referenced_view_ids():
                assert sigs[ref_vid].relations <= sig.relations
        # output views at the root cover the whole database
        outputs = [v for v in plan.decomposed.views if v.is_output]
        assert any(
            sigs[v.id].relations == {"Sales", "Stores", "Oil"}
            for v in outputs
        )


class TestDataSensitivity:
    def test_delta_changes_exactly_containing_views(self, toy_db):
        engine_before = LMFAO(toy_db)
        plan, before = signatures_for(engine_before, count_batch())
        step = toy_db.apply_delta(
            DeltaBatch.insert(
                "Oil", {"date": np.array([99]), "price": np.array([2.0])}
            )
        )
        engine_after = LMFAO(step.database)
        _, after = signatures_for(engine_after, count_batch())
        for view in plan.decomposed.views:
            if "Oil" in before[view.id].relations:
                assert before[view.id].digest != after[view.id].digest
            else:
                assert before[view.id].digest == after[view.id].digest

    def test_delta_value_is_part_of_the_signature(self, toy_db):
        """Dynamic functions are value-inclusive for caching: the plan
        cache may share slots, the view cache must not share data."""
        _, sigs_5 = signatures_for(LMFAO(toy_db), threshold_batch(5.0))
        _, sigs_7 = signatures_for(LMFAO(toy_db), threshold_batch(7.0))
        assert {s.digest for s in sigs_5.values()} != {
            s.digest for s in sigs_7.values()
        }


class TestDynamicRebinding:
    """Dynamic functions hash through the *runtime* dyn table: a plan
    shared by the plan cache and re-bound to new values (the CART
    per-node pattern) must never alias onto the old values' digests."""

    def test_shared_plan_rebinding_gets_fresh_digests(self, toy_db):
        engine = LMFAO(toy_db)
        lo, hi = threshold_batch(0.0), threshold_batch(1e9)
        plan_lo, plan_hi = engine.plan(lo), engine.plan(hi)
        assert plan_lo is plan_hi, "expected plan-cache sharing"
        sigs_lo = engine.view_signatures_for(
            plan_lo, lo.dynamic_functions()
        )
        sigs_hi = engine.view_signatures_for(
            plan_hi, hi.dynamic_functions()
        )
        assert all(s.cacheable for s in sigs_lo.values())
        assert {s.digest for s in sigs_lo.values()} != {
            s.digest for s in sigs_hi.values()
        }

    def test_unbound_dynamic_functions_poison_cacheability(self, toy_db):
        engine = LMFAO(toy_db)
        plan = engine.plan(threshold_batch(5.0))
        sigs = engine.view_signatures_for(plan)  # no binding given
        assert any(not s.cacheable for s in sigs.values())

    def test_no_false_hit_across_rebindings(self, toy_db):
        """End-to-end: with a cache attached, re-running the shared
        plan under a new threshold must recompute, not serve the old
        threshold's data."""
        cache = ViewCache()
        engine = LMFAO(toy_db, view_cache=cache)
        none = engine.run(threshold_batch(0.0))["cheap"].column("n")[0]
        every = engine.run(threshold_batch(1e9))["cheap"].column("n")[0]
        truth = LMFAO(toy_db).run(threshold_batch(1e9))["cheap"]
        assert every == truth.column("n")[0]
        assert every != none


class TestRefOrderCanonicality:
    def test_flipped_child_ids_hash_identically(self, toy_db):
        """Plan-local view ids must not leak into digests: two plans
        assigning flipped ids to the same children agree on the
        parent's digest."""

        def make_views(first, second):
            # first/second: (source, group_by) of the two leaf children
            children = [
                View(
                    id=i,
                    source=source,
                    target="Sales",
                    group_by=group_by,
                    aggregates=[AggregateSpec(1.0, (), ())],
                )
                for i, (source, group_by) in enumerate([first, second])
            ]
            parent = View(
                id=2,
                source="Sales",
                target=None,
                group_by=(),
                aggregates=[
                    AggregateSpec(
                        1.0, (), (ViewRef(0, 0), ViewRef(1, 0))
                    )
                ],
            )
            return children + [parent]

        stores = ("Stores", ("store",))
        oil = ("Oil", ("date",))
        sigs_a = view_signatures(make_views(stores, oil), toy_db)
        sigs_b = view_signatures(make_views(oil, stores), toy_db)
        assert sigs_a[2].digest == sigs_b[2].digest


class TestCacheability:
    def test_udf_views_are_uncacheable(self, toy_db):
        batch = QueryBatch(
            [
                Query(
                    "u",
                    [],
                    [
                        Aggregate.of(
                            Udf(["units"], lambda u: u * 2, "double"),
                            name="s",
                        )
                    ],
                )
            ]
        )
        plan, sigs = signatures_for(LMFAO(toy_db), batch)
        assert any(not s.cacheable for s in sigs.values())
        # the contamination is transitive: the output view is poisoned
        outputs = [v.id for v in plan.decomposed.views if v.is_output]
        assert all(not sigs[vid].cacheable for vid in outputs)

    def test_plain_views_are_cacheable(self, toy_db):
        _, sigs = signatures_for(LMFAO(toy_db), count_batch())
        assert all(s.cacheable for s in sigs.values())


class TestStructure:
    def test_every_view_exposes_rekey_structure(self, toy_db):
        plan, sigs = signatures_for(
            LMFAO(toy_db), count_batch()
        )
        for view in plan.decomposed.views:
            sig = sigs[view.id]
            assert sig.structure is not None
            fp = relation_fingerprint(toy_db.relation(view.source))
            assert structure_digest(sig.structure, fp) == sig.digest
