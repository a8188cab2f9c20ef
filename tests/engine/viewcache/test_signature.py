"""Content signatures: canonical across plans, sensitive to data."""

import numpy as np
import pytest

from repro import (
    LMFAO,
    Aggregate,
    Delta,
    IncrementalEngine,
    Query,
    QueryBatch,
    Udf,
    ViewCache,
)
from repro.data.database import DeltaBatch
from repro.engine.views import AggregateSpec, View, ViewRef
from repro.engine.viewcache.signature import (
    database_fingerprint,
    relation_fingerprint,
    view_digest,
    view_shapes,
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
            # strictly: the node relation lies outside every child's
            # subtree, which is what lets repair go smallest footprint
            # first
            for ref_vid in view.referenced_view_ids():
                assert sigs[ref_vid].relations < sig.relations
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


class TestAddress:
    def test_every_digest_is_its_shape_over_its_footprint(self, toy_db):
        plan, sigs = signatures_for(LMFAO(toy_db), count_batch())
        shapes = view_shapes(plan.decomposed.views)
        fingerprints = {
            rel.name: relation_fingerprint(rel) for rel in toy_db
        }
        for view in plan.decomposed.views:
            sig, shape = sigs[view.id], shapes[view.id]
            assert sig.shape == shape.digest
            assert sig.relations == shape.relations
            assert sig.digest == view_digest(
                shape.digest, shape.relations, fingerprints
            )


def sample_rows(relation, rng, n=2):
    rows = rng.integers(0, relation.n_rows, n)
    return {a: relation.column(a)[rows] for a in relation.schema.names}


class TestShapes:
    """A digest is H(shape, footprint fingerprints in name order);
    shapes depend on the plan and the binding only."""

    def test_a_second_database_version_builds_no_shape(
        self, toy_db, monkeypatch
    ):
        from repro.engine import engine as engine_module

        builds = []
        real = engine_module.view_shapes

        def counting(*args, **kwargs):
            builds.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, "view_shapes", counting)
        engine = IncrementalEngine(toy_db)
        batch = count_batch()
        engine.run(batch)
        assert len(builds) == 1
        for relation in ("Sales", "Oil"):
            engine.apply_delta(
                DeltaBatch.insert(
                    relation,
                    sample_rows(
                        engine.database.relation(relation),
                        np.random.default_rng(0),
                    ),
                )
            )
            assert engine.run(batch).cache_report.n_misses == 0
        assert len(builds) == 1
        # a re-binding is a new shape, built once
        engine.run(threshold_batch(5.0))
        engine.run(threshold_batch(7.0))
        engine.run(threshold_batch(7.0))
        assert len(builds) == 3

    def test_signatures_reuse_the_shapes_they_are_given(self, toy_db):
        plan = LMFAO(toy_db).plan(count_batch())
        views = plan.decomposed.views
        shapes = view_shapes(views)
        assert view_signatures(views, toy_db, shapes=shapes) == (
            view_signatures(views, toy_db)
        )

    @pytest.mark.parametrize(
        "fixture", ["tiny_retailer", "tiny_favorita", "tiny_yelp", "tiny_tpcds"]
    )
    def test_rekeyed_digests_equal_fresh_signatures(self, request, fixture):
        """After a root delta and then a dimension delta, the repaired
        cache holds exactly the digests a from-scratch signature pass
        over the updated database computes, and each repaired view's old
        digest is replaced by the one that pass gives the same view."""
        from repro.ml import CovarBatch

        from .test_fusion import regression_label

        ds = request.getfixturevalue(fixture)
        label = regression_label(ds)
        batch = CovarBatch(
            [f for f in ds.continuous_features if f != label][:3],
            list(ds.categorical_features)[:2],
            label,
        ).batch
        engine = IncrementalEngine(ds.database, ds.join_tree)
        engine.run(batch)
        plan = engine.engine.plan(batch)
        rng = np.random.default_rng(7)
        dimension = next(
            rel.name for rel in ds.database
            if rel.name != engine.root
            and any(
                engine.root in sig.relations and rel.name in sig.relations
                for sig in view_signatures(
                    plan.decomposed.views, ds.database
                ).values()
            )
        )
        for relation in (engine.root, dimension):
            was = view_signatures(plan.decomposed.views, engine.database)
            report = engine.apply_delta(
                DeltaBatch.insert(
                    relation,
                    sample_rows(engine.database.relation(relation), rng),
                )
            )
            assert report.views_evicted == 0 and report.views_patched > 0
            fresh = view_signatures(plan.decomposed.views, engine.database)
            cached = set(engine.view_cache.digests())
            assert cached == {sig.digest for sig in fresh.values()}
            for vid, sig in fresh.items():
                if was[vid].digest != sig.digest:
                    assert was[vid].digest not in cached, vid
