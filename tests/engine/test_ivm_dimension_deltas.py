"""Dimension-table deltas: differential tests for DAG propagation.

The propagation tentpole's contract: a delta on ANY relation — not just
the join-tree root — maintains every cached batch without falling back
to full recomputation, and the maintained results are exactly what a
from-scratch evaluation of the updated database produces.

Every test here applies inserts and/or retractions to *non-root*
(dimension) relations and asserts the maintenance mode: every delta,
retractions included, merges a delta at every level (``incremental``),
since the COUNT aggregate on every keyed view retires the keys a retraction
empties.  Each test checks the differential against a cold engine.
The engine's first run materializes the views, and every post-delta
run is assembled from the views ``ViewCache.on_delta`` repaired.
"""

import numpy as np
import pytest

from repro import DeltaBatch, IncrementalEngine

from .helpers import assert_results_equal
from .test_ivm import (
    DATASET_FIXTURES,
    covar_batch,
    reference_results,
    sample_inserts,
    simple_batch,
)

@pytest.fixture(params=DATASET_FIXTURES)
def any_dataset(request):
    return request.getfixturevalue(request.param)


#: name -> batch builder over a dataset: a count and one group-by, and
#: the covar matrix, whose views carry many aggregate columns each
BATCHES = {
    "simple": lambda ds: simple_batch([ds.categorical_features[0]]),
    "covar": covar_batch,
}


def dimension_names(engine):
    """Every non-root relation, in database order."""
    return [r.name for r in engine.database if r.name != engine.root]


@pytest.mark.parametrize("workload", sorted(BATCHES))
class TestDimensionDeltaDifferential:
    """insert/retract on dimension tables == recomputation."""

    def _roundtrip(self, ds, workload, deltas_fn):
        engine = IncrementalEngine(ds.database, ds.join_tree)
        batch = BATCHES[workload](ds)
        engine.run(batch)
        rng = np.random.default_rng(0)
        reports = []
        for dim in dimension_names(engine):
            deltas = deltas_fn(rng, engine.database.relation(dim), dim)
            if not deltas:
                continue
            reports.append(engine.apply_delta(*deltas))
        assert reports, "datasets under test must have dimension tables"
        for report in reports:
            # dimension deltas merge through interior DAG levels
            # instead of recomputing
            assert [m.mode for m in report.maintenance] == ["incremental"]
        stats = engine.stats()
        assert stats["fallbacks"] == 0
        assert stats["incremental"] == len(reports)
        got = engine.run(batch)
        expected = reference_results(engine, batch)
        assert_results_equal(got, expected, batch, rtol=1e-8, atol=1e-8)

    def test_inserts_on_every_dimension(self, any_dataset, workload):
        def deltas(rng, rel, dim):
            n = max(1, rel.n_rows // 20)
            return [DeltaBatch.insert(dim, sample_inserts(rng, rel, n))]

        self._roundtrip(any_dataset, workload, deltas)

    def test_retractions_on_every_dimension(self, any_dataset, workload):
        def deltas(rng, rel, dim):
            if rel.n_rows < 2:
                return []
            n = max(1, rel.n_rows // 20)
            idx = rng.choice(rel.n_rows, n, replace=False)
            return [DeltaBatch.delete(dim, idx)]

        self._roundtrip(any_dataset, workload, deltas)

    def test_mixed_insert_and_retract(self, any_dataset, workload):
        def deltas(rng, rel, dim):
            if rel.n_rows < 2:
                return []
            n = max(1, rel.n_rows // 30)
            return [
                DeltaBatch(
                    dim,
                    inserts=sample_inserts(rng, rel, n),
                    delete_indices=rng.choice(rel.n_rows, n, replace=False),
                )
            ]

        self._roundtrip(any_dataset, workload, deltas)


class TestInterleavedRootAndDimension:
    """Sequences mixing root and dimension deltas stay exact."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sequence(self, tiny_favorita, seed):
        ds = tiny_favorita
        engine = IncrementalEngine(ds.database, ds.join_tree)
        batch = simple_batch([ds.categorical_features[0]])
        engine.run(batch)
        rng = np.random.default_rng(seed)
        targets = [engine.root] + dimension_names(engine)
        for step in range(6):
            name = targets[int(rng.integers(0, len(targets)))]
            rel = engine.database.relation(name)
            if rel.n_rows < 4 or rng.integers(0, 2) == 0:
                delta = DeltaBatch.insert(
                    name,
                    sample_inserts(rng, rel, int(rng.integers(1, 5))),
                )
            else:
                idx = rng.choice(
                    rel.n_rows, int(rng.integers(1, 4)), replace=False
                )
                delta = DeltaBatch.delete(name, idx)
            report = engine.apply_delta(delta)
            assert report.all_incremental, (step, name, report)
            got = engine.run(batch)
            expected = reference_results(engine, batch)
            assert_results_equal(
                got, expected, batch, rtol=1e-8, atol=1e-8
            )
        assert engine.stats()["fallbacks"] == 0

    def test_one_batch_with_root_and_dimension_deltas(self, tiny_yelp):
        ds = tiny_yelp
        engine = IncrementalEngine(ds.database, ds.join_tree)
        batch = simple_batch([ds.categorical_features[0]])
        engine.run(batch)
        rng = np.random.default_rng(3)
        dim = dimension_names(engine)[0]
        root_rel = engine.database.relation(engine.root)
        dim_rel = engine.database.relation(dim)
        report = engine.apply_delta(
            DeltaBatch.insert(
                engine.root, sample_inserts(rng, root_rel, 10)
            ),
            DeltaBatch.insert(dim, sample_inserts(rng, dim_rel, 2)),
        )
        # one record per applied delta: the root step merges, and so
        # does the insert-only dimension step, at every level
        assert report.all_incremental
        assert [(m.relation, m.mode) for m in report.maintenance] == [
            (engine.root, "incremental"),
            (dim, "incremental"),
        ]
        got = engine.run(batch)
        expected = reference_results(engine, batch)
        assert_results_equal(got, expected, batch, rtol=1e-8, atol=1e-8)

    def test_covar_workload_dimension_delta(self, tiny_retailer):
        from .test_ivm import covar_batch

        ds = tiny_retailer
        engine = IncrementalEngine(ds.database, ds.join_tree)
        batch = covar_batch(ds)
        engine.run(batch)
        rng = np.random.default_rng(4)
        dim = dimension_names(engine)[0]
        dim_rel = engine.database.relation(dim)
        report = engine.apply_delta(
            DeltaBatch(
                dim,
                inserts=sample_inserts(rng, dim_rel, 2),
                delete_indices=np.array([0]),
            )
        )
        assert report.all_incremental
        got = engine.run(batch)
        expected = reference_results(engine, batch)
        assert_results_equal(got, expected, batch, rtol=1e-7, atol=1e-7)
