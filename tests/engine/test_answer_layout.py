"""Answer layouts held to the materialized reference.

``LMFAO.assemble`` lays each query's result out once per plan and
aggregate names (:class:`~repro.engine.engine.AnswerLayout`).  Where a
query's aggregates are one contiguous run of single terms of one view,
its aggregate columns are the rows of one slice of that view's sums
block; other outputs add up their terms.  Both must give the reference's
names, column order, dtypes and values, in every merge mode, with and
without a view cache.
"""

import numpy as np
import pytest

from repro import LMFAO, Aggregate, IncrementalEngine, Query, QueryBatch
from repro.__main__ import _build_workload
from repro.baselines import MaterializedEngine
from repro.engine.viewcache import ViewCache
from repro.ml import CovarBatch, build_cube_batch, build_mi_batch

from .helpers import WORKLOADS, assert_results_equal
from .viewcache.test_fusion import regression_label

MERGE_MODES = ["full", "dedup", "none"]
DATASETS = ["tiny_favorita", "tiny_retailer", "tiny_yelp", "tiny_tpcds"]

#: the workloads the benchmark's readers ask for (``bench/workloads.py``)
SERVED = ("covar", "trees", "mutual_information")


def dataset_batches(ds):
    """A scalar (covar), a grouped (MI) and a cube batch of one dataset;
    the tree learner's node batch is served, so the served check below
    covers it."""
    label = regression_label(ds)
    continuous = [f for f in ds.continuous_features if f != label]
    return [
        CovarBatch(continuous, list(ds.categorical_features), label).batch,
        build_mi_batch(ds.discrete_attrs),
        build_cube_batch(ds.cube_dimensions, ds.cube_measures),
    ]


@pytest.fixture(scope="module")
def references():
    """Database name -> the materialized engine's answer to each batch."""
    return {}


def reference(references, database, batches):
    key = database.name
    if key not in references:
        engine = MaterializedEngine(database)
        references[key] = [
            engine.run(batch, share_join=True) for batch in batches
        ]
    return references[key]


def assert_like_reference(got, expected, batch, shared):
    assert list(got) == [query.name for query in batch]
    for query in batch:
        relation, want = got[query.name], expected[query.name]
        assert relation.schema.names == want.schema.names, query.name
        for name in want.schema.names:
            column = relation.column(name)
            assert column.dtype == want.column(name).dtype, (query.name, name)
            assert relation.schema[name].dtype == column.dtype
            assert column.flags.writeable is not shared, (query.name, name)
            if shared and len(column):
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = 1.0
    assert_results_equal(got, expected, batch, rtol=1e-8)


@pytest.mark.parametrize("cached", [False, True], ids=["plain", "cached"])
@pytest.mark.parametrize("merge_mode", MERGE_MODES)
def test_toy_workloads_match_the_reference(
    toy_db, references, merge_mode, cached
):
    batches = [factory() for factory in WORKLOADS.values()]
    expected = reference(references, toy_db, batches)
    engine = LMFAO(
        toy_db,
        merge_mode=merge_mode,
        view_cache=ViewCache() if cached else None,
    )
    for batch, want in zip(batches, expected):
        # the second run reads the layout the first one built
        for _ in range(2):
            assert_like_reference(engine.run(batch), want, batch, cached)


@pytest.mark.parametrize("cached", [False, True], ids=["plain", "cached"])
@pytest.mark.parametrize("merge_mode", MERGE_MODES)
@pytest.mark.parametrize("dataset_fixture", DATASETS)
def test_dataset_batches_match_the_reference(
    dataset_fixture, merge_mode, cached, references, request
):
    ds = request.getfixturevalue(dataset_fixture)
    batches = dataset_batches(ds)
    expected = reference(references, ds.database, batches)
    engine = LMFAO(
        ds.database,
        ds.join_tree,
        merge_mode=merge_mode,
        view_cache=ViewCache() if cached else None,
    )
    for batch, want in zip(batches, expected):
        assert_like_reference(engine.run(batch), want, batch, cached)


def test_only_outputs_off_one_block_run_add_terms(toy_db):
    """In full merging a query's single-term aggregates are one block
    run; an aggregate of two terms is not, and neither is a query of
    ``none`` merging with two aggregates (one view per term)."""
    batch = WORKLOADS["covar_style"]()
    full = LMFAO(toy_db)
    full.run(batch)
    blocks = {
        query.name: layout.block
        for query, layout in zip(
            batch, full.plan(batch).layouts[0, batch.aggregate_names()]
        )
    }
    assert blocks.pop("mix") is None
    assert all(block is not None for block in blocks.values()), blocks
    two = QueryBatch(
        [
            Query(
                "pair",
                ["city"],
                [Aggregate.of("units", name="u"), Aggregate.count(name="n")],
            )
        ]
    )
    none = LMFAO(toy_db, merge_mode="none")
    none.run(two)
    (layout,) = none.plan(two).layouts[0, two.aggregate_names()]
    assert layout.block is None
    assert len(layout.terms) == 2


@pytest.mark.parametrize("cached", [False, True], ids=["plain", "cached"])
def test_same_shaped_batches_keep_their_own_names(toy_db, cached):
    """Two batches that share one plan but name their aggregates apart,
    run in alternating order, each get their own column names."""

    def batch(suffix):
        return QueryBatch(
            [
                Query(
                    "by_city",
                    ["city"],
                    [
                        Aggregate.of("units", name="u" + suffix),
                        Aggregate.count(name="n" + suffix),
                    ],
                ),
                Query("total", [], [Aggregate.of("price", name="p" + suffix)]),
            ]
        )

    first, second = batch("_a"), batch("_b")
    engine = LMFAO(toy_db, view_cache=ViewCache() if cached else None)
    assert engine.plan(first) is engine.plan(second)
    for current in (first, second, first, second):
        result = engine.run(current)
        suffix = "_a" if current is first else "_b"
        assert result["by_city"].schema.names == (
            "city", "u" + suffix, "n" + suffix,
        )
        assert result["total"].schema.names == ("p" + suffix,)
    assert len(engine.plan(first).layouts) == 2


def test_served_batches_take_the_block_slice(tiny_retailer):
    """Every output of the served workloads on retailer reads its
    aggregate columns as rows of one block slice of a cached view."""
    ds = tiny_retailer
    engine = IncrementalEngine(
        ds.database, ds.join_tree, view_cache=ViewCache()
    ).engine
    n_queries = 0
    for workload in SERVED:
        batch = _build_workload(ds, engine, workload)
        result = engine.run(batch)
        plan = engine.plan(batch)
        views, _ = engine.execute(plan, batch.dynamic_functions())
        layouts = plan.layouts[0, batch.aggregate_names()]
        for query, layout in zip(batch, layouts):
            assert layout.block is not None, (workload, query.name)
            view_id, lo, hi = layout.block
            sums = views[view_id].sums
            aggregates = layout.names[len(layout.key_positions):]
            assert hi - lo == len(aggregates)
            for row, name in zip(range(lo, hi), aggregates):
                column = result[query.name].column(name)
                assert np.shares_memory(column, sums[row])
                np.testing.assert_array_equal(column, sums[row])
            n_queries += 1
    assert n_queries > 0
