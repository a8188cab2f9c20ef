"""NaN join keys, end to end: a row whose join key is NaN joins nothing.

NaN is not equal to itself, so the encode-once kernels give a NaN key no
partner on either side of a join (``data/ops.py``).  One fact row and
one dimension row below carry a NaN key; every answer must equal the
hand-computed one in which both rows are simply absent — from a plain
run under every root choice and whichever row the NaN key sits in, and
from an incremental engine that
inserted another NaN-key fact row as a root delta, or another NaN-key
dimension row as a dimension delta.
"""

import numpy as np
import pytest

from repro import (
    LMFAO,
    Aggregate,
    Database,
    DeltaBatch,
    IncrementalEngine,
    Query,
    QueryBatch,
    Relation,
)
from repro.data.schema import Attribute, Schema, categorical, continuous

from .helpers import relation_to_table

NAN = float("nan")


def float_key(name):
    return Attribute(name, "key", np.float64)


def nan_key_db():
    """Fact(k, x) ⋈ Dim(k, d, y): fact row 3 and dim row 2 have k = NaN;
    fact k = 3 and dim k = 4 have no partner either."""
    fact = Relation(
        "Fact",
        Schema([float_key("k"), continuous("x")]),
        {
            "k": np.array([1.0, 2.0, 2.0, NAN, 3.0]),
            "x": np.array([1.0, 2.0, 4.0, 8.0, 16.0]),
        },
    )
    dim = Relation(
        "Dim",
        Schema([float_key("k"), categorical("d"), continuous("y")]),
        {
            "k": np.array([1.0, 2.0, NAN, 4.0]),
            "d": np.array([10, 20, 30, 40]),
            "y": np.array([0.5, 3.0, 100.0, 1000.0]),
        },
    )
    return Database([fact, dim], name="nan_keys")


def nan_key_batch():
    return QueryBatch(
        [
            Query("n", [], [Aggregate.count(name="n")]),
            Query("xy", [], [Aggregate.of("x", "y", name="s")]),
            Query(
                "by_d",
                ["d"],
                [Aggregate.count(name="n"), Aggregate.of("x", name="s")],
            ),
            Query("by_k", ["k"], [Aggregate.count(name="n")]),
        ]
    )


#: the join holds (k=1, x=1, d=10, y=0.5), (k=2, x=2, d=20, y=3) and
#: (k=2, x=4, d=20, y=3); no row with a NaN key takes part
EXPECTED = {
    "n": {(): (3.0,)},
    "xy": {(): (18.5,)},
    "by_d": {(10,): (1.0, 1.0), (20,): (2.0, 6.0)},
    "by_k": {(1.0,): (1.0,), (2.0,): (2.0,)},
}

#: a root delta inserts fact rows (k=NaN, x=32) and (k=1, x=64): only
#: the second joins, adding (k=1, x=64, d=10, y=0.5)
EXPECTED_AFTER_DELTA = {
    "n": {(): (4.0,)},
    "xy": {(): (50.5,)},
    "by_d": {(10,): (2.0, 65.0), (20,): (2.0, 6.0)},
    "by_k": {(1.0,): (2.0,), (2.0,): (2.0,)},
}

AGG_NAMES = {"n": ["n"], "xy": ["s"], "by_d": ["n", "s"], "by_k": ["n"]}


def tables(results, batch):
    return {
        query.name: relation_to_table(
            results[query.name], query.group_by, AGG_NAMES[query.name]
        )
        for query in batch
    }


def in_row_order(database, order):
    """``database`` with its rows as given, reversed, or NaN keys first."""
    relations = []
    for relation in database:
        k = relation.column("k")
        if order == "given":
            rows = np.arange(len(k))
        elif order == "reversed":
            rows = np.arange(len(k))[::-1]
        else:  # "nan_first": the NaN key is the first key each side encodes
            rows = np.argsort(~np.isnan(k), kind="stable")
        relations.append(relation.take(rows))
    return Database(relations, name=database.name)


@pytest.mark.parametrize("root", [None, "Fact", "Dim"])
@pytest.mark.parametrize("order", ["given", "reversed", "nan_first"])
def test_nan_keys_join_nothing(root, order):
    batch = nan_key_batch()
    engine = LMFAO(in_row_order(nan_key_db(), order), root=root)
    assert tables(engine.run(batch), batch) == EXPECTED


def test_incremental_engine_after_a_nan_key_root_delta():
    batch = nan_key_batch()
    engine = IncrementalEngine(nan_key_db(), root="Fact")
    assert tables(engine.run(batch), batch) == EXPECTED
    report = engine.apply_delta(
        DeltaBatch.insert(
            "Fact", {"k": np.array([NAN, 1.0]), "x": np.array([32.0, 64.0])}
        )
    )
    assert report.all_incremental, report
    maintained = engine.run(batch)
    assert maintained.cache_report.n_misses == 0  # served from repaired views
    assert tables(maintained, batch) == EXPECTED_AFTER_DELTA
    recomputed = LMFAO(engine.database, root="Fact").run(batch)
    assert tables(recomputed, batch) == EXPECTED_AFTER_DELTA


#: a dimension delta inserts dim rows (k=NaN, d=50, y=7) and (k=3, d=60,
#: y=2): only the second joins, with fact row (k=3, x=16)
EXPECTED_AFTER_DIMENSION_DELTA = {
    "n": {(): (4.0,)},
    "xy": {(): (50.5,)},
    "by_d": {(10,): (1.0, 1.0), (20,): (2.0, 6.0), (60,): (1.0, 16.0)},
    "by_k": {(1.0,): (1.0,), (2.0,): (2.0,), (3.0,): (1.0,)},
}


def test_incremental_engine_after_a_nan_key_dimension_delta():
    batch = nan_key_batch()
    engine = IncrementalEngine(nan_key_db(), root="Fact")
    assert tables(engine.run(batch), batch) == EXPECTED
    report = engine.apply_delta(
        DeltaBatch.insert(
            "Dim",
            {
                "k": np.array([NAN, 3.0]),
                "d": np.array([50, 60]),
                "y": np.array([7.0, 2.0]),
            },
        )
    )
    assert report.all_incremental, report
    assert [m.mode for m in report.maintenance] == ["incremental"]
    maintained = engine.run(batch)
    assert maintained.cache_report.n_misses == 0  # served from repaired views
    assert tables(maintained, batch) == EXPECTED_AFTER_DIMENSION_DELTA
    recomputed = LMFAO(engine.database, root="Fact").run(batch)
    assert tables(recomputed, batch) == EXPECTED_AFTER_DIMENSION_DELTA
