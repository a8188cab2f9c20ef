"""Lifetime of the per-relation key encodings (``Relation.encodings``).

A relation's key columns are dictionary-encoded on first use and the
encoding lives exactly as long as the relation object: reruns reuse it,
a delta replaces the changed relation (and so its memo) and nothing
else, and it is never pickled or written to disk.
"""

import pickle

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
from repro.data import ops
from repro.ml import CARTLearner, CovarBatch, build_cube_batch, build_mi_batch
from repro.storage import codec, snapshot
from repro.storage.snapshot import load_snapshot, write_snapshot

from .helpers import assert_results_equal
from .viewcache.test_fusion import regression_label


def paper_batches(ds, engine):
    """The paper's four batches (Table 3) from the public builders."""
    label = regression_label(ds)
    continuous = [f for f in ds.continuous_features if f != label]
    categorical = list(ds.categorical_features)
    return [
        CovarBatch(continuous, categorical, label).batch,
        CARTLearner(
            engine, continuous, categorical, label, "regression"
        ).node_batch([]),
        build_mi_batch(ds.discrete_attrs),
        build_cube_batch(ds.cube_dimensions, ds.cube_measures),
    ]


def memo_entries(database):
    """(relation, attribute) -> the memoized encoding object."""
    return {
        (relation.name, attr): encoded
        for relation in database
        for attr, encoded in relation.encodings.items()
    }


def n_distinct(relation, attr):
    """Dictionary size of one key column (encodes it if need be)."""
    return len(relation.encodings[attr][1])


@pytest.fixture()
def count_relation_encodings(monkeypatch):
    """Counts the columns ``ColumnEncodings`` encodes from here on."""
    encoded = []
    real = ops.ColumnEncodings.__missing__

    def counting(self, name):
        encoded.append(name)
        return real(self, name)

    monkeypatch.setattr(ops.ColumnEncodings, "__missing__", counting)
    return encoded


class TestRerunsEncodeNothing:
    @pytest.mark.parametrize(
        "fixture", ["tiny_retailer", "tiny_favorita", "tiny_yelp", "tiny_tpcds"]
    )
    def test_second_pass_of_the_paper_batches(
        self, request, fixture, count_relation_encodings
    ):
        ds = request.getfixturevalue(fixture)
        engine = LMFAO(ds.database, ds.join_tree)
        batches = paper_batches(ds, engine)
        first = [engine.run(batch) for batch in batches]
        after_first = memo_entries(engine.database)
        assert after_first  # the batches do join and group
        del count_relation_encodings[:]
        second = [engine.run(batch) for batch in batches]
        assert count_relation_encodings == []
        after_second = memo_entries(engine.database)
        assert after_second.keys() == after_first.keys()
        assert all(
            after_second[key] is after_first[key] for key in after_first
        )
        for batch, one, two in zip(batches, first, second):
            assert_results_equal(one, two, batch, rtol=0, atol=0)


class TestOneAddressPerDataset:
    """Engines read the caller's relations as given, so the same data
    has one content address and one memo, whichever engine reads it."""

    def test_the_engine_reads_the_callers_database(self, toy_db):
        assert LMFAO(toy_db).database is toy_db
        assert IncrementalEngine(toy_db).database is toy_db

    def test_cached_views_serve_every_reader_of_the_same_data(
        self, tiny_retailer, count_relation_encodings
    ):
        ds = tiny_retailer
        cache = ViewCache()
        engine = LMFAO(ds.database, ds.join_tree, view_cache=cache)
        batch = paper_batches(ds, engine)[0]  # covar
        cold = engine.run(batch)
        cacheable = cold.cache_report.n_misses
        assert cacheable and cold.cache_report.n_hits == 0
        pinned = engine.run(batch, database=ds.database)
        assert pinned.cache_report.n_hits == cacheable
        del count_relation_encodings[:]
        second = LMFAO(ds.database, ds.join_tree, view_cache=cache)
        served = second.run(batch)
        assert served.cache_report.n_hits == cacheable
        assert count_relation_encodings == []
        assert_results_equal(served, cold, batch, rtol=0, atol=0)

    def test_a_second_engine_encodes_nothing(
        self, tiny_favorita, count_relation_encodings
    ):
        ds = tiny_favorita
        first = LMFAO(ds.database, ds.join_tree)
        batches = paper_batches(ds, first)
        expected = [first.run(batch) for batch in batches]
        del count_relation_encodings[:]
        second = LMFAO(ds.database, ds.join_tree)
        for batch, want in zip(batches, expected):
            assert_results_equal(
                second.run(batch), want, batch, rtol=0, atol=0
            )
        assert count_relation_encodings == []


def toy_batch():
    return QueryBatch(
        [
            Query("n", [], [Aggregate.count()]),
            Query("by_city", ["city"], [Aggregate.of("units", name="u")]),
            Query("by_date", ["date"], [Aggregate.of("price", name="p")]),
            Query(
                "by_city_store",
                ["city", "store"],
                [Aggregate.of("units", "size", name="us")],
            ),
        ]
    )


def never_seen_deltas():
    """A dimension row and fact rows carrying key values no relation held
    (store 6, date 25), so every dictionary they touch has to grow."""
    return [
        DeltaBatch.insert(
            "Stores",
            {
                "store": np.array([6]),
                "city": np.array([7]),
                "size": np.array([88.0]),
            },
        ),
        DeltaBatch.insert(
            "Sales",
            {
                "date": np.array([3, 25]),
                "store": np.array([6, 6]),
                "units": np.array([4.5, 1.25]),
            },
        ),
        DeltaBatch.insert(
            "Oil", {"date": np.array([25]), "price": np.array([61.0])}
        ),
    ]


class TestDeltasReplaceTheMemo:
    def test_only_the_changed_relation_gets_a_fresh_memo(self, toy_db):
        engine = LMFAO(toy_db)
        engine.run(toy_batch())
        before = engine.database
        assert "store" in before.relation("Stores").encodings
        applied = before.apply_delta(never_seen_deltas()[0])
        after = applied.database
        assert after.relation("Stores") is not before.relation("Stores")
        assert len(after.relation("Stores").encodings) == 0
        assert n_distinct(after.relation("Stores"), "store") == 7
        assert n_distinct(before.relation("Stores"), "store") == 6
        for name in ("Sales", "Oil"):
            assert after.relation(name) is before.relation(name)
            assert after.relation(name).encodings is before.relation(
                name
            ).encodings
        # the delta partition is a relation of its own, with its own memo
        assert len(applied.inserted.encodings) == 0
        assert n_distinct(applied.inserted, "store") == 1

    def test_incremental_engine_tracks_never_seen_keys(self, toy_db):
        batch = toy_batch()
        engine = IncrementalEngine(toy_db)
        engine.run(batch)
        for delta in never_seen_deltas():
            report = engine.apply_delta(delta)
            assert report.all_incremental, report
            maintained = engine.run(batch)
            cold = LMFAO(engine.database).run(batch)
            assert_results_equal(maintained, cold, batch, rtol=1e-9)
        assert engine.stats()["fallbacks"] == 0
        assert 7 in maintained["by_city"].column("city")
        assert 25 in maintained["by_date"].column("date")

    def test_view_cache_repair_tracks_never_seen_keys(self, toy_db):
        batch = toy_batch()
        cache = ViewCache()
        engine = IncrementalEngine(toy_db, view_cache=cache)
        engine.run(batch)
        for delta in never_seen_deltas():
            engine.apply_delta(delta)
            # a fresh engine sharing the cache serves the repaired
            # entries; a cold one recomputes
            warm = LMFAO(engine.database, view_cache=cache)
            served = warm.run(batch)
            assert served.cache_report.n_hits > 0
            cold = LMFAO(engine.database).run(batch)
            assert_results_equal(served, cold, batch, rtol=1e-9)
        assert cache.stats().patches > 0


class TestCachedViewsEncodeOnce:
    """A view joined or grouped on by every delta run keeps its key
    encodings, as a relation does: a root delta's repair re-encodes no
    cached view it reads."""

    def test_a_root_delta_reencodes_no_cached_view(
        self, tiny_retailer, monkeypatch
    ):
        ds = tiny_retailer
        engine = IncrementalEngine(ds.database, ds.join_tree)
        batch = paper_batches(ds, engine.engine)[0]  # covar
        engine.run(batch)
        rng = np.random.default_rng(0)

        def root_delta():
            fact = engine.database.relation(engine.root)
            rows = rng.integers(0, fact.n_rows, 3)
            return DeltaBatch.insert(
                engine.root,
                {a: fact.column(a)[rows] for a in fact.schema.names},
            )

        engine.apply_delta(root_delta())
        cache = engine.view_cache
        repaired = set(cache.entries_containing(engine.root))
        unchanged = {
            id(column)
            for digest in cache.digests()
            if digest not in repaired
            for column in cache.peek(digest).key_cols
        }
        assert unchanged
        encoded = []
        real = ops.factorize

        def recording(column):
            encoded.append(id(column))
            return real(column)

        monkeypatch.setattr(ops, "factorize", recording)
        report = engine.apply_delta(root_delta())
        assert report.all_incremental and report.views_patched > 0
        assert encoded  # the delta partition is a new relation
        assert not unchanged & set(encoded)


class TestTheMemoStaysInProcess:
    def test_pickling_a_relation_drops_it(self, toy_db):
        relation = toy_db.relation("Sales").rename("Sales")
        cold = len(pickle.dumps(relation))
        relation.encodings["store"], relation.encodings["date"]
        assert len(pickle.dumps(relation)) == cold
        clone = pickle.loads(pickle.dumps(relation))
        assert len(clone.encodings) == 0
        assert n_distinct(clone, "store") == n_distinct(relation, "store")

    def test_snapshots_hold_columns_only(self, toy_db, tmp_path):
        database = pickle.loads(pickle.dumps(toy_db))  # private, cold memos
        LMFAO(database).run(toy_batch())
        assert memo_entries(database)
        path = str(tmp_path / "snapshot")
        write_snapshot(database, path, epoch=0)
        with open(path, "rb") as handle:
            _header, columns = codec.read_record(handle, snapshot._MAGIC)
            assert handle.read() == b""  # the record is the whole file
        expected = [
            relation.column(attr)
            for relation in database
            for attr in relation.schema.names
        ]
        assert len(columns) == len(expected)
        for stored, column in zip(columns, expected):
            np.testing.assert_array_equal(stored, column)
        restored, _info = load_snapshot(path)
        assert not memo_entries(restored)

