"""Database catalog and join materialization."""

import numpy as np
import pytest

from repro.data import Database, Relation, materialize_join
from repro.data.schema import Schema, continuous, key


def rel(name, cols, attrs):
    return Relation(name, Schema(attrs), cols)


class TestCatalog:
    def test_duplicate_relation_rejected(self, toy_db):
        sales = toy_db.relation("Sales")
        with pytest.raises(ValueError):
            Database([sales, sales])

    def test_relation_lookup(self, toy_db):
        assert toy_db.relation("Sales").name == "Sales"
        with pytest.raises(KeyError):
            toy_db.relation("Missing")

    def test_contains_len_iter(self, toy_db):
        assert "Sales" in toy_db and "Nope" not in toy_db
        assert len(toy_db) == 3
        assert {r.name for r in toy_db} == {"Sales", "Stores", "Oil"}

    def test_attributes_dedup(self, toy_db):
        attrs = toy_db.attributes()
        assert attrs.count("store") == 1
        assert "units" in attrs and "price" in attrs

    def test_attribute_kind(self, toy_db):
        assert toy_db.attribute_kind("units") == "continuous"
        assert toy_db.attribute_kind("city") == "categorical"
        with pytest.raises(KeyError):
            toy_db.attribute_kind("nope")

    def test_replace(self, toy_db):
        smaller = toy_db.relation("Sales").filter(
            toy_db.relation("Sales").column("store") == 0
        )
        replaced = toy_db.replace(smaller)
        assert replaced.relation("Sales").n_rows < toy_db.relation(
            "Sales"
        ).n_rows
        # original untouched
        assert toy_db.relation("Sales").n_rows == 300

    def test_replace_unknown_raises(self, toy_db):
        stray = rel("Stray", {"z": np.array([1])}, [key("z")])
        with pytest.raises(KeyError):
            toy_db.replace(stray)

    def test_totals(self, toy_db):
        assert toy_db.total_tuples() == 300 + 6 + 25
        assert toy_db.total_bytes() > 0


class TestMaterializeJoin:
    def test_count_matches_brute_force(self, toy_db):
        flat = materialize_join(toy_db)
        sales = toy_db.relation("Sales")
        # every sale matches exactly one store and one oil row
        assert flat.n_rows == sales.n_rows

    def test_join_has_all_attributes(self, toy_db):
        flat = materialize_join(toy_db)
        for attr in toy_db.attributes():
            assert flat.has_column(attr)

    def test_greedy_order_avoids_cross_products(self, chain_db):
        # relation order in the catalog is R1..R4; a naive pairwise fold
        # works, but listing disconnected relations first must too
        flat = materialize_join(chain_db, order=["R1", "R3", "R2", "R4"])
        flat2 = materialize_join(chain_db)
        assert flat.n_rows == flat2.n_rows

    def test_empty_database_rejected(self):
        with pytest.raises(ValueError):
            materialize_join(Database([], name="empty"))
