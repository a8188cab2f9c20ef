"""Dataset generators: schema fidelity, determinism, scaling, metadata."""

import numpy as np
import pytest

from repro import materialize_join
from repro.datasets import ALL_DATASETS, favorita, retailer, tpcds, yelp
from repro.datasets.base import train_test_split_by, zipf_choice


@pytest.mark.parametrize("name,generator", list(ALL_DATASETS.items()))
class TestAllDatasets:
    def test_join_tree_valid(self, name, generator):
        ds = generator(scale=0.05)
        ds.join_tree.validate()
        assert set(ds.join_tree.nodes) == set(ds.database.relation_names)

    def test_deterministic(self, name, generator):
        a = generator(scale=0.05)
        b = generator(scale=0.05)
        for rel_name in a.database.relation_names:
            assert (
                a.database.relation(rel_name).to_rows()
                == b.database.relation(rel_name).to_rows()
            )

    def test_scaling(self, name, generator):
        small = generator(scale=0.05)
        large = generator(scale=0.2)
        assert large.database.total_tuples() > small.database.total_tuples()

    def test_feature_metadata_resolves(self, name, generator):
        ds = generator(scale=0.05)
        attrs = set(ds.database.attributes())
        for feature in ds.features + [ds.label] + ds.discrete_attrs:
            assert feature in attrs, feature
        for dim in ds.cube_dimensions:
            assert dim in attrs
        for measure in ds.cube_measures:
            assert measure in attrs

    def test_label_kind_matches_task(self, name, generator):
        ds = generator(scale=0.05)
        kind = ds.database.attribute_kind(ds.label)
        if name == "tpcds":  # classification target
            assert kind == "categorical"
        else:
            assert kind == "continuous"

    def test_regression_spec_has_a_continuous_label(self, name, generator):
        ds = generator(scale=0.05)
        continuous, categorical, label = ds.regression_spec()
        assert ds.database.attribute_kind(label) == "continuous"
        # tpcds's own label is its classification target
        assert label == (
            ds.continuous_features[0] if name == "tpcds" else ds.label
        )
        assert continuous == [f for f in ds.continuous_features if f != label]
        assert categorical == ds.categorical_features

    def test_join_is_connected(self, name, generator):
        ds = generator(scale=0.05)
        flat = materialize_join(ds.database)
        assert flat.n_rows > 0

    def test_summary_fields(self, name, generator):
        ds = generator(scale=0.05)
        summary = ds.summary()
        assert summary["dataset"] == name
        assert summary["relations"] == len(ds.database)
        assert summary["tuples"] > 0


class TestSchemasMatchPaper:
    def test_relation_counts(self):
        assert len(retailer(scale=0.05).database) == 5
        assert len(favorita(scale=0.05).database) == 6
        assert len(yelp(scale=0.05).database) == 5
        assert len(tpcds(scale=0.05).database) == 10

    def test_favorita_schema_is_figure3(self):
        ds = favorita(scale=0.05)
        sales = ds.database.relation("Sales")
        assert set(sales.schema.names) == {
            "date",
            "store",
            "item",
            "units",
            "promo",
        }
        assert set(ds.database.relation_names) == {
            "Sales",
            "Holidays",
            "StoRes",
            "Items",
            "Transactions",
            "Oil",
        }

    def test_yelp_join_blows_up(self):
        """Table 1: Yelp's join result far exceeds its database size."""
        ds = yelp(scale=0.1)
        flat = materialize_join(ds.database)
        assert flat.n_rows > 3 * ds.database.total_tuples()

    def test_snowflake_vs_star(self):
        # Retailer: Census hangs off Location (depth 2) -> snowflake
        ds = retailer(scale=0.05)
        rooted = ds.join_tree.rooted("Inventory")
        assert rooted.depth["Census"] == 2
        # Favorita: Oil/StoRes hang off Transactions per Figure 3
        ds = favorita(scale=0.05)
        rooted = ds.join_tree.rooted("Sales")
        assert rooted.depth["Oil"] == 2

    def test_fact_table_detection(self):
        assert retailer(scale=0.05).fact_table() == "Inventory"
        assert favorita(scale=0.05).fact_table() == "Sales"
        assert tpcds(scale=0.05).fact_table() == "Store_Sales"


class TestHelpers:
    def test_zipf_is_skewed(self):
        rng = np.random.default_rng(0)
        draws = zipf_choice(rng, 100, 10_000)
        _, counts = np.unique(draws, return_counts=True)
        assert counts.max() > 5 * counts.min()

    def test_train_test_split(self):
        ds = favorita(scale=0.1)
        train_db, test_db = train_test_split_by(ds, "date", 0.2)
        total = ds.database.relation("Sales").n_rows
        n_train = train_db.relation("Sales").n_rows
        n_test = test_db.relation("Sales").n_rows
        assert n_train + n_test == total
        assert 0 < n_test < total
        # test fraction uses the top date range (future sales)
        assert (
            train_db.relation("Sales").column("date").max()
            <= test_db.relation("Sales").column("date").min()
        )
