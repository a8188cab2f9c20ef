"""Fixtures shared by the ML tests."""

import pytest


@pytest.fixture(
    scope="session",
    params=["tiny_retailer", "tiny_favorita", "tiny_yelp", "tiny_tpcds"],
)
def tiny_regression(request):
    """``(dataset, continuous, categorical, label)`` for each tiny dataset:
    every feature, and a continuous label (the first continuous feature
    where the dataset's own label is categorical)."""
    ds = request.getfixturevalue(request.param)
    label = ds.label
    if ds.database.attribute_kind(label) != "continuous":
        label = ds.continuous_features[0]
    continuous = [f for f in ds.continuous_features if f != label]
    return ds, continuous, list(ds.categorical_features), label
