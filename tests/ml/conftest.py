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
    return (ds, *ds.regression_spec())
