"""The CART learner's batches are pinned.

``node_batch`` (the paper's RT batch: ``agg_batch``'s ``rt_node`` and
the served ``trees`` workload) and ``split_batch`` (what the learner
runs per node) are pinned for both kinds of tree, at the root and at
one conditioned node, as a digest of what plans and binds them: the
structural signature (the plan-cache key), the aggregate names (the
result columns) and the signatures of the dynamic functions (the values
bound into the plan's slots).
"""

import hashlib

import pytest

from repro import LMFAO
from repro.ml.trees import CARTLearner, Condition, _ComplementCondition

DATASETS = ("retailer", "favorita", "yelp", "tpcds")

#: (dataset, kind, node, method) -> digest
PINS = {
    ("retailer", "regression", "root", "node_batch"): "1706fb933fe5eece",
    ("retailer", "regression", "root", "split_batch"): "9dae3d5bec99bdff",
    ("retailer", "regression", "node", "node_batch"): "d9d4bfd8fafd9734",
    ("retailer", "regression", "node", "split_batch"): "e9f3057e06f1e612",
    ("retailer", "classification", "root", "node_batch"): "05f084f2f21e69c7",
    ("retailer", "classification", "root", "split_batch"): "def6c560e3a16055",
    ("retailer", "classification", "node", "node_batch"): "9511255a2e5c33cc",
    ("retailer", "classification", "node", "split_batch"): "c6600b8fcf79d3e4",
    ("favorita", "regression", "root", "node_batch"): "1750525d9ed08f8e",
    ("favorita", "regression", "root", "split_batch"): "2e2c4125adc6e8e9",
    ("favorita", "regression", "node", "node_batch"): "ffebae6a23b10906",
    ("favorita", "regression", "node", "split_batch"): "82fd29ddeb0dea87",
    ("favorita", "classification", "root", "node_batch"): "a682a75077b03d70",
    ("favorita", "classification", "root", "split_batch"): "d38570f5fdd8a8b7",
    ("favorita", "classification", "node", "node_batch"): "93c43606736737c4",
    ("favorita", "classification", "node", "split_batch"): "c82fe09e123bf279",
    ("yelp", "regression", "root", "node_batch"): "2630dd134e95da15",
    ("yelp", "regression", "root", "split_batch"): "89faf62f15deef92",
    ("yelp", "regression", "node", "node_batch"): "515bfa9f7b6f4a1f",
    ("yelp", "regression", "node", "split_batch"): "fe3f1f08f3fcd8fc",
    ("yelp", "classification", "root", "node_batch"): "7e048f02dca9cc6e",
    ("yelp", "classification", "root", "split_batch"): "efd911d401a927aa",
    ("yelp", "classification", "node", "node_batch"): "c91e29781c3ab79e",
    ("yelp", "classification", "node", "split_batch"): "a56bf20c82d75d20",
    ("tpcds", "regression", "root", "node_batch"): "59d7a4b96d67ef34",
    ("tpcds", "regression", "root", "split_batch"): "dbae8c85f967b818",
    ("tpcds", "regression", "node", "node_batch"): "319627938585ce3c",
    ("tpcds", "regression", "node", "split_batch"): "44af80cdce18fcf3",
    ("tpcds", "classification", "root", "node_batch"): "67e960c773722374",
    ("tpcds", "classification", "root", "split_batch"): "13cf7f46431aa791",
    ("tpcds", "classification", "node", "node_batch"): "ed5eccdb517923d6",
    ("tpcds", "classification", "node", "split_batch"): "d82201f5ff2c93d1",
}


def learner_for(ds, kind: str) -> CARTLearner:
    """The dataset's label when it has the kind's attribute kind, else
    its first feature of that kind; every other feature is a feature."""
    wanted = "continuous" if kind == "regression" else "categorical"
    label = ds.label
    if ds.database.attribute_kind(label) != wanted:
        label = getattr(ds, f"{wanted}_features")[0]
    return CARTLearner(
        LMFAO(ds.database, ds.join_tree),
        [f for f in ds.continuous_features if f != label],
        [f for f in ds.categorical_features if f != label],
        label, kind, n_buckets=6,
    )


def digest(batch) -> str:
    dynamic = tuple(f.signature() for f in batch.dynamic_functions())
    text = repr(
        (batch.structural_signature(), batch.aggregate_names(), dynamic)
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("kind", ["regression", "classification"])
@pytest.mark.parametrize("name", DATASETS)
def test_tree_batches_are_pinned(request, name, kind):
    learner = learner_for(request.getfixturevalue(f"tiny_{name}"), kind)
    attr, category = learner.continuous[0], learner.categorical[0]
    values = learner.thresholds[attr].tolist()
    node = [
        Condition(category, "==", 1.0),
        _ComplementCondition(attr, "<=", values[len(values) // 2]),
    ]
    got = {
        (name, kind, where, method): digest(getattr(learner, method)(conds))
        for where, conds in (("root", []), ("node", node))
        for method in ("node_batch", "split_batch")
    }
    assert got == {key: PINS[key] for key in got}
