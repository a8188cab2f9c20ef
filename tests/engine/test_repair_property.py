"""Property test of view repair: random delta sequences stay exact.

Hypothesis draws short sequences of root and dimension deltas — inserts,
retractions and updates — over the tiny datasets, including the deltas
the repair rules of ``ViewCache.on_delta`` are most likely to get wrong:

* a dimension update that moves a categorical attribute, so a group key
  of the views above it moves;
* retracting a dimension row that other rows still reference;
* inserting a dimension row under a never-seen key;
* retracting with a repeated row index.

After every delta, each served workload (the covar matrix, a regression
tree node and mutual information) answered from the repaired views must
equal an LMFAO run without a view cache on the same database: the same
group keys, and values within 1e-9 of each column's scale.  And every
keyed view left in the cache holds each of its keys at a whole,
positive support (its COUNT aggregate).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import LMFAO, DeltaBatch, IncrementalEngine, ml

from .helpers import relation_to_table, _agg_names

DATASETS = ["tiny_retailer", "tiny_favorita", "tiny_yelp", "tiny_tpcds"]
ROOT_KINDS = ("insert", "retract", "update")
#: every sequence holds one dimension delta of each of these kinds
SPECIAL_KINDS = ("move_category", "retract_referenced", "new_key")

_WORKLOADS = {}


def served(ds):
    """The served batches of a dataset, with a planner that keeps its
    plans: they depend on the schema, not on the data."""
    if ds.name not in _WORKLOADS:
        planner = LMFAO(ds.database, ds.join_tree)
        label = ds.label
        if ds.database.attribute_kind(label) != "continuous":
            label = ds.continuous_features[0]
        continuous = [f for f in ds.continuous_features if f != label]
        categorical = list(ds.categorical_features)
        batches = {
            "covar": ml.CovarBatch(continuous, categorical, label).batch,
            "trees": ml.CARTLearner(
                planner, continuous, categorical, label, "regression"
            ).node_batch([]),
            "mutual_information": ml.build_mi_batch(ds.discrete_attrs),
        }
        _WORKLOADS[ds.name] = (planner, batches)
    return _WORKLOADS[ds.name]


def shared_attributes(database, name):
    """Attributes of ``name`` some other relation also has."""
    others = [rel for rel in database if rel.name != name]
    return [
        attr
        for attr in database.relation(name).schema.names
        if any(rel.has_column(attr) for rel in others)
    ]


def rows_of(rel, idx):
    return {a: rel.column(a)[idx].copy() for a in rel.schema.names}


def draw_delta(data, database, root, kind=None):
    """One delta against the current database: of ``kind`` on a drawn
    dimension, or of a drawn plain kind on any relation."""
    names = [rel.name for rel in database if kind is None or rel.name != root]
    name = data.draw(st.sampled_from(names))
    if kind is None:
        kind = data.draw(st.sampled_from(ROOT_KINDS))
    rel = database.relation(name)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    n = int(rng.integers(1, 4))
    if kind == "insert" or rel.n_rows < 2:
        source = rng.integers(0, rel.n_rows, n)
        return DeltaBatch.insert(name, rows_of(rel, source))
    victims = rng.choice(rel.n_rows, min(n, rel.n_rows - 1), replace=False)
    if kind == "retract":
        # an index may repeat; the database retracts each named row once
        return DeltaBatch.delete(name, rng.choice(victims, n))
    shared = shared_attributes(database, name)
    if kind == "retract_referenced":
        # rows whose join values another relation still holds, on the
        # attribute the root holds where there is one
        on_root = [a for a in shared if database.relation(root).has_column(a)]
        attr = (on_root or shared)[0]
        held = [
            other.column(attr)
            for other in database
            if other.name != name and other.has_column(attr)
        ]
        referenced = rel.match_rows({attr: np.concatenate(held)})
        if len(referenced) and len(referenced) < rel.n_rows:
            return DeltaBatch.delete(name, rng.choice(referenced, 1))
        return DeltaBatch.delete(name, victims)
    if kind == "new_key":
        fresh = rows_of(rel, victims[:1])
        for attr in shared:
            column = rel.column(attr)
            fresh[attr] = np.asarray([column.max() + 1], dtype=column.dtype)
        return DeltaBatch.insert(name, fresh)
    changed = rows_of(rel, victims)
    if kind == "move_category":
        own = [
            a
            for a in rel.schema.names
            if a not in shared and rel.schema[a].kind == "categorical"
        ]
        if own:
            attr = own[int(rng.integers(0, len(own)))]
            values = np.unique(rel.column(attr))
            changed[attr] = rng.choice(
                np.append(values, values.max() + 1), len(victims)
            ).astype(rel.column(attr).dtype)
            return DeltaBatch(name, inserts=changed, delete_indices=victims)
    # update: the same keys, continuous attributes moved
    for attr in rel.schema.names:
        if rel.schema[attr].kind == "continuous":
            changed[attr] = changed[attr] + float(rng.integers(1, 5))
    return DeltaBatch(name, inserts=changed, delete_indices=victims)


def assert_same_answer(got, expected, batch):
    """Same key sets; values within 1e-9 of each column's scale."""
    for query in batch:
        names = _agg_names(query)
        have = relation_to_table(got[query.name], query.group_by, names)
        want = relation_to_table(expected[query.name], query.group_by, names)
        assert set(have) == set(want), query.name
        if not want:
            continue
        keys = sorted(want)
        a = np.array([have[k] for k in keys], dtype=float)
        b = np.array([want[k] for k in keys], dtype=float)
        scale = np.maximum(np.abs(b).max(axis=0), 1.0)
        assert (np.abs(a - b) <= 1e-9 * scale).all(), query.name


def assert_supports_positive(cache):
    """Every resident keyed view holds each key at a whole support >= 1:
    repair retires a key whose count reaches zero and drives none below."""
    for digest in cache.digests():
        data = cache.peek(digest)
        if not data.group_by:
            continue
        counts = data.sums[data.count]
        assert (counts == np.round(counts)).all(), digest
        assert (counts >= 1).all(), (digest, counts.min())


@pytest.mark.parametrize("dataset", DATASETS)
def test_repaired_answers_match_recomputation(dataset, request):
    ds = request.getfixturevalue(dataset)
    planner, batches = served(ds)

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def check(data):
        engine = IncrementalEngine(ds.database, ds.join_tree)
        for batch in batches.values():
            engine.run(batch)
        kinds = list(SPECIAL_KINDS) + [None] * data.draw(st.integers(0, 2))
        for kind in data.draw(st.permutations(kinds)):
            delta = draw_delta(data, engine.database, engine.root, kind)
            engine.apply_delta(delta)
            assert_supports_positive(engine.view_cache)
            planner.database = engine.database
            for batch in batches.values():
                expected = planner.run(batch)
                assert_same_answer(engine.run(batch), expected, batch)
        stats = engine.stats()
        assert (
            stats["incremental"] + stats["fallbacks"]
            == stats["deltas"]
        )
        assert stats["fallbacks"] == 0, stats

    check()
