"""CART trees: LMFAO-learned trees match brute-force CART exactly."""

import numpy as np
import pytest

from repro import LMFAO, Database, Relation, materialize_join
from repro.baselines import brute_force_cart
from repro.ml.trees import (
    CARTLearner,
    Condition,
    SplitCandidate,
    _ComplementCondition,
    _gini,
    _improves,
    _left_sums,
    _variance,
    bucket_thresholds,
)


def tree_structure(node):
    if node.is_leaf:
        return ("leaf", round(node.prediction, 6))
    return (
        str(node.condition),
        tree_structure(node.left),
        tree_structure(node.right),
    )


def internal_nodes(tree) -> int:
    return (tree.node_count() - 1) // 2  # every internal node has two children


class TestCostFunctions:
    def test_variance_zero_for_constant(self):
        assert _variance(5, 10.0, 20.0) == 0.0  # y == 2 everywhere

    def test_variance_positive(self):
        # y = [1, 3]: sum 4, sumsq 10, var-cost = 10 - 16/2 = 2
        assert _variance(2, 4.0, 10.0) == 2.0

    def test_variance_empty(self):
        assert _variance(0, 0.0, 0.0) == 0.0

    def test_gini_pure(self):
        assert _gini({0: 10.0}) == 0.0

    def test_gini_uniform_two_classes(self):
        assert np.isclose(_gini({0: 5.0, 1: 5.0}), 0.5)

    def test_gini_empty(self):
        assert _gini({}) == 0.0


class TestConditions:
    def test_delta_roundtrip(self):
        condition = Condition("x", "<=", 3.0)
        delta = condition.delta()
        assert delta.dynamic
        cols = {"x": np.array([1.0, 5.0])}
        assert delta.evaluate(cols).tolist() == [1.0, 0.0]
        assert condition.complement_delta().evaluate(cols).tolist() == [
            0.0,
            1.0,
        ]

    def test_complement_of_at_most_keeps_nan(self):
        # x <= t is false for NaN, so its complement holds there
        cols = {"x": np.array([1.0, 5.0, np.nan])}
        complement = Condition("x", "<=", 3.0).complement_delta()
        assert complement.dynamic
        assert complement.evaluate(cols).tolist() == [0.0, 1.0, 1.0]

    def test_equality_condition(self):
        condition = Condition("c", "==", 2.0)
        assert condition.test(np.array([2, 3])).tolist() == [True, False]


class TestRegressionTree:
    @pytest.fixture(scope="class")
    def learned(self, tiny_regression):
        ds, cont, cat, label = tiny_regression
        flat = materialize_join(ds.database)
        params = dict(
            max_depth=3, min_samples_split=40, n_buckets=6,
        )
        engine = LMFAO(ds.database, ds.join_tree)
        learner = CARTLearner(engine, cont, cat, label, "regression", **params)
        lmfao_tree = learner.fit()
        # same buckets for a true head-to-head (the paper feeds all
        # systems the same buckets)
        brute = brute_force_cart(
            ds.database, cont, cat, label, "regression",
            flat=flat, thresholds=learner.thresholds, **params,
        )
        return lmfao_tree, brute, flat, learner

    def test_identical_structure(self, learned):
        lmfao_tree, brute, _, _ = learned
        assert tree_structure(lmfao_tree.root) == tree_structure(brute.root)

    def test_identical_rmse(self, learned):
        lmfao_tree, brute, flat, _ = learned
        assert np.isclose(lmfao_tree.rmse(flat), brute.rmse(flat))

    def test_tree_reduces_error_vs_mean(self, learned):
        lmfao_tree, _, flat, _ = learned
        target = flat.column(lmfao_tree.label)
        baseline_rmse = float(np.sqrt(np.mean((target - target.mean()) ** 2)))
        assert lmfao_tree.rmse(flat) < baseline_rmse

    def test_node_count_bounded(self, learned):
        lmfao_tree, *_ = learned
        assert 1 < lmfao_tree.node_count() <= 2 ** (3 + 1) - 1

    def test_one_batch_per_split_node(self, learned):
        lmfao_tree, *_, learner = learned
        # the root's totals, then one split search per internal node (every
        # node searched here split); children reuse their parent's sums
        assert learner.batches_run == 1 + internal_nodes(lmfao_tree)

    def test_plan_cache_reused_across_nodes(self, learned):
        lmfao_tree, *_, learner = learned
        engine = learner.engine
        planned = len(engine._plan_cache)
        # a plan is cached per ancestor-attribute pattern (values and
        # comparison operators are dynamic): the root's two children
        # searched their splits with one plan, made while fitting; the
        # learner plans split_batch, node_batch's histogram form
        condition = lmfao_tree.root.condition
        complement = _ComplementCondition(
            condition.attr, condition.op, condition.value
        )
        left = engine.plan(learner.split_batch([condition]))
        right = engine.plan(learner.split_batch([complement]))
        assert left is right
        assert len(engine._plan_cache) == planned
        # one totals plan; fewer split plans than split batches
        assert planned - 1 < learner.batches_run - 1


class TestSplitBatch:
    """split_batch's histograms carry node_batch's per-threshold sums: a
    prefix sum over a feature's sorted values gives every threshold's
    left sums."""

    @staticmethod
    def learner(ds, cont, cat, label, kind, **params):
        learner = CARTLearner(
            LMFAO(ds.database, ds.join_tree), cont, cat, label, kind, **params
        )
        # a threshold below every value, one equal to a value and one
        # above every value
        for attr, values in learner.thresholds.items():
            column = np.unique(learner._column_of(attr))
            learner.thresholds[attr] = np.unique(
                np.concatenate([
                    [column[0] - 1.0, column[len(column) // 2]],
                    values,
                    [column[-1] + 1.0],
                ])
            )
        return learner

    @staticmethod
    def assert_same_left_sums(learner, conditions):
        """The split search's left sums against node_batch's scalar
        aggregates, per threshold of every continuous feature."""
        histograms = learner.engine.run(learner.split_batch(conditions))
        batch = learner.node_batch(conditions)
        scalars = learner.engine.run(batch)["split:cont"]
        # a vector holds (n, Σy, Σy²), or one count per class of the label
        if learner.kind == "regression":
            names = ["n", "sy", "syy"]
        else:
            names = np.unique(learner._column_of(learner.label)).tolist()
        for attr, values in learner.thresholds.items():
            keys, sums = learner._histogram(histograms, attr)
            lefts = _left_sums(keys, sums, values)
            assert lefts.shape == (len(values), len(names))
            for i in range(len(values)):
                if learner.kind == "regression":
                    expected = [
                        scalars.column(f"{name}:{attr}:{i}")[0]
                        for name in names
                    ]
                else:
                    per_class = dict(
                        zip(
                            scalars.column(learner.label).tolist(),
                            scalars.column(f"n:{attr}:{i}").tolist(),
                        )
                    )
                    assert set(per_class) == set(names)
                    expected = [per_class[c] for c in names]
                np.testing.assert_allclose(lefts[i], expected, rtol=1e-12)
            # below the minimum no row, above the maximum every row
            n = lefts[:, 0] if learner.kind == "regression" else lefts.sum(1)
            assert n[0] == 0
            assert n[-1] == histograms[f"split:{attr}"].column("n").sum()
        return histograms

    @staticmethod
    def fragments(learner, attr, category):
        """The root, one conditioned node (a category and the right side
        of a threshold) and an empty fragment."""
        values = learner.thresholds[attr].tolist()
        return [
            [],
            [
                Condition(category, "==", 1.0),
                _ComplementCondition(attr, "<=", values[len(values) // 2]),
            ],
            [Condition(attr, "<=", values[0])],
        ]

    def test_regression_matches_node_batch(self, tiny_favorita):
        learner = self.learner(
            tiny_favorita, ["txns", "price"], ["stype", "promo"], "units",
            "regression", n_buckets=6,
        )
        for conditions in self.fragments(learner, "txns", "promo"):
            histograms = self.assert_same_left_sums(learner, conditions)
        assert not histograms["split:price"].column("n").any()  # empty

    def test_classification_matches_node_batch(self, tiny_tpcds):
        learner = self.learner(
            tiny_tpcds, ["ss_list_price", "hd_dep_count"],
            ["cd_marital", "cd_education"], "preferred", "classification",
            n_buckets=5,
        )
        fragments = self.fragments(learner, "hd_dep_count", "cd_marital")
        for conditions in fragments:
            histograms = self.assert_same_left_sums(learner, conditions)
        assert not histograms["split:cd_education"].column("n").any()

    @pytest.mark.parametrize("n_buckets", [4, 20])
    @pytest.mark.parametrize(
        "kind, per_feature", [("regression", 3), ("classification", 1)]
    )
    def test_aggregates_per_feature_whatever_the_buckets(
        self, tiny_tpcds, n_buckets, kind, per_feature
    ):
        cont = ["ss_list_price", "hd_dep_count"]
        cat = ["cd_marital", "cd_education"]
        label = "preferred" if kind == "classification" else "ss_quantity"
        learner = CARTLearner(
            LMFAO(tiny_tpcds.database, tiny_tpcds.join_tree),
            cont, cat, label, kind, n_buckets=n_buckets,
        )
        condition = Condition("cd_marital", "==", 1.0)
        for conditions in ([], [condition]):
            batch = learner.split_batch(conditions)
            assert [q.name for q in batch] == [
                f"split:{attr}" for attr in cont + cat
            ]
            assert all(q.n_aggregates == per_feature for q in batch)


class TestNaNFeature:
    """A continuous feature with NaN values is bucketized over its finite
    values, and its NaN rows take the right side of every ``x <= t``
    split in both learners, as ``δ(x <= t)`` is false there."""

    @pytest.fixture(scope="class")
    def flat(self):
        rng = np.random.default_rng(7)
        n = 400
        x = rng.uniform(0.0, 1.0, n)
        z = rng.uniform(0.0, 1.0, n)
        nan = rng.random(n) < 0.2
        # NaN rows have the labels of large x, so the root splits on x
        # and its right child, NaN rows included, splits on z
        y = 5.0 * ((x > 0.5) | nan) + 3.0 * (z > 0.5) + rng.normal(0, 0.1, n)
        x[nan] = np.nan
        return Relation.from_dict("Flat", {"x": x, "z": z, "y": y})

    @pytest.fixture(scope="class")
    def trees(self, flat):
        database = Database([flat], name="nan")
        params = dict(max_depth=2, min_samples_split=20, n_buckets=8)
        learner = CARTLearner(LMFAO(database), ["x", "z"], [], "y", **params)
        learned = learner.fit()
        brute = brute_force_cart(
            database, ["x", "z"], [], "y", flat=flat, **params
        )
        return learner, learned, brute

    def test_thresholds_are_finite(self, flat, trees):
        learner, *_ = trees
        x = flat.column("x")
        thresholds = learner.thresholds["x"]
        assert len(thresholds) == 7 and np.isfinite(thresholds).all()
        np.testing.assert_array_equal(
            thresholds, bucket_thresholds(x[~np.isnan(x)], 8)
        )
        # a column without a finite value has no threshold to split at
        assert not len(bucket_thresholds(np.array([np.nan, np.inf]), 8))

    def test_both_learners_split_on_the_feature(self, trees):
        _, learned, brute = trees
        for tree in (learned, brute):
            assert tree.root.condition.attr == "x"
            assert tree.root.right.condition.attr == "z"

    def test_nan_rows_go_right(self, flat, trees):
        _, learned, brute = trees
        x, z = flat.column("x"), flat.column("z")
        nan = np.isnan(x)
        for tree in (learned, brute):
            root, right = tree.root, tree.root.right
            assert root.left.n_samples == np.sum(x <= root.condition.value)
            assert root.right.n_samples == np.sum(~(x <= root.condition.value))
            below = ~(x <= root.condition.value) & (z <= right.condition.value)
            assert right.left.n_samples == below.sum()
            assert (nan & below).any()
            leaves = {right.left.prediction, right.right.prediction}
            assert set(tree.predict(flat)[nan].tolist()) <= leaves

    def test_trees_match_brute_force(self, flat, trees):
        _, learned, brute = trees
        assert tree_structure(learned.root) == tree_structure(brute.root)
        assert np.isclose(learned.rmse(flat), brute.rmse(flat))


class TestClassificationTree:
    @pytest.fixture(scope="class")
    def learned(self, request):
        ds = request.getfixturevalue("tiny_tpcds")
        flat = materialize_join(ds.database)
        cont = ["ss_list_price", "hd_dep_count"]
        cat = ["cd_marital", "cd_education"]
        params = dict(max_depth=2, min_samples_split=30, n_buckets=5)
        engine = LMFAO(ds.database, ds.join_tree)
        learner = CARTLearner(
            engine, cont, cat, "preferred", "classification", **params
        )
        lmfao_tree = learner.fit()
        brute = brute_force_cart(
            ds.database, cont, cat, "preferred", "classification",
            flat=flat, thresholds=learner.thresholds, **params,
        )
        return lmfao_tree, brute, flat, learner

    def test_identical_structure(self, learned):
        lmfao_tree, brute, *_ = learned
        assert tree_structure(lmfao_tree.root) == tree_structure(brute.root)

    def test_identical_accuracy(self, learned):
        lmfao_tree, brute, flat, _ = learned
        assert np.isclose(lmfao_tree.accuracy(flat), brute.accuracy(flat))

    def test_one_batch_per_split_node(self, learned):
        lmfao_tree, *_, learner = learned
        assert learner.batches_run == 1 + internal_nodes(lmfao_tree)

    def test_beats_majority_class(self, learned):
        lmfao_tree, _, flat, _ = learned
        labels = flat.column("preferred")
        majority = max(
            np.mean(labels == v) for v in np.unique(labels)
        )
        assert lmfao_tree.accuracy(flat) >= majority


class TestTies:
    """Split costs within a relative 1e-9 tie, and a tie keeps the
    earlier candidate, so the chosen split does not depend on the order
    rows were summed in."""

    def test_regression_keeps_the_earlier_of_one_ulp_apart(self, toy_db):
        learner = CARTLearner(LMFAO(toy_db), ["price"], [], "units")
        first = learner._cost([1.0, 0.0, 1.0], [1.0, 0.0, 0.0])
        one_ulp_lower = float(np.nextafter(1.0, 0.0))
        assert one_ulp_lower < first
        later = learner._cost([1.0, 0.0, one_ulp_lower], [1.0, 0.0, 0.0])
        assert later < first
        assert not _improves(later, first)

    def test_classification_keeps_the_earlier_of_rounding_apart(
        self, toy_db
    ):
        learner = CARTLearner(
            LMFAO(toy_db), [], [], "city", "classification"
        )
        # one count per class of city (0, 1, 2)
        first = learner._cost([1.0, 1.0, 0.0], [2.0, 0.0, 0.0])
        left = [1.0, float(np.nextafter(1.0, 2.0)), 0.0]
        later = learner._cost(left, [2.0, 0.0, 0.0])
        assert later != first
        assert not _improves(later, first)

    @pytest.mark.parametrize(
        "kind, label, left, right",
        [
            ("regression", "units", [0.0, 0.0, 0.0], [2.0, 4.0, 10.0]),
            ("classification", "city", [0.0, 0.0, 0.0], [1.0, 1.0, 0.0]),
        ],
    )
    def test_a_side_below_min_samples_leaf_is_no_candidate(
        self, toy_db, kind, label, left, right
    ):
        learner = CARTLearner(LMFAO(toy_db), [], [], label, kind)
        assert learner._cost(left, right) is None
        assert learner._cost(right, left) is None
        assert learner._cost(right, right) is not None

    @staticmethod
    def both_learners(y, kind="regression"):
        """Depth-1 trees over rows ``c = 0, 0, 0, 1, 1, 1`` with label
        ``y``, from brute_force_cart and from CARTLearner."""
        flat = Relation.from_dict(
            "Flat", {"c": np.array([0, 0, 0, 1, 1, 1]), "y": np.array(y)}
        )
        database = Database([flat], name="ties")
        params = dict(max_depth=1, min_samples_split=2)
        brute = brute_force_cart(
            database, [], ["c"], "y", kind, flat=flat, thresholds={},
            **params,
        )
        learned = CARTLearner(LMFAO(database), [], ["c"], "y", kind, **params)
        return brute, learned.fit()

    def test_both_learners_keep_the_first_of_one_partition(self):
        # c == 0 and c == 1 are one partition of these rows; summed in
        # this order, c == 1 costs one ulp less
        for tree in self.both_learners([0.1, 3.7, 0.8, 6.5, 2.7, 7.0]):
            assert str(tree.root.condition) == "c == 0"

    def test_both_classifiers_keep_the_first_of_one_partition(self):
        trees = self.both_learners([0, 1, 0, 1, 1, 1], "classification")
        for tree in trees:
            assert str(tree.root.condition) == "c == 0"

    def test_both_learners_keep_a_leaf_that_rounding_would_split(self):
        # both groups have mean 4.4, so splitting saves nothing; summed,
        # the split costs a few ulps less than the node's impurity
        for tree in self.both_learners([3.6, 4.2, 5.4, 4.1, 4.7, 4.4]):
            assert tree.root.is_leaf

    def test_both_classifiers_keep_a_leaf_no_split_improves(self):
        # both groups hold one 0 and two 1s: a split saves nothing
        trees = self.both_learners([0, 1, 1, 0, 1, 1], "classification")
        for tree in trees:
            assert tree.root.is_leaf

    @pytest.mark.parametrize(
        "kind, label", [("regression", "units"), ("classification", "city")]
    )
    def test_a_split_within_rounding_of_the_impurity_is_not_taken(
        self, toy_db, monkeypatch, kind, label
    ):
        learner = CARTLearner(
            LMFAO(toy_db), ["price"], [], label, kind,
            max_depth=1, min_samples_split=1, n_buckets=4,
        )

        def barely_cheaper(conditions, totals):
            impurity = learner._make_leaf(totals).impurity
            assert impurity > 0
            return SplitCandidate(
                impurity * (1 - 1e-12), Condition("price", "<=", 0.0),
                totals, totals,
            )

        monkeypatch.setattr(learner, "_best_split", barely_cheaper)
        assert learner.fit().root.is_leaf


class TestLearnerValidation:
    def test_unknown_kind_rejected(self, toy_db):
        engine = LMFAO(toy_db)
        with pytest.raises(ValueError, match="kind"):
            CARTLearner(engine, ["price"], [], "units", "boosting")

    def test_min_samples_split_stops_growth(self, toy_db):
        engine = LMFAO(toy_db)
        learner = CARTLearner(
            engine, ["price"], ["city"], "units", "regression",
            max_depth=5, min_samples_split=10_000, n_buckets=4,
        )
        tree = learner.fit()
        assert tree.node_count() == 1  # root only: not enough samples

    def test_max_depth_zero_gives_single_leaf(self, toy_db):
        engine = LMFAO(toy_db)
        learner = CARTLearner(
            engine, ["price"], [], "units", "regression",
            max_depth=0, min_samples_split=1, n_buckets=4,
        )
        tree = learner.fit()
        assert tree.root.is_leaf
        flat = materialize_join(toy_db)
        assert np.isclose(tree.root.prediction, flat.column("units").mean())
