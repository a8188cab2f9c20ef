"""CART trees: LMFAO-learned trees match brute-force CART exactly."""

import numpy as np
import pytest

from repro import LMFAO, Database, Relation, materialize_join
from repro.baselines import brute_force_cart
from repro.ml.trees import CARTLearner, Condition, _gini, _variance


def tree_structure(node):
    if node.is_leaf:
        return ("leaf", round(node.prediction, 6))
    return (
        str(node.condition),
        tree_structure(node.left),
        tree_structure(node.right),
    )


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

    def test_equality_condition(self):
        condition = Condition("c", "==", 2.0)
        assert condition.test(np.array([2, 3])).tolist() == [True, False]


class TestRegressionTree:
    @pytest.fixture(scope="class")
    def learned(self, request):
        ds = request.getfixturevalue("tiny_favorita")
        flat = materialize_join(ds.database)
        cont = ["txns", "price"]
        cat = ["stype", "promo"]
        params = dict(
            max_depth=3, min_samples_split=40, n_buckets=6,
        )
        engine = LMFAO(ds.database, ds.join_tree)
        learner = CARTLearner(
            engine, cont, cat, "units", "regression", **params
        )
        lmfao_tree = learner.fit()
        # same buckets for a true head-to-head (the paper feeds all
        # systems the same buckets)
        brute = brute_force_cart(
            ds.database, cont, cat, "units", "regression",
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
        target = flat.column("units")
        baseline_rmse = float(np.sqrt(np.mean((target - target.mean()) ** 2)))
        assert lmfao_tree.rmse(flat) < baseline_rmse

    def test_node_count_bounded(self, learned):
        lmfao_tree, *_ = learned
        assert lmfao_tree.node_count() <= 2 ** (3 + 1) - 1

    def test_plan_cache_reused_across_nodes(self, learned):
        *_, learner = learned
        # a plan is cached per ancestor-attribute pattern (values and
        # comparison operators are dynamic); sibling subtrees with the
        # same attribute path share plans, so plans < batches
        assert len(learner.engine._plan_cache) < learner.batches_run


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
        return lmfao_tree, brute, flat

    def test_identical_structure(self, learned):
        lmfao_tree, brute, _ = learned
        assert tree_structure(lmfao_tree.root) == tree_structure(brute.root)

    def test_identical_accuracy(self, learned):
        lmfao_tree, brute, flat = learned
        assert np.isclose(lmfao_tree.accuracy(flat), brute.accuracy(flat))

    def test_beats_majority_class(self, learned):
        lmfao_tree, _, flat = learned
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
        first = learner._consider_regression(
            None, Condition("c", "==", 0.0), (1.0, 0.0, 1.0), (1.0, 0.0, 0.0)
        )
        one_ulp_lower = float(np.nextafter(1.0, 0.0))
        assert one_ulp_lower < first.cost
        kept = learner._consider_regression(
            first,
            Condition("c", "==", 1.0),
            (1.0, 0.0, one_ulp_lower),
            (1.0, 0.0, 0.0),
        )
        assert kept is first

    def test_classification_keeps_the_earlier_of_rounding_apart(
        self, toy_db
    ):
        learner = CARTLearner(
            LMFAO(toy_db), [], [], "city", "classification"
        )
        first = learner._consider_classification(
            None, Condition("c", "==", 0.0), {0: 1.0, 1: 1.0}, {0: 2.0}, 4.0
        )
        left = {0: 1.0, 1: float(np.nextafter(1.0, 2.0))}
        kept = learner._consider_classification(
            first, Condition("c", "==", 1.0), left, {0: 2.0}, 4.0
        )
        assert kept is first

    def test_both_learners_keep_the_first_of_one_partition(self):
        # c == 0 and c == 1 are one partition of these rows; summed in
        # this order, c == 1 costs one ulp less
        flat = Relation.from_dict(
            "Flat",
            {
                "c": np.array([0, 0, 0, 1, 1, 1]),
                "y": np.array([0.1, 3.7, 0.8, 6.5, 2.7, 7.0]),
            },
        )
        database = Database([flat], name="ties")
        params = dict(max_depth=1, min_samples_split=2)
        brute = brute_force_cart(
            database, [], ["c"], "y", flat=flat, thresholds={}, **params
        )
        learned = CARTLearner(LMFAO(database), [], ["c"], "y", **params)
        assert str(brute.root.condition) == "c == 0"
        assert str(learned.fit().root.condition) == "c == 0"


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
