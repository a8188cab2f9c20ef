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
    _variance,
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
        # searched their splits with one plan, made while fitting
        condition = lmfao_tree.root.condition
        complement = _ComplementCondition(
            condition.attr, condition.op, condition.value
        )
        left = engine.plan(learner.node_batch([condition]))
        right = engine.plan(learner.node_batch([complement]))
        assert left is right
        assert len(engine._plan_cache) == planned
        # one totals plan; fewer split plans than split batches
        assert planned - 1 < learner.batches_run - 1


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

    @staticmethod
    def both_learners(y):
        """Depth-1 trees over rows ``c = 0, 0, 0, 1, 1, 1`` with label
        ``y``, from brute_force_cart and from CARTLearner."""
        flat = Relation.from_dict(
            "Flat", {"c": np.array([0, 0, 0, 1, 1, 1]), "y": np.array(y)}
        )
        database = Database([flat], name="ties")
        params = dict(max_depth=1, min_samples_split=2)
        brute = brute_force_cart(
            database, [], ["c"], "y", flat=flat, thresholds={}, **params
        )
        learned = CARTLearner(LMFAO(database), [], ["c"], "y", **params)
        return brute, learned.fit()

    def test_both_learners_keep_the_first_of_one_partition(self):
        # c == 0 and c == 1 are one partition of these rows; summed in
        # this order, c == 1 costs one ulp less
        for tree in self.both_learners([0.1, 3.7, 0.8, 6.5, 2.7, 7.0]):
            assert str(tree.root.condition) == "c == 0"

    def test_both_learners_keep_a_leaf_that_rounding_would_split(self):
        # both groups have mean 4.4, so splitting saves nothing; summed,
        # the split costs a few ulps less than the node's impurity
        for tree in self.both_learners([3.6, 4.2, 5.4, 4.1, 4.7, 4.4]):
            assert tree.root.is_leaf

    def test_a_split_within_rounding_of_the_impurity_is_not_taken(
        self, toy_db, monkeypatch
    ):
        learner = CARTLearner(
            LMFAO(toy_db), ["price"], [], "units",
            max_depth=1, min_samples_split=1, n_buckets=4,
        )

        def barely_cheaper(conditions, totals):
            impurity = learner._make_leaf(totals).impurity
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
