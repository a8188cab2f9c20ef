"""Materialize-then-learn ML baselines (TensorFlow / MADlib / scikit proxies).

The paper's "structure-agnostic two-step solutions" first materialize the
training dataset (the full join), then hand it to an ML library.  These
baselines do exactly that on our substrate:

* :func:`ols_closed_form`   — MADlib proxy: ordinary least squares over
  the one-hot encoded materialized join;
* :func:`gradient_descent_epochs` — TensorFlow proxy: full-batch gradient
  passes over the materialized join (cost per epoch scales with the join,
  not with the covar matrix);
* :func:`brute_force_cart`  — per-node split search by scanning the
  materialized join (what MADlib's decision trees do over the view).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.database import Database, materialize_join
from ..data.relation import Relation
from ..ml.covar import FeatureIndex
from ..ml.linreg import LinearRegressionModel, design_matrix
from ..ml.trees import (
    Condition,
    DecisionTree,
    TreeNode,
    _gini,
    _improves,
    _variance,
)


def build_feature_index(
    flat: Relation,
    continuous: Sequence[str],
    categorical: Sequence[str],
    label: str,
) -> FeatureIndex:
    """Feature index with category domains taken from the flat join."""
    category_values = {
        c: np.sort(np.unique(flat.column(c))) for c in categorical
    }
    return FeatureIndex(
        continuous=tuple(continuous),
        categorical=tuple(categorical),
        label=label,
        category_values=category_values,
    )


def ols_closed_form(
    database: Database,
    continuous: Sequence[str],
    categorical: Sequence[str],
    label: str,
    l2: float = 1e-3,
    flat: Optional[Relation] = None,
) -> LinearRegressionModel:
    """MADlib proxy: closed-form ridge over the materialized join."""
    if flat is None:
        flat = materialize_join(database)
    index = build_feature_index(flat, continuous, categorical, label)
    features = design_matrix(flat, index)
    target = np.asarray(flat.column(label), dtype=np.float64)
    n = len(target)
    gram = features.T @ features / n + l2 * np.eye(features.shape[1])
    moment = features.T @ target / n
    theta = np.linalg.solve(gram, moment)
    return LinearRegressionModel(theta=theta, index=index, l2=l2, iterations=0)


def ols_row_engine(
    database: Database,
    continuous: Sequence[str],
    categorical: Sequence[str],
    label: str,
    l2: float = 1e-3,
    flat: Optional[Relation] = None,
) -> LinearRegressionModel:
    """MADlib-over-PostgreSQL proxy: per-tuple UDAF accumulation.

    MADlib's ``linregr_train`` runs as a user-defined aggregate inside
    PostgreSQL's tuple-at-a-time executor over the (non-materialized)
    training view: for every tuple it executes a transition function that
    accumulates the outer product ``z z^T``.  This baseline reproduces
    that architecture — one transition call per tuple — which is the
    reason the paper measures MADlib orders of magnitude behind LMFAO's
    shared, vectorized aggregate batches.
    """
    if flat is None:
        flat = materialize_join(database)
    index = build_feature_index(flat, continuous, categorical, label)
    features = design_matrix(flat, index)
    target = np.asarray(flat.column(label), dtype=np.float64)
    n = len(target)
    p = features.shape[1]
    gram = np.zeros((p, p))
    moment = np.zeros(p)
    for row in range(n):  # the tuple-at-a-time executor
        z = features[row]
        gram += np.outer(z, z)
        moment += z * target[row]
    gram = gram / n + l2 * np.eye(p)
    theta = np.linalg.solve(gram, moment / n)
    return LinearRegressionModel(theta=theta, index=index, l2=l2, iterations=0)


def gradient_descent_epochs(
    database: Database,
    continuous: Sequence[str],
    categorical: Sequence[str],
    label: str,
    epochs: int = 1,
    learning_rate: float = 1.0,
    l2: float = 1e-3,
    flat: Optional[Relation] = None,
    batch_size: Optional[int] = None,
) -> LinearRegressionModel:
    """TensorFlow proxy: each epoch is a full pass over the flat join.

    Deliberately data-bound: the gradient is recomputed from the feature
    matrix every epoch (the "gradient vector" formulation of §2), unlike
    LMFAO's covar-matrix reuse.  With ``batch_size`` set, each epoch runs
    through TF's iterator regime — the paper notes it must "repeatedly
    load, parse and cast the batches of tuples", modelled here by a copy
    + cast per mini-batch.  The step is scaled by a Lipschitz bound so
    unnormalized features do not diverge.
    """
    if flat is None:
        flat = materialize_join(database)
    index = build_feature_index(flat, continuous, categorical, label)
    features = design_matrix(flat, index)
    target = np.asarray(flat.column(label), dtype=np.float64)
    n = len(target)
    theta = np.zeros(features.shape[1])
    lipschitz_bound = float(np.sum(features * features)) / n + l2
    step = learning_rate / max(lipschitz_bound, 1e-12)
    for _ in range(epochs):
        if batch_size is None:
            residual = features @ theta - target
            gradient = features.T @ residual / n + l2 * theta
            theta -= step * gradient
            continue
        for start in range(0, n, batch_size):
            # the iterator interface: load, parse, cast the batch
            batch = features[start:start + batch_size].astype(
                np.float32
            ).astype(np.float64)
            batch_target = target[start:start + batch_size].copy()
            residual = batch @ theta - batch_target
            gradient = batch.T @ residual / len(batch_target) + l2 * theta
            theta -= step * gradient
    return LinearRegressionModel(
        theta=theta, index=index, l2=l2, iterations=epochs
    )


# ---------------------------------------------------------------------------
# Brute-force CART over the materialized join
# ---------------------------------------------------------------------------


def brute_force_cart(
    database: Database,
    continuous: Sequence[str],
    categorical: Sequence[str],
    label: str,
    kind: str = "regression",
    *,
    max_depth: int = 4,
    min_samples_split: int = 1_000,
    min_samples_leaf: int = 1,
    n_buckets: int = 20,
    flat: Optional[Relation] = None,
    thresholds: Optional[Dict[str, np.ndarray]] = None,
) -> DecisionTree:
    """Learn a CART tree by scanning the materialized join per node.

    Functionally equivalent to :class:`repro.ml.trees.CARTLearner` (used
    as its correctness oracle) but architecturally the two-step design:
    the training dataset must fit in memory, and every node pays a pass
    over it.
    """
    if flat is None:
        flat = materialize_join(database)
    continuous = [a for a in continuous if a != label]
    categorical = [a for a in categorical if a != label]
    target = np.asarray(flat.column(label), dtype=np.float64)
    if thresholds is None:
        # same bucketization scheme as CARTLearner but over the join (the
        # paper feeds both systems the same buckets; pass ``thresholds``
        # for an exact head-to-head)
        thresholds = {
            attr: np.unique(
                np.quantile(
                    flat.column(attr), np.linspace(0, 1, n_buckets + 1)[1:-1]
                )
            )
            for attr in continuous
        }

    def node_stats(mask: np.ndarray):
        y = target[mask]
        if kind == "regression":
            n = float(len(y))
            return n, float(y.sum()), float((y * y).sum())
        values, counts = np.unique(y, return_counts=True)
        return dict(zip(values.tolist(), counts.astype(float).tolist()))

    def leaf(stats) -> TreeNode:
        if kind == "regression":
            n, sy, syy = stats
            return TreeNode(
                prediction=sy / n if n else 0.0,
                n_samples=n,
                impurity=_variance(n, sy, syy),
            )
        total = sum(stats.values())
        prediction = max(stats, key=stats.get) if stats else 0.0
        return TreeNode(
            prediction=float(prediction),
            n_samples=total,
            impurity=total * _gini(stats) if total else 0.0,
        )

    def split_cost(left_stats, node_totals) -> Optional[float]:
        # right side derived by subtraction, mirroring CARTLearner's
        # arithmetic so the two implementations agree bit-for-bit on ties
        if kind == "regression":
            n_l, sy_l, syy_l = left_stats
            n_t, sy_t, syy_t = node_totals
            if n_l < min_samples_leaf or n_t - n_l < min_samples_leaf:
                return None
            return _variance(n_l, sy_l, syy_l) + _variance(
                n_t - n_l, sy_t - sy_l, syy_t - syy_l
            )
        right = {
            k: node_totals.get(k, 0.0) - left_stats.get(k, 0.0)
            for k in node_totals
        }
        n_l = sum(left_stats.values())
        n_r = sum(right.values())
        if n_l < min_samples_leaf or n_r < min_samples_leaf:
            return None
        return n_l * _gini(left_stats) + n_r * _gini(right)

    def best_split(mask: np.ndarray) -> Optional[Tuple[float, Condition]]:
        best: Optional[Tuple[float, Condition]] = None
        node_totals = node_stats(mask)
        for attr, values in thresholds.items():
            column = flat.column(attr)
            for threshold in values:
                left = mask & (column <= threshold)
                cost = split_cost(node_stats(left), node_totals)
                if cost is not None and _improves(
                    cost, None if best is None else best[0]
                ):
                    best = (cost, Condition(attr, "<=", float(threshold)))
        for attr in categorical:
            column = flat.column(attr)
            for value in np.unique(column[mask]):
                left = mask & (column == value)
                cost = split_cost(node_stats(left), node_totals)
                if cost is not None and _improves(
                    cost, None if best is None else best[0]
                ):
                    best = (cost, Condition(attr, "==", float(value)))
        return best

    def grow(mask: np.ndarray, depth: int) -> TreeNode:
        node = leaf(node_stats(mask))
        if depth >= max_depth or node.n_samples < min_samples_split:
            return node
        best = best_split(mask)
        if best is None or best[0] >= node.impurity:
            return node
        cost, condition = best
        node.condition = condition
        column = flat.column(condition.attr)
        side = condition.test(column)
        node.left = grow(mask & side, depth + 1)
        node.right = grow(mask & ~side, depth + 1)
        return node

    root = grow(np.ones(flat.n_rows, dtype=bool), 0)
    return DecisionTree(root=root, kind=kind, label=label)
