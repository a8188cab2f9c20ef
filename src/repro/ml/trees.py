"""CART decision trees over aggregate batches (paper §2, eqs. (8)-(10)).

Each tree node is learned from one LMFAO batch: the node's dataset
fragment is never materialized — it is encoded as a product of Kronecker
deltas over the ancestor conditions (the *dynamic functions* of §1.2).
Because ancestor thresholds are dynamic, re-running a node batch at the
same depth hits the engine's plan cache.  A node's totals (count and
label sums, or class counts) are the ones its parent's split search
already summed for the winning split, so only the root runs a totals
batch: a tree costs one batch plus one per node whose split was searched.

Regression trees use the variance cost, classification trees the Gini
index, with the paper's experimental setup: bucketized continuous
attributes, maximum depth 4 (31 nodes), and a minimum number of instances
per split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..data.database import Database
from ..data.relation import Relation
from ..engine.engine import LMFAO
from ..query.aggregates import Aggregate, Product
from ..query.functions import Delta, Identity, Power
from ..query.query import Query, QueryBatch


@dataclass(frozen=True)
class Condition:
    """A split condition ``attr op value`` (op is ``<=`` or ``==``)."""

    attr: str
    op: str
    value: float

    def delta(self) -> Delta:
        """The dynamic Kronecker delta selecting the satisfying fragment."""
        return Delta(self.attr, self.op, self.value, dynamic=True)

    def complement_delta(self) -> Delta:
        complement = {"<=": ">", "==": "!="}[self.op]
        return Delta(self.attr, complement, self.value, dynamic=True)

    def test(self, column: np.ndarray) -> np.ndarray:
        if self.op == "<=":
            return column <= self.value
        return column == self.value

    def __str__(self) -> str:
        return f"{self.attr} {self.op} {self.value:g}"


@dataclass
class TreeNode:
    """One node of a learned tree."""

    prediction: float
    n_samples: float
    impurity: float
    condition: Optional[Condition] = None
    left: Optional["TreeNode"] = None  # condition true
    right: Optional["TreeNode"] = None  # condition false

    @property
    def is_leaf(self) -> bool:
        return self.condition is None

    def node_count(self) -> int:
        if self.is_leaf:
            return 1
        return 1 + self.left.node_count() + self.right.node_count()

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())


@dataclass
class DecisionTree:
    """A trained CART tree (regression or classification)."""

    root: TreeNode
    kind: str  # "regression" | "classification"
    label: str

    def predict(self, flat: Relation) -> np.ndarray:
        """Vectorized prediction over a materialized join."""
        out = np.empty(flat.n_rows, dtype=np.float64)
        index = np.arange(flat.n_rows)
        self._predict_into(self.root, flat, index, out)
        return out

    def _predict_into(self, node, flat, index, out) -> None:
        if node.is_leaf:
            out[index] = node.prediction
            return
        mask = node.condition.test(flat.column(node.condition.attr)[index])
        self._predict_into(node.left, flat, index[mask], out)
        self._predict_into(node.right, flat, index[~mask], out)

    def rmse(self, flat: Relation) -> float:
        prediction = self.predict(flat)
        target = np.asarray(flat.column(self.label), dtype=np.float64)
        return float(np.sqrt(np.mean((prediction - target) ** 2)))

    def accuracy(self, flat: Relation) -> float:
        prediction = self.predict(flat)
        target = np.asarray(flat.column(self.label), dtype=np.float64)
        return float(np.mean(prediction == target))

    def node_count(self) -> int:
        return self.root.node_count()


@dataclass
class SplitCandidate:
    cost: float
    condition: Condition
    left_stats: tuple
    right_stats: tuple


class CARTLearner:
    """Learns CART trees through LMFAO aggregate batches."""

    def __init__(
        self,
        engine: LMFAO,
        continuous: Sequence[str],
        categorical: Sequence[str],
        label: str,
        kind: str = "regression",
        *,
        max_depth: int = 4,
        min_samples_split: int = 1_000,
        min_samples_leaf: int = 1,
        n_buckets: int = 20,
        max_categories: int = 50,
    ):
        if kind not in ("regression", "classification"):
            raise ValueError(f"unknown tree kind {kind!r}")
        self.engine = engine
        self.continuous = tuple(a for a in continuous if a != label)
        self.categorical = tuple(a for a in categorical if a != label)
        self.label = label
        self.kind = kind
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.n_buckets = n_buckets
        self.max_categories = max_categories
        self.thresholds = self._bucketize()
        self.batches_run = 0

    # -- preparation ------------------------------------------------------------

    def _bucketize(self) -> Dict[str, np.ndarray]:
        """Per continuous attribute: bucket-boundary thresholds.

        The paper bucketizes continuous attributes into ``n_buckets``
        buckets; we take the inner quantiles of the attribute's column in
        the relation that stores it.
        """
        thresholds: Dict[str, np.ndarray] = {}
        for attr in self.continuous:
            column = self._column_of(attr)
            quantiles = np.linspace(0, 1, self.n_buckets + 1)[1:-1]
            values = np.unique(np.quantile(column, quantiles))
            thresholds[attr] = values
        return thresholds

    def _column_of(self, attr: str) -> np.ndarray:
        for relation in self.engine.database:
            if relation.has_column(attr):
                return relation.column(attr)
        raise KeyError(f"attribute {attr!r} not in database")

    def _categories_of(self, attr: str) -> np.ndarray:
        values = np.unique(self._column_of(attr))
        return values[: self.max_categories]

    # -- learning ----------------------------------------------------------------

    def fit(self) -> DecisionTree:
        root = self._grow([], 0, self._root_statistics())
        return DecisionTree(root=root, kind=self.kind, label=self.label)

    def _grow(self, conditions: List[Condition], depth: int, stats) -> TreeNode:
        """Grow the subtree of the fragment ``conditions`` select, whose
        totals are ``stats``: a child's come from its parent's split
        search, so only the root runs a totals batch."""
        node = self._make_leaf(stats)
        if depth >= self.max_depth or node.n_samples < self.min_samples_split:
            return node
        best = self._best_split(conditions, stats)
        # the tie rule of the split search: a child's impurity is summed
        # differently from brute_force_cart's, so a split that only
        # rounding makes cheaper must not be taken by one learner alone
        if best is None or not _improves(best.cost, node.impurity):
            return node
        node.condition = best.condition
        node.left = self._grow(
            conditions + [best.condition], depth + 1, best.left_stats
        )
        complement = _ComplementCondition(
            best.condition.attr, best.condition.op, best.condition.value
        )
        node.right = self._grow(
            conditions + [complement], depth + 1, best.right_stats
        )
        return node

    # -- node batches ---------------------------------------------------------------

    def _alpha(self, conditions: Sequence[Condition]) -> List[Delta]:
        return [c.delta() for c in conditions]

    def _root_statistics(self):
        """Totals of the whole join (count / sums or class counts)."""
        if self.kind == "regression":
            queries = [
                Query(
                    "node:totals",
                    [],
                    [
                        Aggregate.count(name="n"),
                        Aggregate.of(Identity(self.label), name="sy"),
                        Aggregate.of(Power(self.label, 2), name="syy"),
                    ],
                )
            ]
            results = self.engine.run(QueryBatch(queries))
            self.batches_run += 1
            rel = results["node:totals"]
            return (
                float(rel.column("n")[0]),
                float(rel.column("sy")[0]),
                float(rel.column("syy")[0]),
            )
        queries = [Query("node:classes", [self.label], [Aggregate.count(name="n")])]
        results = self.engine.run(QueryBatch(queries))
        self.batches_run += 1
        rel = results["node:classes"]
        return dict(
            zip(
                rel.column(self.label).tolist(),
                rel.column("n").tolist(),
            )
        )

    def _make_leaf(self, stats) -> TreeNode:
        if self.kind == "regression":
            n, sy, syy = stats
            mean = sy / n if n > 0 else 0.0
            impurity = _variance(n, sy, syy)
            return TreeNode(prediction=mean, n_samples=n, impurity=impurity)
        total = sum(stats.values())
        prediction = (
            max(stats, key=stats.get) if stats else 0.0
        )
        impurity = total * _gini(stats) if total > 0 else 0.0
        return TreeNode(
            prediction=float(prediction), n_samples=total, impurity=impurity
        )

    def node_batch(self, conditions: Sequence[Condition]) -> QueryBatch:
        """The full split-search batch for one node (the Table 2/3 "RT"
        workload is exactly this batch at the root)."""
        alpha = self._alpha(conditions)
        if self.kind == "regression":
            return self._regression_batch(alpha)
        return self._classification_batch(alpha)

    def _regression_batch(self, alpha: List[Delta]) -> QueryBatch:
        scalar_aggs: List[Aggregate] = []
        for attr, values in self.thresholds.items():
            for i, threshold in enumerate(values):
                delta = Delta(attr, "<=", float(threshold))
                scalar_aggs.append(
                    Aggregate([Product(alpha + [delta])], name=f"n:{attr}:{i}")
                )
                scalar_aggs.append(
                    Aggregate(
                        [Product(alpha + [delta, Identity(self.label)])],
                        name=f"sy:{attr}:{i}",
                    )
                )
                scalar_aggs.append(
                    Aggregate(
                        [Product(alpha + [delta, Power(self.label, 2)])],
                        name=f"syy:{attr}:{i}",
                    )
                )
        queries = []
        if scalar_aggs:
            queries.append(Query("split:cont", [], scalar_aggs))
        for attr in self.categorical:
            queries.append(
                Query(
                    f"split:cat:{attr}",
                    [attr],
                    [
                        Aggregate([Product(alpha)], name="n"),
                        Aggregate(
                            [Product(alpha + [Identity(self.label)])],
                            name="sy",
                        ),
                        Aggregate(
                            [Product(alpha + [Power(self.label, 2)])],
                            name="syy",
                        ),
                    ],
                )
            )
        return QueryBatch(queries)

    def _classification_batch(self, alpha: List[Delta]) -> QueryBatch:
        class_aggs: List[Aggregate] = []
        for attr, values in self.thresholds.items():
            for i, threshold in enumerate(values):
                delta = Delta(attr, "<=", float(threshold))
                class_aggs.append(
                    Aggregate(
                        [Product(alpha + [delta])], name=f"n:{attr}:{i}"
                    )
                )
        queries = []
        if class_aggs:
            queries.append(Query("split:cont", [self.label], class_aggs))
        for attr in self.categorical:
            queries.append(
                Query(
                    f"split:cat:{attr}",
                    [attr, self.label],
                    [Aggregate([Product(alpha)], name="n")],
                )
            )
        return QueryBatch(queries)

    # -- split search ---------------------------------------------------------------

    def _best_split(
        self, conditions: List[Condition], totals
    ) -> Optional[SplitCandidate]:
        batch = self.node_batch(conditions)
        if not len(batch):
            return None
        results = self.engine.run(batch)
        self.batches_run += 1
        if self.kind == "regression":
            return self._best_regression_split(results, totals)
        return self._best_classification_split(results, totals)

    def _best_regression_split(
        self, results, totals
    ) -> Optional[SplitCandidate]:
        n_tot, sy_tot, syy_tot = totals
        best: Optional[SplitCandidate] = None
        if "split:cont" in results:
            rel = results["split:cont"]
            for attr, values in self.thresholds.items():
                for i, threshold in enumerate(values):
                    left = (
                        float(rel.column(f"n:{attr}:{i}")[0]),
                        float(rel.column(f"sy:{attr}:{i}")[0]),
                        float(rel.column(f"syy:{attr}:{i}")[0]),
                    )
                    best = self._consider_regression(
                        best,
                        Condition(attr, "<=", float(threshold)),
                        left,
                        (n_tot - left[0], sy_tot - left[1], syy_tot - left[2]),
                    )
        for attr in self.categorical:
            rel = results.get(f"split:cat:{attr}")
            if rel is None:
                continue
            values = rel.column(attr)
            ns = rel.column("n")
            sys_ = rel.column("sy")
            syys = rel.column("syy")
            for value, n, sy, syy in zip(values, ns, sys_, syys):
                left = (float(n), float(sy), float(syy))
                best = self._consider_regression(
                    best,
                    Condition(attr, "==", float(value)),
                    left,
                    (n_tot - left[0], sy_tot - left[1], syy_tot - left[2]),
                )
        return best

    def _consider_regression(self, best, condition, left, right):
        n_l, sy_l, syy_l = left
        n_r, sy_r, syy_r = right
        if n_l < self.min_samples_leaf or n_r < self.min_samples_leaf:
            return best
        cost = _variance(n_l, sy_l, syy_l) + _variance(n_r, sy_r, syy_r)
        if _improves(cost, None if best is None else best.cost):
            return SplitCandidate(cost, condition, left, right)
        return best

    def _best_classification_split(
        self, results, totals: Dict
    ) -> Optional[SplitCandidate]:
        best: Optional[SplitCandidate] = None
        n_tot = sum(totals.values())
        if "split:cont" in results:
            rel = results["split:cont"]
            classes = rel.column(self.label).tolist()
            for attr, values in self.thresholds.items():
                for i, threshold in enumerate(values):
                    counts = rel.column(f"n:{attr}:{i}")
                    left = dict(zip(classes, counts.tolist()))
                    right = {
                        k: totals.get(k, 0.0) - left.get(k, 0.0)
                        for k in totals
                    }
                    best = self._consider_classification(
                        best,
                        Condition(attr, "<=", float(threshold)),
                        left,
                        right,
                        n_tot,
                    )
        for attr in self.categorical:
            rel = results.get(f"split:cat:{attr}")
            if rel is None:
                continue
            per_value: Dict[float, Dict] = {}
            for value, cls, n in zip(
                rel.column(attr).tolist(),
                rel.column(self.label).tolist(),
                rel.column("n").tolist(),
            ):
                per_value.setdefault(value, {})[cls] = n
            # ascending values, the order brute_force_cart tries them in
            # (rows come in the order of the sorted group-by names)
            for value in sorted(per_value):
                left = per_value[value]
                right = {
                    k: totals.get(k, 0.0) - left.get(k, 0.0) for k in totals
                }
                best = self._consider_classification(
                    best,
                    Condition(attr, "==", float(value)),
                    left,
                    right,
                    n_tot,
                )
        return best

    def _consider_classification(self, best, condition, left, right, n_tot):
        n_l = sum(left.values())
        n_r = sum(right.values())
        if n_l < self.min_samples_leaf or n_r < self.min_samples_leaf:
            return best
        cost = n_l * _gini(left) + n_r * _gini(right)
        if _improves(cost, None if best is None else best.cost):
            return SplitCandidate(cost, condition, left, right)
        return best


class _ComplementCondition(Condition):
    """The negated branch of a split (``> t`` / ``!= v``)."""

    def delta(self) -> Delta:
        return self.complement_delta()

    def test(self, column: np.ndarray) -> np.ndarray:
        return ~super().test(column)

    def __str__(self) -> str:
        complement = {"<=": ">", "==": "!="}[self.op]
        return f"{self.attr} {complement} {self.value:g}"


def _variance(n: float, sy: float, syy: float) -> float:
    """The paper's (unnormalized) variance cost: sum y^2 - (sum y)^2 / n."""
    if n <= 0:
        return 0.0
    return max(0.0, syy - (sy * sy) / n)


def _improves(cost: float, best: Optional[float]) -> bool:
    """Whether a split of this cost replaces the best one so far.

    Costs within a relative 1e-9 tie, and a tie keeps the earlier
    candidate: ``c == 0`` and ``c == 1`` on a two-valued ``c`` are one
    partition, whose two costs differ only by how the rows were summed.
    """
    return best is None or (
        cost < best and not math.isclose(cost, best, rel_tol=1e-9)
    )


def _gini(counts: Mapping) -> float:
    total = sum(counts.values())
    if total <= 0:
        return 0.0
    return 1.0 - sum((c / total) ** 2 for c in counts.values())


def train_tree(
    database: Database,
    continuous: Sequence[str],
    categorical: Sequence[str],
    label: str,
    kind: str = "regression",
    *,
    join_tree=None,
    engine: Optional[LMFAO] = None,
    **learner_kwargs,
) -> DecisionTree:
    """Convenience wrapper: build an engine and learn a tree."""
    if engine is None:
        engine = LMFAO(database, join_tree)
    learner = CARTLearner(
        engine, continuous, categorical, label, kind, **learner_kwargs
    )
    return learner.fit()
