"""CART decision trees over aggregate batches (paper §2, eqs. (8)-(10)).

Each tree node is learned from one LMFAO batch: the node's dataset
fragment is never materialized — it is encoded as a product of Kronecker
deltas over the ancestor conditions (the *dynamic functions* of §1.2).
Because ancestor thresholds are dynamic, re-running a node batch at the
same depth hits the engine's plan cache.  A node's totals (count and
label sums, or class counts) are the ones its parent's split search
already summed for the winning split, so only the root runs a totals
batch: a tree costs one batch plus one per node whose split was searched.

:meth:`CARTLearner.node_batch` is the paper's RT batch: one
``Σ δ(x ≤ t)·{1, y, y²}`` aggregate per bucket threshold.  The learner
runs its histogram form, :meth:`CARTLearner.split_batch`: one query per
feature, grouped by it, whose prefix sums over the sorted feature values
give every threshold's left sums.  A node thus costs three aggregates
per feature (one for classification) whatever the number of buckets.

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
        """The dynamic delta selecting the rows the condition rejects,
        NaN values included (``x <= t`` and ``x == v`` are false there)."""
        if self.op == "<=":
            return _NotAtMost(self.attr, self.value)
        return Delta(self.attr, "!=", self.value, dynamic=True)

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
        # the paper's buckets, over the column of the relation storing
        # the attribute
        self.thresholds = {
            attr: bucket_thresholds(self._column_of(attr), n_buckets)
            for attr in self.continuous
        }
        self.batches_run = 0

    # -- preparation ------------------------------------------------------------

    def _column_of(self, attr: str) -> np.ndarray:
        for relation in self.engine.database:
            if relation.has_column(attr):
                return relation.column(attr)
        raise KeyError(f"attribute {attr!r} not in database")

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

    def split_batch(self, conditions: Sequence[Condition]) -> QueryBatch:
        """The split-search batch the learner runs for one node.

        One query ``split:<attr>`` per feature, continuous and
        categorical alike, grouped by the feature and holding the
        fragment's ``{α, α·y, α·y²}`` (grouped by feature and label and
        holding ``{α}`` for classification), where ``α`` is the product
        of the ancestor conditions' deltas.  It carries what
        :meth:`node_batch` does: a threshold's left sums are the prefix
        sum of the groups at or below it.
        """
        alpha = self._alpha(conditions)
        if self.kind == "regression":
            group_by = []
            factors = {
                "n": [],
                "sy": [Identity(self.label)],
                "syy": [Power(self.label, 2)],
            }
        else:
            group_by = [self.label]
            factors = {"n": []}
        return QueryBatch(
            [
                Query(
                    f"split:{attr}",
                    [attr] + group_by,
                    [
                        Aggregate([Product(alpha + extra)], name=name)
                        for name, extra in factors.items()
                    ],
                )
                for attr in dict.fromkeys(self.continuous + self.categorical)
            ]
        )

    def node_batch(self, conditions: Sequence[Condition]) -> QueryBatch:
        """The paper's split-search batch for one node: one scalar
        ``Σ δ(x ≤ t)·{1, y, y²}`` per bucket threshold (``Σ δ(x ≤ t)``
        grouped by the label for classification), and per categorical
        feature those sums grouped by it.  The Table 2/3 "RT" workload is
        this batch at the root; the learner runs :meth:`split_batch`,
        its histogram form."""
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
        batch = self.split_batch(conditions)
        if not len(batch):
            return None
        results = self.engine.run(batch)
        self.batches_run += 1
        if self.kind == "regression":
            return self._best_regression_split(results, totals)
        return self._best_classification_split(results, totals)

    def _threshold_sums(self, results, attr: str) -> Tuple[list, np.ndarray]:
        """Every threshold's left sums for ``attr``, read from its
        ``split:<attr>`` histogram in ``results``.

        Returns the names of the sums (``n, sy, syy``, or the classes for
        classification) and one row of them per threshold of ``attr``.
        """
        rel = results[f"split:{attr}"]
        if self.kind == "regression":
            names = ["n", "sy", "syy"]
            keys = rel.column(attr)
            sums = np.stack([rel.column(name) for name in names], axis=1)
        else:
            keys, key_row = np.unique(rel.column(attr), return_inverse=True)
            classes, class_col = np.unique(
                rel.column(self.label), return_inverse=True
            )
            sums = np.zeros((len(keys), len(classes)))
            np.add.at(sums, (key_row, class_col), rel.column("n"))
            names = classes.tolist()
        return names, _left_sums(keys, sums, self.thresholds[attr])

    def _best_regression_split(
        self, results, totals
    ) -> Optional[SplitCandidate]:
        n_tot, sy_tot, syy_tot = totals
        best: Optional[SplitCandidate] = None
        for attr, thresholds in self.thresholds.items():
            _, lefts = self._threshold_sums(results, attr)
            for threshold, left in zip(thresholds.tolist(), lefts.tolist()):
                best = self._consider_regression(
                    best,
                    Condition(attr, "<=", threshold),
                    tuple(left),
                    (n_tot - left[0], sy_tot - left[1], syy_tot - left[2]),
                )
        for attr in self.categorical:
            rel = results[f"split:{attr}"]
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
        for attr, thresholds in self.thresholds.items():
            classes, lefts = self._threshold_sums(results, attr)
            for threshold, row in zip(thresholds.tolist(), lefts.tolist()):
                left = dict(zip(classes, row))
                right = {
                    k: totals.get(k, 0.0) - left.get(k, 0.0) for k in totals
                }
                best = self._consider_classification(
                    best,
                    Condition(attr, "<=", threshold),
                    left,
                    right,
                    n_tot,
                )
        for attr in self.categorical:
            rel = results[f"split:{attr}"]
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


class _NotAtMost(Delta):
    """``1 - δ(x <= t)``, shown as ``x > t``: it differs from ``δ(x > t)``
    in keeping the rows whose ``x`` is NaN, which the right branch of a
    ``<=`` split holds."""

    def __init__(self, attr: str, value: float):
        super().__init__(attr, ">", value, dynamic=True)

    def evaluate(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        return (~(columns[self.attr] <= self.value)).astype(np.float64)

    def signature(self) -> tuple:
        return ("delta", self.attr, "not <=", self.value)


class _ComplementCondition(Condition):
    """The negated branch of a split (``> t`` / ``!= v``)."""

    def delta(self) -> Delta:
        return self.complement_delta()

    def test(self, column: np.ndarray) -> np.ndarray:
        return ~super().test(column)

    def __str__(self) -> str:
        complement = {"<=": ">", "==": "!="}[self.op]
        return f"{self.attr} {complement} {self.value:g}"


def bucket_thresholds(column: np.ndarray, n_buckets: int) -> np.ndarray:
    """The distinct inner ``n_buckets``-quantiles of a column's finite
    values: the paper's bucket boundaries of a continuous attribute.

    NaN and infinite values are left out, as a NaN quantile would be the
    attribute's only threshold and no row is at or below it.
    """
    values = np.asarray(column, dtype=np.float64)
    values = values[np.isfinite(values)]
    if not len(values):
        return values
    return np.unique(
        np.quantile(values, np.linspace(0, 1, n_buckets + 1)[1:-1])
    )


def _left_sums(
    keys: np.ndarray, sums: np.ndarray, thresholds: np.ndarray
) -> np.ndarray:
    """Per threshold ``t``, the column sums of the rows of ``sums`` whose
    group key is ``<= t``: a prefix sum over the sorted keys, read with
    one ``searchsorted``.  NaN keys sort last, above every threshold."""
    order = np.argsort(keys, kind="stable")
    prefix = np.zeros((len(keys) + 1, sums.shape[1]))
    np.cumsum(sums[order], axis=0, out=prefix[1:])
    return prefix[np.searchsorted(keys[order], thresholds, side="right")]


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
