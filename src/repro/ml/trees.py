"""CART decision trees over aggregate batches (paper §2, eqs. (8)-(10)).

One learner grows both kinds of tree.  A fragment of the join is
summarised by one vector of sums: ``(n, Σy, Σy²)`` for a regression tree,
whose cost is the variance, and for a classification tree the count per
class of the label, in ascending order, whose cost is the Gini index.
The kinds differ only in the aggregates of that vector (``{1, y, y²}``,
or ``1`` grouped by the label) and in its row count, impurity and
prediction; the batches, the split search and the growth are shared.

Each tree node is learned from one LMFAO batch: the node's dataset
fragment is never materialized — it is encoded as a product of Kronecker
deltas over the ancestor conditions (the *dynamic functions* of §1.2).
Because ancestor thresholds are dynamic, re-running a node batch at the
same depth hits the engine's plan cache.  A node's vector is the one its
parent's split search already summed for the winning split, so only the
root runs a totals batch: a tree costs one batch plus one per node whose
split was searched.

:meth:`CARTLearner.node_batch` is the paper's RT batch: one
``Σ δ(x ≤ t)·{1, y, y²}`` aggregate per bucket threshold.  The learner
runs its histogram form, :meth:`CARTLearner.split_batch`: one query per
feature, grouped by it, whose prefix sums over the sorted feature values
give every threshold's left vector.  A node thus costs three aggregates
per feature (one for classification) whatever the number of buckets.

Trees follow the paper's experimental setup: bucketized continuous
attributes, maximum depth 4 (31 nodes), and a minimum number of instances
per split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import List, Mapping, Optional, Sequence, Tuple

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
    left_stats: list
    right_stats: list


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
        self.engine = engine
        self.continuous = tuple(a for a in continuous if a != label)
        self.categorical = tuple(a for a in categorical if a != label)
        self.label = label
        self.kind = kind
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.n_buckets = n_buckets
        # what the kinds differ in: the sums a fragment's vector holds
        # (the group-by and factors of its aggregates), how a result's
        # rows make vectors, and a vector's count, impurity and prediction
        if kind == "regression":
            self._group_by: List[str] = []
            self._factors = {
                "n": [],
                "sy": [Identity(label)],
                "syy": [Power(label, 2)],
            }
            self._vectors = partial(_stacked_sums, tuple(self._factors))
            self._count = itemgetter(0)
            self._impurity = _variance
            self._prediction = _mean
        elif kind == "classification":
            classes = np.unique(self._column_of(label))
            self._group_by = [label]
            self._factors = {"n": []}
            self._vectors = partial(_class_counts, label, classes)
            self._count = sum
            self._impurity = _gini_cost
            self._prediction = partial(_majority, classes.tolist())
        else:
            raise ValueError(f"unknown tree kind {kind!r}")
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
        root = self._grow([], 0, self._root_sums())
        return DecisionTree(root=root, kind=self.kind, label=self.label)

    def _grow(self, conditions: List[Condition], depth: int, sums) -> TreeNode:
        """Grow the subtree of the fragment ``conditions`` select, whose
        vector of sums is ``sums``: a child's comes from its parent's
        split search, so only the root runs a totals batch."""
        node = self._make_leaf(sums)
        if depth >= self.max_depth or node.n_samples < self.min_samples_split:
            return node
        best = self._best_split(conditions, sums)
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

    def _make_leaf(self, sums: List[float]) -> TreeNode:
        return TreeNode(
            prediction=self._prediction(*sums),
            n_samples=self._count(sums),
            impurity=self._impurity(*sums),
        )

    # -- node batches ---------------------------------------------------------------

    def _alpha(self, conditions: Sequence[Condition]) -> List[Delta]:
        return [c.delta() for c in conditions]

    def _aggregates(self, factors: list, suffix: str = "") -> List[Aggregate]:
        """The aggregates of the vector of sums over the rows ``factors``
        select, named ``<sum><suffix>``."""
        return [
            Aggregate([Product(factors + extra)], name=name + suffix)
            for name, extra in self._factors.items()
        ]

    def _root_sums(self) -> List[float]:
        """The vector of sums of the whole join."""
        query = Query("node:totals", self._group_by, self._aggregates([]))
        rel = self.engine.run(QueryBatch([query]))["node:totals"]
        self.batches_run += 1
        _, sums = self._vectors(rel, np.zeros(rel.n_rows))
        return sums.sum(axis=0).tolist()

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
        return QueryBatch(
            [
                Query(
                    f"split:{attr}",
                    [attr] + self._group_by,
                    self._aggregates(alpha),
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
        scalars: List[Aggregate] = []
        for attr, values in self.thresholds.items():
            for i, threshold in enumerate(values):
                delta = Delta(attr, "<=", float(threshold))
                scalars += self._aggregates(alpha + [delta], f":{attr}:{i}")
        queries = []
        if scalars:
            queries.append(Query("split:cont", self._group_by, scalars))
        for attr in self.categorical:
            queries.append(
                Query(
                    f"split:cat:{attr}",
                    [attr] + self._group_by,
                    self._aggregates(alpha),
                )
            )
        return QueryBatch(queries)

    # -- split search ---------------------------------------------------------------

    def _best_split(
        self, conditions: List[Condition], totals: List[float]
    ) -> Optional[SplitCandidate]:
        batch = self.split_batch(conditions)
        if not len(batch):
            return None
        results = self.engine.run(batch)
        self.batches_run += 1
        best: Optional[SplitCandidate] = None
        totals = np.asarray(totals)
        for attr, op, values, lefts in self._candidates(results):
            # a right side is its node's vector less its left one, the
            # arithmetic brute_force_cart does
            rights = (totals - lefts).tolist()
            for value, left, right in zip(values, lefts.tolist(), rights):
                cost = self._cost(left, right)
                if cost is not None and _improves(
                    cost, None if best is None else best.cost
                ):
                    condition = Condition(attr, op, value)
                    best = SplitCandidate(cost, condition, left, right)
        return best

    def _histogram(self, results, attr: str) -> Tuple[np.ndarray, np.ndarray]:
        """The distinct values of ``attr`` in ascending order and the
        vector of sums of each, read from its ``split:<attr>`` result."""
        rel = results[f"split:{attr}"]
        return self._vectors(rel, rel.column(attr))

    def _candidates(self, results):
        """Per feature, ``(attr, op, split values, left sums of each)``:
        every bucket threshold of a continuous feature, then every value
        of a categorical one in ascending order, the order
        brute_force_cart tries them in."""
        for attr, thresholds in self.thresholds.items():
            keys, sums = self._histogram(results, attr)
            lefts = _left_sums(keys, sums, thresholds)
            yield attr, "<=", thresholds.tolist(), lefts
        for attr in self.categorical:
            keys, sums = self._histogram(results, attr)
            values = np.asarray(keys, dtype=np.float64)
            yield attr, "==", values.tolist(), sums

    def _cost(self, left: List[float], right: List[float]) -> Optional[float]:
        """A split's cost from its sides' vectors, or None when a side
        holds fewer than ``min_samples_leaf`` rows."""
        if (
            self._count(left) < self.min_samples_leaf
            or self._count(right) < self.min_samples_leaf
        ):
            return None
        return self._impurity(*left) + self._impurity(*right)


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


def _stacked_sums(names: Tuple[str, ...], rel: Relation, keys: np.ndarray):
    """Regression's vectors, the aggregates ``names`` of each row of
    ``rel``: a result grouped by nothing but its key has one row per
    key, in ascending order."""
    return keys, np.array([rel.column(name) for name in names]).T


def _class_counts(label: str, classes: np.ndarray, rel: Relation, keys):
    """Classification's vectors, one count per class of ``classes`` for
    each distinct key: ``rel`` holds one row per key and class present."""
    keys, row = np.unique(keys, return_inverse=True)
    counts = np.zeros((len(keys), len(classes)))
    column = np.searchsorted(classes, rel.column(label))
    np.add.at(counts, (row, column), rel.column("n"))
    return keys, counts


def _mean(n: float, sy: float, syy: float) -> float:
    return sy / n if n > 0 else 0.0


def _gini_cost(*counts: float) -> float:
    """A fragment's Gini cost: its size times its Gini index."""
    total = sum(counts)
    return total * _gini(dict(enumerate(counts))) if total > 0 else 0.0


def _majority(classes: list, *counts: float) -> float:
    """The most frequent class, the smallest of a tie (0 when empty)."""
    top = max(counts, default=0.0)
    return float(classes[counts.index(top)]) if top > 0 else 0.0


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
