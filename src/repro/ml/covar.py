"""Covariance-matrix batches (paper §2, eqs. (2)-(4)).

For ridge linear regression the gradient only needs the non-centred
covariance matrix ("covar matrix") over [intercept, features..., label].
Continuous pairs are scalar aggregates ``SUM(Xi*Xj)``; a categorical
attribute becomes a group-by attribute (one-hot encoding):

    Covar(Xi * Xj)        both continuous       -- eq. (2)
    Covar(Xi; Xj)         Xi categorical        -- eq. (3)
    Covar(Xi, Xj; 1)      both categorical      -- eq. (4)

``CovarBatch`` builds the query batch and assembles the dense matrix from
the engine's results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from ..data.relation import Relation
from ..query.aggregates import Aggregate, Product
from ..query.functions import Identity, Power
from ..query.query import Query, QueryBatch


@dataclass
class FeatureIndex:
    """Maps model parameters to dense-matrix positions.

    Layout: intercept, then continuous features in order, then one slot
    per (categorical feature, category value), then the label last.
    """

    continuous: Tuple[str, ...]
    categorical: Tuple[str, ...]
    label: str
    category_values: Dict[str, np.ndarray]

    def __post_init__(self):
        self.offsets: Dict[str, int] = {}
        position = 1  # 0 is the intercept
        for feature in self.continuous:
            self.offsets[feature] = position
            position += 1
        for feature in self.categorical:
            self.offsets[feature] = position
            position += len(self.category_values[feature])
        self.label_position = position
        self.size = position + 1

    def continuous_pos(self, feature: str) -> int:
        return self.offsets[feature]

    def categorical_pos(self, feature: str, value) -> int:
        return int(self.categorical_positions(feature, np.array([value]))[0])

    def categorical_positions(self, feature: str, column) -> np.ndarray:
        """Positions of a column of category values, each of which must
        be one the index knows."""
        values = self.category_values[feature]
        column = np.asarray(column)
        found = np.searchsorted(values, column)
        known = found < len(values)
        known[known] = values[found[known]] == column[known]
        if not known.all():
            value = column[~known][0]
            raise KeyError(f"unseen category {value!r} of {feature!r}")
        return self.offsets[feature] + found


class CovarBatch:
    """The aggregate batch computing a (non-centred) covar matrix."""

    def __init__(
        self,
        continuous: Sequence[str],
        categorical: Sequence[str],
        label: str,
    ):
        if label in categorical:
            raise ValueError(
                "the regression label must be continuous; use the "
                "classification-tree workload for categorical targets"
            )
        self.continuous = tuple(continuous)
        self.categorical = tuple(categorical)
        self.label = label
        # continuous columns of the z-vector: intercept handled via count
        self._numeric = tuple(list(self.continuous) + [label])
        self.batch = self._build()

    # -- batch construction ----------------------------------------------------

    def _build(self) -> QueryBatch:
        queries: List[Query] = []
        # scalar query: count, first moments, continuous-continuous pairs
        scalar_aggs: List[Aggregate] = [Aggregate.count(name="count")]
        for attr in self._numeric:
            scalar_aggs.append(Aggregate.of(Identity(attr), name=f"m1:{attr}"))
        for i, a in enumerate(self._numeric):
            for b in self._numeric[i:]:
                if a == b:
                    agg = Aggregate.of(Power(a, 2), name=f"m2:{a}*{b}")
                else:
                    agg = Aggregate.of(
                        Identity(a), Identity(b), name=f"m2:{a}*{b}"
                    )
                scalar_aggs.append(agg)
        queries.append(Query("covar:scalar", [], scalar_aggs))
        # one query per categorical attribute: counts + numeric moments
        for cat in self.categorical:
            aggs = [Aggregate.count(name="count")]
            for attr in self._numeric:
                aggs.append(Aggregate.of(Identity(attr), name=f"m1:{attr}"))
            queries.append(Query(f"covar:g:{cat}", [cat], aggs))
        # one query per categorical pair: co-occurrence counts
        for i, a in enumerate(self.categorical):
            for b in self.categorical[i + 1:]:
                queries.append(
                    Query(
                        f"covar:gg:{a}*{b}",
                        [a, b],
                        [Aggregate.count(name="count")],
                    )
                )
        return QueryBatch(queries)

    # -- assembly ------------------------------------------------------------

    def assemble(self, results: Mapping[str, Relation]) -> Tuple[np.ndarray, FeatureIndex]:
        """Build the dense covar matrix from engine results.

        Returns ``(matrix, index)`` where ``matrix[i, j] = SUM(z_i * z_j)``
        over the join, for the one-hot encoded parameter vector ``z``.
        """
        category_values = {
            cat: np.sort(
                np.unique(results[f"covar:g:{cat}"].column(cat))
            )
            for cat in self.categorical
        }
        index = FeatureIndex(
            continuous=self.continuous,
            categorical=self.categorical,
            label=self.label,
            category_values=category_values,
        )
        matrix = np.zeros((index.size, index.size), dtype=np.float64)
        self._fill_scalar(matrix, index, results["covar:scalar"])
        for cat in self.categorical:
            self._fill_categorical(matrix, index, cat, results[f"covar:g:{cat}"])
        for i, a in enumerate(self.categorical):
            for b in self.categorical[i + 1:]:
                self._fill_pair(
                    matrix, index, a, b, results[f"covar:gg:{a}*{b}"]
                )
        # mirror the upper triangle
        lower = np.tril_indices(index.size, -1)
        matrix[lower] = matrix.T[lower]
        return matrix, index

    def _numeric_pos(self, index: FeatureIndex, attr: str) -> int:
        if attr == self.label:
            return index.label_position
        return index.continuous_pos(attr)

    def _fill_scalar(self, matrix, index, relation: Relation) -> None:
        matrix[0, 0] = relation.column("count")[0]
        for attr in self._numeric:
            pos = self._numeric_pos(index, attr)
            matrix[0, pos] = relation.column(f"m1:{attr}")[0]
        for i, a in enumerate(self._numeric):
            for b in self._numeric[i:]:
                pa, pb = sorted(
                    (self._numeric_pos(index, a), self._numeric_pos(index, b))
                )
                matrix[pa, pb] = relation.column(f"m2:{a}*{b}")[0]

    def _fill_categorical(self, matrix, index, cat, relation: Relation) -> None:
        positions = index.categorical_positions(cat, relation.column(cat))
        counts = relation.column("count")
        matrix[0, positions] = counts
        matrix[positions, positions] = counts  # one-hot: Xv*Xv = Xv
        for attr in self._numeric:
            numeric_pos = self._numeric_pos(index, attr)
            rows = np.minimum(positions, numeric_pos)
            cols = np.maximum(positions, numeric_pos)
            matrix[rows, cols] = relation.column(f"m1:{attr}")

    def _fill_pair(self, matrix, index, a, b, relation: Relation) -> None:
        pa = index.categorical_positions(a, relation.column(a))
        pb = index.categorical_positions(b, relation.column(b))
        matrix[np.minimum(pa, pb), np.maximum(pa, pb)] = relation.column("count")


def covar_batch_size(n_continuous: int, n_categorical: int) -> int:
    """Number of application aggregates in a covar batch.

    For all-continuous features the paper's formula is
    ``(n+1)(n+2)/2`` with ``n`` counting features plus label.
    """
    n_numeric = n_continuous + 1  # + label
    scalar = 1 + n_numeric + n_numeric * (n_numeric + 1) // 2
    per_cat = n_categorical * (1 + n_numeric)
    pairs = n_categorical * (n_categorical - 1) // 2
    return scalar + per_cat + pairs
