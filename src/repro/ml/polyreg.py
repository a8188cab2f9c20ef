"""Polynomial regression of degree d (paper §2, eq. (5)).

The model is ``PR_d(X) = sum_{a in A} theta_a prod_j X_j^{a_j}`` over all
exponent vectors with total degree <= d.  Its covar matrix needs one
aggregate per exponent vector of total degree <= 2d:

    Covar_(a1..an+1)( X1^a1 * ... * Xn+1^an+1 )

Categorical attributes with positive exponent become group-by attributes
(their powers are idempotent under one-hot encoding).  This extends
:mod:`repro.ml.covar` beyond the linear (d=1) case and also covers the
degree-2 interactions of factorization machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..data.relation import Relation
from ..query.aggregates import Aggregate, Product
from ..query.functions import Power
from ..query.query import Query, QueryBatch
from .linalg import solve_ridge


def monomials(
    features: Sequence[str], degree: int
) -> List[Tuple[Tuple[str, int], ...]]:
    """All monomials of total degree <= ``degree`` over the features.

    Each monomial is a tuple of (attribute, exponent) pairs, sorted by
    attribute; the empty tuple is the constant monomial.
    """
    result: List[Tuple[Tuple[str, int], ...]] = [()]
    for total in range(1, degree + 1):
        for combo in combinations_with_replacement(sorted(features), total):
            exponents: Dict[str, int] = {}
            for attr in combo:
                exponents[attr] = exponents.get(attr, 0) + 1
            result.append(tuple(sorted(exponents.items())))
    return result


def _monomial_name(monomial) -> str:
    if not monomial:
        return "1"
    return "*".join(
        attr if exp == 1 else f"{attr}^{exp}" for attr, exp in monomial
    )


def _pair_product(
    left, right, categorical: frozenset
) -> Tuple[Tuple[Tuple[str, int], ...], Tuple[str, ...]]:
    """Multiply two monomials; split categorical attrs into group-bys.

    One-hot indicators are idempotent (``x^k = x``), so any categorical
    attribute with positive exponent simply becomes a group-by attribute
    (paper: "each categorical attribute X_j with exponent a_j > 0 becomes
    a group-by attribute").
    """
    exponents: Dict[str, int] = {}
    for attr, exp in list(left) + list(right):
        exponents[attr] = exponents.get(attr, 0) + exp
    group_by = tuple(sorted(a for a in exponents if a in categorical))
    numeric = tuple(
        sorted((a, e) for a, e in exponents.items() if a not in categorical)
    )
    return numeric, group_by


class PolynomialCovarBatch:
    """The aggregate batch of eq. (5): all degree-<=2d moment aggregates."""

    def __init__(
        self,
        continuous: Sequence[str],
        categorical: Sequence[str],
        label: str,
        degree: int = 2,
    ):
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.continuous = tuple(continuous)
        self.categorical = tuple(sorted(categorical))
        self.label = label
        self.degree = degree
        features = list(continuous) + list(categorical)
        self.basis = monomials(features, degree)
        #: entries[(i, j)] -> (query name, aggregate name, group_by)
        self.entries: Dict[Tuple[int, int], Tuple[str, str, Tuple[str, ...]]] = {}
        self.batch = self._build()

    def _build(self) -> QueryBatch:
        categorical = frozenset(self.categorical)
        # bucket aggregates by their group-by signature (one query each)
        buckets: Dict[Tuple[str, ...], Dict[str, Aggregate]] = {}
        for i, left in enumerate(self.basis):
            for j_offset, right in enumerate(self.basis[i:]):
                j = i + j_offset
                for with_label in (False, True):
                    numeric, group_by = _pair_product(
                        left, right, categorical
                    )
                    factors = [
                        Power(attr, exp) for attr, exp in numeric
                    ]
                    suffix = ""
                    if with_label:
                        factors.append(Power(self.label, 1))
                        suffix = f"*{self.label}"
                    name = (
                        f"{_monomial_name(left)}.{_monomial_name(right)}"
                        f"{suffix}"
                    )
                    bucket = buckets.setdefault(group_by, {})
                    if name not in bucket:
                        bucket[name] = Aggregate(
                            [Product(factors)], name=name
                        )
                    if not with_label:
                        self.entries[(i, j)] = (
                            self._query_name(group_by),
                            name,
                            group_by,
                        )
        queries = [
            Query(self._query_name(group_by), list(group_by), list(aggs.values()))
            for group_by, aggs in sorted(buckets.items())
        ]
        return QueryBatch(queries)

    @staticmethod
    def _query_name(group_by: Tuple[str, ...]) -> str:
        return "polycovar:" + (",".join(group_by) if group_by else "<>")


@dataclass
class PolynomialModel:
    """A trained degree-d polynomial regressor (continuous features)."""

    theta: np.ndarray
    basis: List[tuple]
    label: str
    degree: int
    l2: float

    def design_matrix(self, flat: Relation) -> np.ndarray:
        matrix = np.ones((flat.n_rows, len(self.basis)))
        for idx, monomial in enumerate(self.basis):
            for attr, exp in monomial:
                matrix[:, idx] *= (
                    np.asarray(flat.column(attr), dtype=np.float64) ** exp
                )
        return matrix

    def predict(self, flat: Relation) -> np.ndarray:
        return self.design_matrix(flat) @ self.theta

    def rmse(self, flat: Relation) -> float:
        prediction = self.predict(flat)
        target = np.asarray(flat.column(self.label), dtype=np.float64)
        return float(np.sqrt(np.mean((prediction - target) ** 2)))


def train_polynomial(
    engine,
    continuous: Sequence[str],
    label: str,
    degree: int = 2,
    l2: float = 1e-3,
) -> PolynomialModel:
    """Train polynomial regression over all-continuous features.

    The engine computes all moment aggregates of degrees <= 2d in one
    batch; the normal equations are then solved over the (tiny) moment
    matrix — the polynomial analog of the linear covar pipeline.
    """
    covar = PolynomialCovarBatch(continuous, [], label, degree)
    results = engine.run(covar.batch)
    basis = covar.basis
    p = len(basis)
    scalar = results[PolynomialCovarBatch._query_name(())]
    n = float(scalar.column("1.1")[0])
    if n <= 0:
        raise ValueError("empty training dataset")
    gram = np.zeros((p, p))
    moment = np.zeros(p)
    for (i, j), (query_name, agg_name, _group_by) in covar.entries.items():
        value = float(results[query_name].column(agg_name)[0])
        gram[i, j] = value
        gram[j, i] = value
    # the label moments are the constant-paired aggregates with *label
    for i, monomial in enumerate(basis):
        name = f"1.{_monomial_name(monomial)}*{label}"
        moment[i] = float(scalar.column(name)[0])
    theta = solve_ridge(gram / n, moment / n, l2)
    return PolynomialModel(
        theta=theta, basis=list(basis), label=label, degree=degree, l2=l2
    )
