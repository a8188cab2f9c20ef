"""Common infrastructure for the synthetic benchmark datasets.

The paper evaluates on Retailer (proprietary), Favorita (Kaggle), Yelp
(dataset challenge) and a TPC-DS excerpt.  None of those can ship with
this reproduction, so each generator below synthesizes a database with
the *same schema and join tree* (Appendix A, Figure 6) and with realistic
key skew, at a laptop-friendly scale.  Plan shapes (views, groups,
aggregate counts) depend only on schema + workload and are therefore
faithful; timing shapes follow from the same sharing structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data.database import Database
from ..jointree.join_tree import JoinTree, join_tree_from_database


@dataclass
class Dataset:
    """A benchmark dataset: database + join tree + feature metadata."""

    name: str
    database: Database
    join_tree: JoinTree
    #: continuous model features (attribute names)
    continuous_features: List[str]
    #: categorical model features
    categorical_features: List[str]
    #: regression / classification target
    label: str
    #: attributes used for the mutual-information workload
    discrete_attrs: List[str]
    #: (dimensions, measures) used for the data-cube workload
    cube_dimensions: List[str] = field(default_factory=list)
    cube_measures: List[str] = field(default_factory=list)

    @property
    def features(self) -> List[str]:
        return self.continuous_features + self.categorical_features

    def regression_spec(self) -> Tuple[List[str], List[str], str]:
        """``(continuous, categorical, label)`` of the regression
        workloads: the label is ``label`` if that is continuous and the
        first continuous feature otherwise; ``continuous`` is every other
        continuous feature."""
        label = self.label
        if self.database.attribute_kind(label) != "continuous":
            label = self.continuous_features[0]
        continuous = [f for f in self.continuous_features if f != label]
        return continuous, list(self.categorical_features), label

    def fact_table(self) -> str:
        """The largest relation (the snowflake/star fact table)."""
        return max(self.database, key=lambda r: r.n_rows).name

    def summary(self) -> Dict[str, object]:
        """Table 1-style characteristics of this dataset instance."""
        db = self.database
        return {
            "dataset": self.name,
            "relations": len(db),
            "tuples": db.total_tuples(),
            "size_mb": db.total_bytes() / 1e6,
            "attributes": len(db.attributes()),
            "categorical": sum(
                1
                for a in db.attributes()
                if db.attribute_kind(a) == "categorical"
            ),
        }


def scaled(base: int, scale: float, minimum: int = 8) -> int:
    """Scale a row count, keeping a sensible minimum."""
    return max(minimum, int(round(base * scale)))


def zipf_choice(
    rng: np.random.Generator,
    n_values: int,
    size: int,
    exponent: float = 1.1,
) -> np.ndarray:
    """Skewed key generator: Zipf-like popularity over ``n_values`` keys.

    Real retail fact tables are heavily skewed (a few products dominate);
    this keeps the generated joins realistic for group-by workloads.
    """
    ranks = np.arange(1, n_values + 1, dtype=np.float64)
    probabilities = ranks ** (-exponent)
    probabilities /= probabilities.sum()
    return rng.choice(n_values, size=size, p=probabilities)


def train_test_split_by(
    dataset: Dataset, attr: str, test_fraction: float = 0.1
) -> Tuple[Database, Database]:
    """Split the fact table on the top values of ``attr`` (e.g. the last
    month of dates, as the paper does for its test sets)."""
    fact_name = dataset.fact_table()
    fact = dataset.database.relation(fact_name)
    column = fact.column(attr)
    cutoff = np.quantile(column, 1.0 - test_fraction)
    train_fact = fact.filter(column < cutoff)
    test_fact = fact.filter(column >= cutoff)
    return (
        dataset.database.replace(train_fact),
        dataset.database.replace(test_fact),
    )
