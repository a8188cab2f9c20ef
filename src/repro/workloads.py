"""The named workloads: one table from a name to the batch it builds.

The paper measures every layer on the same few aggregate batches (§2,
Tables 2–3).  The CLI builds them by name, ``repro serve`` registers
:data:`SERVED`, and the benchmarks, tests and examples take their
batches from here, so a name means one batch everywhere.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from .engine.engine import LMFAO
from .ml import CARTLearner, CovarBatch, PolynomialCovarBatch
from .ml import build_cube_batch, build_mi_batch
from .ml.kmeans import _initial_centroids, _iteration_batch
from .query.query import QueryBatch


def _covar(dataset) -> QueryBatch:
    return CovarBatch(*dataset.regression_spec()).batch


def _tree_node(dataset) -> QueryBatch:
    """The regression tree's root node: every split candidate's sums.
    The learner reads its bucket thresholds from the data; planning the
    batch never runs it."""
    continuous, categorical, label = dataset.regression_spec()
    learner = CARTLearner(
        LMFAO(dataset.database, dataset.join_tree),
        continuous, categorical, label, "regression",
    )
    return learner.node_batch([])


def _kmeans(dataset) -> QueryBatch:
    """One Lloyd iteration, exactly the batch each ``kmeans()`` iteration
    issues: per-cluster count, sum and sum-of-squares aggregates with the
    (seeded) centroid assignment in dynamic UDFs, which make it
    uncacheable."""
    features = [
        f for f in dataset.continuous_features if f != dataset.label
    ][:3]
    centroids = _initial_centroids(
        LMFAO(dataset.database, dataset.join_tree),
        features, 3, np.random.default_rng(0),
    )
    return _iteration_batch(features, centroids)


def _polyreg(dataset) -> QueryBatch:
    """The degree-2 moment batch (eq. 5) over a trimmed feature set: the
    full set squares the aggregate count."""
    continuous, categorical, label = dataset.regression_spec()
    return PolynomialCovarBatch(
        continuous[:4], categorical[:2], label, degree=2
    ).batch


def _mutual_information(dataset) -> QueryBatch:
    return build_mi_batch(dataset.discrete_attrs)


def _datacube(dataset) -> QueryBatch:
    return build_cube_batch(dataset.cube_dimensions, dataset.cube_measures)


#: every workload name, aliases included, and the builder of its batch
_BUILDERS = {
    "covar": _covar,
    # ridge regression trains on the covar matrix: fusion and the view
    # cache share its whole view DAG with covar's
    "linreg": _covar,
    "trees": _tree_node,
    "rt_node": _tree_node,
    "kmeans": _kmeans,
    "polyreg": _polyreg,
    "mi": _mutual_information,
    "mutual_information": _mutual_information,
    # the pairwise-MI batch ``chow_liu_tree`` consumes
    "chow_liu": _mutual_information,
    "cube": _datacube,
    "datacube": _datacube,
}

NAMES = tuple(_BUILDERS)
#: what ``repro serve`` registers, in order (``rt_node``, ``mi`` and
#: ``cube`` are aliases and stay CLI-only)
SERVED = (
    "covar", "linreg", "trees", "kmeans", "polyreg", "chow_liu",
    "mutual_information", "datacube",
)
#: the paper's four batches (Tables 2–3)
PAPER = ("covar", "rt_node", "mi", "cube")


def build(dataset, name: str) -> QueryBatch:
    """A fresh batch of the workload ``name`` over ``dataset``."""
    if name not in _BUILDERS:
        raise ValueError(
            f"unknown workload {name!r}; use one of {'/'.join(NAMES)}"
        )
    return _BUILDERS[name](dataset)


def served_batches(dataset) -> Dict[str, QueryBatch]:
    """Name -> batch of every workload ``repro serve`` registers."""
    return {name: build(dataset, name) for name in SERVED}


def paper_batches(dataset) -> Dict[str, QueryBatch]:
    """Name -> batch of the paper's covar, rt_node, mi and cube."""
    return {name: build(dataset, name) for name in PAPER}
