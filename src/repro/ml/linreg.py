"""Ridge linear regression over the covar matrix (paper §2, §4.2).

LMFAO computes the covar matrix once; the model is then learned from
this (tiny) matrix alone — no pass over the data.  By default
(``method="closed"``) the normal equations are solved exactly, once, by
:func:`repro.ml.linalg.solve_ridge`.  ``method="bgd"`` is the paper's
optimizer, and what its Table 4 times: batch gradient descent over the
matrix with Armijo backtracking line search and the Barzilai-Borwein step
size, as in AC/DC, in Jacobi-scaled coordinates: a one-hot covar matrix
(blocks nearly collinear with the intercept) is ill-conditioned.  Its
iterations stop at the tolerance or at a fixed budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..data.database import Database
from ..data.relation import Relation
from ..engine.engine import LMFAO
from .covar import CovarBatch, FeatureIndex
from .linalg import solve_ridge


@dataclass
class LinearRegressionModel:
    """A trained ridge model: parameters over one-hot encoded features."""

    theta: np.ndarray
    index: FeatureIndex
    l2: float
    iterations: int

    def predict(self, flat: Relation) -> np.ndarray:
        """Predict over a materialized (test) join."""
        features = design_matrix(flat, self.index)
        return features @ self.theta

    def rmse(self, flat: Relation) -> float:
        prediction = self.predict(flat)
        target = np.asarray(flat.column(self.index.label), dtype=np.float64)
        return float(np.sqrt(np.mean((prediction - target) ** 2)))


def design_matrix(flat: Relation, index: FeatureIndex) -> np.ndarray:
    """One-hot encoded feature matrix of a materialized join.

    Categories unseen at training time get all-zero one-hot blocks.
    """
    n = flat.n_rows
    matrix = np.zeros((n, index.label_position), dtype=np.float64)
    matrix[:, 0] = 1.0
    for feature in index.continuous:
        matrix[:, index.continuous_pos(feature)] = flat.column(feature)
    for feature in index.categorical:
        values = index.category_values[feature]
        column = flat.column(feature)
        positions = np.searchsorted(values, column)
        valid = (positions < len(values)) & (
            values[np.clip(positions, 0, len(values) - 1)] == column
        )
        rows = np.nonzero(valid)[0]
        cols = index.offsets[feature] + positions[valid]
        matrix[rows, cols] = 1.0
    return matrix


def train_ridge(
    database: Database,
    continuous: Sequence[str],
    categorical: Sequence[str],
    label: str,
    *,
    join_tree=None,
    engine: Optional[LMFAO] = None,
    l2: float = 1e-3,
    method: str = "closed",
    max_iterations: int = 2_000,
    tolerance: float = 1e-10,
) -> LinearRegressionModel:
    """Train a ridge model with LMFAO-computed sufficient statistics.

    ``max_iterations`` and ``tolerance`` apply to ``method="bgd"`` only:
    it stops once the squared norm of the objective's gradient falls
    below ``tolerance``, or after ``max_iterations``.
    """
    if engine is None:
        engine = LMFAO(database, join_tree)
    covar = CovarBatch(continuous, categorical, label)
    results = engine.run(covar.batch)
    matrix, index = covar.assemble(results)
    return optimize_from_covar(
        matrix,
        index,
        l2=l2,
        method=method,
        max_iterations=max_iterations,
        tolerance=tolerance,
    )


def optimize_from_covar(
    matrix: np.ndarray,
    index: FeatureIndex,
    *,
    l2: float = 1e-3,
    method: str = "closed",
    max_iterations: int = 2_000,
    tolerance: float = 1e-10,
) -> LinearRegressionModel:
    """Optimize ridge parameters given the assembled covar matrix.

    ``max_iterations`` and ``tolerance`` apply to ``method="bgd"`` only,
    as in :func:`train_ridge`.
    """
    n = matrix[0, 0]
    if n <= 0:
        raise ValueError("empty training dataset (count aggregate is 0)")
    p = index.label_position
    c_ff = matrix[:p, :p] / n
    c_fl = matrix[:p, index.label_position] / n
    if method == "closed":
        theta = solve_ridge(c_ff, c_fl, l2)
        iterations = 0
    elif method == "bgd":
        theta, iterations = _bgd(
            c_ff, c_fl, l2, max_iterations=max_iterations, tolerance=tolerance
        )
    else:
        raise ValueError(f"unknown method {method!r}; use 'bgd' or 'closed'")
    return LinearRegressionModel(
        theta=theta, index=index, l2=l2, iterations=iterations
    )


def _objective(theta, c_ff, c_fl, c_ll, l2: float) -> float:
    # J = 1/2 th' Cff th - th' Cfl + 1/2 Cll + l2/2 ||th||^2
    return float(
        0.5 * theta @ c_ff @ theta
        - theta @ c_fl
        + 0.5 * c_ll
        + 0.5 * l2 * theta @ theta
    )


def _bgd(
    c_ff: np.ndarray,
    c_fl: np.ndarray,
    l2: float,
    max_iterations: int,
    tolerance: float,
) -> Tuple[np.ndarray, int]:
    """Batch gradient descent with Armijo backtracking + Barzilai-Borwein.

    Iterations touch only the covar matrix — the cost per step is
    O(p^2) regardless of dataset size, the heart of the paper's claim.
    They run in Jacobi-scaled coordinates, ``theta * scale`` with
    ``scale`` the root of the regularized matrix's diagonal, as
    :func:`~repro.ml.linalg.solve_ridge` scales its factorization: the
    unscaled descent on a one-hot covar matrix used up any budget short
    of the optimum, where a one-ulp change of the matrix moved it by
    more than the model's tolerance.  ``tolerance`` bounds the squared
    norm of the unscaled gradient, ``gradient * scale``, so it means what
    it meant for the unscaled descent.
    """
    p = len(c_fl)
    diagonal = np.diag(c_ff) + l2
    scale = np.sqrt(np.where(diagonal > 0, diagonal, 1.0))
    c_ff = c_ff / np.outer(scale, scale)
    c_fl = c_fl / scale
    l2 = l2 / scale**2  # per coordinate: the ridge term's diagonal
    theta = np.zeros(p)
    c_ll = 0.0  # constant offset, irrelevant to the optimizer
    gradient = c_ff @ theta - c_fl + l2 * theta
    step = 1.0
    previous_theta = None
    previous_gradient = None
    for iteration in range(1, max_iterations + 1):
        objective = _objective(theta, c_ff, c_fl, c_ll, l2)
        # Armijo backtracking from the current (possibly BB) step
        candidate_step = step
        gradient_norm2 = float(gradient @ gradient)
        unscaled = gradient * scale
        if float(unscaled @ unscaled) < tolerance:
            return theta / scale, iteration
        for _ in range(60):
            candidate = theta - candidate_step * gradient
            new_objective = _objective(candidate, c_ff, c_fl, c_ll, l2)
            if new_objective <= objective - 0.5 * candidate_step * gradient_norm2:
                break
            candidate_step *= 0.5
        previous_theta, previous_gradient = theta, gradient
        theta = theta - candidate_step * gradient
        gradient = c_ff @ theta - c_fl + l2 * theta
        # Barzilai-Borwein step for the next iteration
        delta_theta = theta - previous_theta
        delta_gradient = gradient - previous_gradient
        denominator = float(delta_theta @ delta_gradient)
        if denominator > 0:
            step = float(delta_theta @ delta_theta) / denominator
        else:
            step = candidate_step
    return theta / scale, max_iterations
