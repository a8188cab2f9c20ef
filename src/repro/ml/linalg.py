"""Linear algebra over joins (paper §2, "Further Applications").

The paper notes LMFAO also supports "linear algebra operations such as
QR and SVD decompositions of matrices defined by the natural join of
database relations".  Both reduce to the covar (Gram) matrix that LMFAO
already computes:

* if ``A`` is the (implicit, never materialized) design matrix of the
  join and ``C = A^T A`` its Gram matrix, then the Cholesky factor
  ``C = R^T R`` is exactly the ``R`` of the thin QR decomposition
  ``A = Q R``;
* the eigenvalues of ``C`` are the squared singular values of ``A``, and
  the right singular vectors are ``C``'s eigenvectors.

So one aggregate batch yields the decompositions of a matrix that may be
orders of magnitude larger than the database.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .covar import CovarBatch, FeatureIndex


@dataclass
class JoinMatrixDecompositions:
    """QR / SVD factors of the implicit design matrix over the join."""

    #: upper-triangular R with A = Q R (thin QR)
    r_factor: np.ndarray
    #: singular values of the design matrix, descending
    singular_values: np.ndarray
    #: right singular vectors (columns), aligned with singular_values
    right_vectors: np.ndarray
    index: FeatureIndex
    n_rows: float

    def rank(self, tolerance: float = 1e-10) -> int:
        """Numerical rank of the design matrix."""
        if len(self.singular_values) == 0:
            return 0
        cutoff = tolerance * self.singular_values[0]
        return int((self.singular_values > cutoff).sum())


def decompose_join_matrix(
    engine,
    continuous: Sequence[str],
    categorical: Sequence[str] = (),
    label: str = None,
    ridge: float = 0.0,
) -> JoinMatrixDecompositions:
    """QR + SVD of the one-hot design matrix over the join.

    The design matrix has columns [intercept, continuous...,
    one-hot(categorical)...]; the label column (required by the covar
    batch plumbing) is excluded from the decomposition.  ``ridge`` adds
    ``ridge * I`` to the Gram matrix before factorization, useful when
    one-hot blocks make it exactly singular.
    """
    if label is None:
        if not continuous:
            raise ValueError("need at least one continuous attribute")
        label = continuous[0]
        continuous = list(continuous[1:])
    covar = CovarBatch(continuous, categorical, label)
    results = engine.run(covar.batch)
    matrix, index = covar.assemble(results)
    p = index.label_position
    # re-attach the label as an ordinary column: the design matrix is
    # [intercept, features..., label]
    gram = matrix[: p + 1, : p + 1].copy()
    gram[p, :p] = matrix[index.label_position, :p]
    gram[:p, p] = matrix[:p, index.label_position]
    gram[p, p] = matrix[index.label_position, index.label_position]
    if ridge:
        gram = gram + ridge * np.eye(len(gram))
    r_factor = _cholesky_upper(gram)
    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.clip(eigenvalues[order], 0.0, None)
    return JoinMatrixDecompositions(
        r_factor=r_factor,
        singular_values=np.sqrt(eigenvalues),
        right_vectors=eigenvectors[:, order],
        index=index,
        n_rows=float(matrix[0, 0]),
    )


def solve_ridge(gram: np.ndarray, moment: np.ndarray, l2: float) -> np.ndarray:
    """Solve the ridge normal equations ``(gram + l2 I) theta = moment``.

    The regularized matrix is Jacobi-scaled to a unit diagonal, then
    Cholesky-factored and solved by forward and back substitution.  A
    covar matrix's columns are counts, one-hot indicators and raw
    measures of very different magnitudes; the scaling takes retailer's
    (scale 0.5) condition number from 1.9e13 to 2.3e4.
    ``np.linalg.solve`` is avoided on purpose: in a process that has run
    the engine, its first calls were measured to stall ~0.1 s each inside
    the multi-threaded BLAS, while this path takes under 1 ms on a
    100x100 matrix.

    Raises ``ValueError`` when the matrix is not positive definite as far
    as the Cholesky factorization can tell, e.g. ``l2 = 0`` with a
    one-hot block that sums to the intercept column: there is no unique
    minimizer to return.
    """
    regularized = gram + l2 * np.eye(len(gram))
    diagonal = np.diag(regularized)
    not_positive_definite = (
        f"the ridge matrix is not positive definite at l2={l2!r}; "
        "a larger l2 regularizes it"
    )
    if not np.all(diagonal > 0):
        raise ValueError(not_positive_definite)
    scale = np.sqrt(diagonal)
    try:
        lower = np.linalg.cholesky(regularized / np.outer(scale, scale))
    except np.linalg.LinAlgError:
        raise ValueError(not_positive_definite) from None
    pivots = np.diag(lower)
    x = np.asarray(moment, dtype=np.float64) / scale
    for i in range(len(x)):  # lower @ y = x
        x[i] = (x[i] - lower[i, :i] @ x[:i]) / pivots[i]
    upper = np.ascontiguousarray(lower.T)
    for i in reversed(range(len(x))):  # upper @ z = y
        x[i] = (x[i] - upper[i, i + 1:] @ x[i + 1:]) / pivots[i]
    return x / scale


def _cholesky_upper(gram: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor, falling back to a jittered factorization
    for (numerically) singular Gram matrices."""
    jitter = 0.0
    scale = float(np.trace(gram)) / max(1, len(gram))
    for _ in range(12):
        try:
            lower = np.linalg.cholesky(
                gram + jitter * np.eye(len(gram))
            )
            return lower.T
        except np.linalg.LinAlgError:
            jitter = max(jitter * 10.0, 1e-12 * max(scale, 1.0))
    raise np.linalg.LinAlgError(
        "Gram matrix not factorizable even with jitter"
    )
