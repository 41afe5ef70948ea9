"""Least-squares primitives shared by the gradient estimators.

Centering, ordinary least squares through an orthogonal decomposition,
and quadratic feature expansion.  All regressions in the package go
through :func:`ols` so that rank handling and the centered-offset
convention live in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Designs whose singular-value ratio exceeds this are treated as rank
# deficient.
RANK_RATIO_LIMIT = 1e10


class RegressionError(ValueError):
    """Raised when a least-squares problem is ill posed."""


def center_columns(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Subtract column means from a design matrix.

    Parameters
    ----------
    x : (n, p) array

    Returns
    -------
    centered : (n, p) array with zero column means
    means : (p,) array of the subtracted means
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise RegressionError("design must be a 2-d array")
    if x.shape[0] == 0:
        raise RegressionError("empty batch")
    means = x.mean(axis=0)
    return x - means, means


@dataclass(frozen=True)
class OlsFit:
    """Result of a centered least-squares fit.

    Predictions for a new row ``x`` are ``(x - column_means_x) @
    coefficients + mean_y``.  ``residuals`` are orthogonal to the
    centered design columns.
    """

    coefficients: np.ndarray
    column_means_x: np.ndarray
    mean_y: float
    residuals: np.ndarray

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return (x - self.column_means_x) @ self.coefficients + self.mean_y


def ols(x: np.ndarray, y: np.ndarray, *, center: bool = True) -> OlsFit:
    """Least squares of ``y`` on ``x`` with an explicit offset.

    With ``center=True`` (the default) both sides are centered within
    the batch and the offset is carried separately; no column of ones
    is ever added.  With ``center=False`` the data are taken as already
    centered (a zero-mean generative setting) and the fit goes through
    the origin; the recorded means are zero.

    The solve uses an SVD.  A singular-value ratio above
    ``RANK_RATIO_LIMIT`` raises ``RegressionError("rank deficient
    design")``.

    Raises
    ------
    RegressionError
        "empty batch" for n = 0, "length mismatch" when x and y
        disagree on n, "insufficient samples" when n < p + 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2:
        raise RegressionError("design must be a 2-d array")
    if y.ndim != 1:
        raise RegressionError("response must be a 1-d array")
    n, p = x.shape
    if n == 0:
        raise RegressionError("empty batch")
    if y.shape[0] != n:
        raise RegressionError("length mismatch between design and response")
    if n < p + 1:
        raise RegressionError(
            f"insufficient samples: n={n} rows cannot fit p={p} coefficients "
            "plus an offset"
        )

    if center:
        xc, means_x = center_columns(x)
        mean_y = float(y.mean())
        yc = y - mean_y
    else:
        xc = x
        means_x = np.zeros(p)
        mean_y = 0.0
        yc = y

    if p == 0:
        return OlsFit(np.zeros(0), means_x, mean_y, yc.copy())

    coef, _, rank, svals = np.linalg.lstsq(xc, yc, rcond=None)
    smax = float(svals[0]) if svals.size else 0.0
    smin = float(svals[-1]) if svals.size else 0.0
    if rank < p or smin <= 0.0 or smax / smin > RANK_RATIO_LIMIT:
        raise RegressionError("rank deficient design")
    residuals = yc - xc @ coef
    return OlsFit(coef, means_x, mean_y, residuals)


def quad_features(x: np.ndarray) -> np.ndarray:
    """Quadratic monomial features of a state vector.

    For ``z = [1, x]`` returns the row-major upper triangle of the
    outer product ``z z^T`` (diagonal included): constant, linear, and
    quadratic terms, ``(k + 1)(k + 2) / 2`` of them for a k-vector.
    Leading axes broadcast, so a stack of states maps to a stack of
    feature rows.
    """
    x = np.asarray(x, dtype=float)
    z = np.concatenate(
        [np.ones(x.shape[:-1] + (1,)), x], axis=-1
    )
    rows, cols = np.triu_indices(z.shape[-1])
    # Features are stored outermost, the layout ``z[..., rows] * z[...,
    # cols]`` would have: the matmuls downstream round differently on a
    # C-ordered copy.  Filling one feature at a time skips that
    # expression's two full-size index temporaries.
    out = np.empty((rows.size,) + x.shape[:-1])
    for feature, (r, c) in enumerate(zip(rows, cols)):
        np.multiply(z[..., r], z[..., c], out=out[feature, ...])
    return np.moveaxis(out, 0, -1)


def quad_feature_count(k: int) -> int:
    """Length of :func:`quad_features` output for a k-vector."""
    return (k + 1) * (k + 2) // 2
