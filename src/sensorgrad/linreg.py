"""Least-squares primitives shared by the gradient estimators.

Ordinary least squares with an explicit offset, the rank rule every
regression in the package applies, and quadratic feature expansion.
Both gradient estimators fit through :func:`ols`, so centering and rank
handling live in one place.
"""

from __future__ import annotations

import numpy as np

# Designs whose singular-value ratio exceeds this are treated as rank
# deficient.
RANK_RATIO_LIMIT = 1e10


class RegressionError(ValueError):
    """Raised when a least-squares design is rank deficient."""


def rank_deficient(svals: np.ndarray) -> bool:
    """Whether a design's singular values (descending, at least one) mark
    it rank deficient: the smallest is not positive, or the largest over
    the smallest exceeds ``RANK_RATIO_LIMIT``."""
    return svals[-1] <= 0.0 or svals[0] / svals[-1] > RANK_RATIO_LIMIT


def ols(
    x: np.ndarray, y: np.ndarray, *, center: bool = True
) -> tuple[np.ndarray, float, float]:
    """Least squares of scores ``y`` (n,) on a design ``x`` (n, p).

    With ``center=True`` (the default) both sides are centered within
    the batch and the offset is carried separately; no column of ones
    is ever added.  With ``center=False`` the data are taken as already
    centered (a zero-mean generative setting), the fit goes through the
    origin and the offset is 0.  The caller guarantees n >= p + 1.

    Returns the coefficients (p,), the offset and the residual sum of
    squares.  A zero-width design (p = 0) fits the offset alone.  The
    solve is one ``np.linalg.lstsq`` call; a design of numerical rank
    below p, or one that fails :func:`rank_deficient`, raises
    ``RegressionError("rank deficient design")``.
    """
    if center:
        means_x = x.mean(axis=0)
        mean_y = float(y.mean())
        x, y = x - means_x, y - mean_y
    coef, _, rank, svals = np.linalg.lstsq(x, y, rcond=None)
    if rank < x.shape[1] or (svals.size and rank_deficient(svals)):
        raise RegressionError("rank deficient design")
    residuals = y - x @ coef
    offset = float(mean_y - means_x @ coef) if center else 0.0
    return coef, offset, float(residuals @ residuals)


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
