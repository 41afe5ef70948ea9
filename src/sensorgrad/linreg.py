"""Least-squares primitives shared by the gradient estimators.

Ordinary least squares with an explicit offset, the rank rule every
regression in the package applies, and quadratic feature expansion.
Both gradient estimators fit through :func:`ols`, so centering and rank
handling live in one place; it fits a whole stack of designs at once.
"""

from __future__ import annotations

import numpy as np

# Designs whose singular-value ratio exceeds this are treated as rank
# deficient.
RANK_RATIO_LIMIT = 1e10


class RegressionError(ValueError):
    """Raised when a least-squares design is rank deficient."""


def rank_deficient(svals: np.ndarray) -> np.ndarray:
    """Per design, whether its singular values (..., k), descending with
    k >= 1, mark it rank deficient: the smallest is not positive, or the
    largest exceeds ``RANK_RATIO_LIMIT`` times the smallest (NaN: no)."""
    largest, smallest = svals[..., 0], svals[..., -1]
    return (smallest <= 0.0) | (largest > RANK_RATIO_LIMIT * smallest)


def ols(
    x: np.ndarray, y: np.ndarray, *, center: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least squares of scores ``y`` (..., n) on designs ``x`` (..., n, p).

    Leading axes index independent fits, solved by one ``np.linalg.svd``
    call; a 2-D design is a stack of one, and no element's numbers depend
    on the rest of its stack.  With ``center=True`` (the default) both
    sides are centered within each design and the offset is carried
    separately.  With ``center=False`` the data are taken as already
    centered (a zero-mean generative setting), the fit goes through the
    origin and the offset is 0.  The caller guarantees n >= p + 1.

    Returns the coefficients (..., p), offsets (...) and residual sums
    of squares (...).  A zero-width design (p = 0) fits the offset alone.
    One design failing :func:`rank_deficient` fails the whole call with
    ``RegressionError("rank deficient design")``.
    """
    if center:
        means_x = x.mean(axis=-2)
        mean_y = y.mean(axis=-1)
        x, y = x - means_x[..., None, :], y - mean_y[..., None]
    u, svals, vt = np.linalg.svd(x, full_matrices=False)
    if svals.shape[-1] and rank_deficient(svals).any():
        raise RegressionError("rank deficient design")
    # coef = V diag(1/s) U^T y, one pair of products per design.
    weights = (y[..., None, :] @ u)[..., 0, :] / svals
    coef = (weights[..., None, :] @ vt)[..., 0, :]
    residuals = y - (x @ coef[..., :, None])[..., 0]
    offset = np.zeros(y.shape[:-1])[()]
    if center:
        offset = mean_y - (means_x * coef).sum(axis=-1)
    return coef, offset, (residuals * residuals).sum(axis=-1)


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
