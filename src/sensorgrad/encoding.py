"""Search for low-dimensional sensor encodings.

High-dimensional raw sensor payloads are projected through a matrix B
before entering the joint gradient regression.  The quality of a
candidate B is scored by the leave-one-out cost: for every trial, fit
the joint regression on the remaining trials and square the error of
its affine prediction at the held-out trial.  The coefficients drop
out of that cost in closed form, so its gradient in B has a closed form
too, and a quasi-Newton search with that exact gradient minimizes the
cost over the entries of B from several restarts.

The cost depends on B only through its column space (the regression is
invariant under invertible recombinations of the projected columns),
so the returned projection is orthonormalized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .estimators import (
    EncodingError,
    EstimationError,
    GradientEstimate,
    TrialBatch,
    check_score_sum,
    estimate_g2,
)
from .linreg import rank_deficient

__all__ = [
    "SensorProjection",
    "EncodingSearchConfig",
    "loo_cost",
    "optimize_projection",
    "estimate_gradient_encoded",
]

# A held-out fit is treated as rank deficient when the trial's leverage
# reaches 1 within this margin.
_LEVERAGE_TOL = 1e-10


@dataclass(frozen=True)
class SensorProjection:
    """A sensor projection with orthonormal columns, as
    :func:`optimize_projection` found it: the winning restart's
    leave-one-out cost and its per-iteration history."""

    matrix: np.ndarray
    cost: float
    cost_trace: tuple[float, ...]


@dataclass(frozen=True)
class EncodingSearchConfig:
    """Settings for the projection search.

    ``target_dim`` columns are fit by ``restarts`` quasi-Newton runs of
    at most ``max_iterations`` iterations each, using the analytic
    gradient of the leave-one-out cost.  One restart is
    initialized from the principal components of the raw sensors; the
    rest are random orthonormal matrices drawn from ``seed``.  The
    fields are not checked here: a config reads each with its bounds
    (``restarts`` at least 1, the other counts nonnegative).
    """

    target_dim: int
    max_iterations: int = 60
    restarts: int = 3
    seed: int = 0


# ---------------------------------------------------------------------------
# leave-one-out cost
# ---------------------------------------------------------------------------


def _centered(batch: TrialBatch):
    """Centered policies, scores and sensors of a batch."""
    pols, scores, sens = batch.policies, batch.scores, batch.sensors
    check_score_sum(scores)
    return pols - pols.mean(axis=0), scores - scores.mean(), sens - sens.mean(axis=0)


def _loo_cost_and_grad(
    pols_c: np.ndarray, y: np.ndarray, sens_c: np.ndarray, b: np.ndarray
) -> tuple[float, np.ndarray]:
    """Leave-one-out cost of projection ``b`` and its gradient in ``b``.

    Takes centered policies (n, d), scores (n,) and raw sensors (n, m).
    With the design X = [pols_c, sens_c b] = U S V^T, hat matrix
    H = U U^T, coefficients beta, residuals r = (I - H) y, leverage slack
    s = 1 - 1/n - diag(H) and held-out errors e = r / s, the cost is
    e^T e.  A change of X moves r and s only through H; with w = 2e / s,
    v = w e and XA = X (X^T X)^-1 = U S^-1 V^T, the gradient in X is

        G = -(I - H) w beta^T - r (w^T XA) + 2 (I - H) diag(v) XA

    and the gradient in ``b`` is sens_c^T G[:, d:].  Raises the errors
    documented for :func:`loo_cost`.
    """
    n, d = pols_c.shape
    ds = b.shape[1]
    if n < d + ds + 3:
        raise EstimationError(
            f"insufficient samples: n={n} < d+d_s+3={d + ds + 3} for "
            "leave-one-out fits"
        )
    design = np.concatenate([pols_c, sens_c @ b], axis=1)
    u, svals, vt = np.linalg.svd(design, full_matrices=False)
    if rank_deficient(svals):
        raise EncodingError("rank deficient design")
    coef = vt.T @ ((u.T @ y) / svals)
    resid = y - design @ coef
    slack = 1.0 - (1.0 / n + np.sum(u * u, axis=1))
    bad = np.nonzero(slack <= _LEVERAGE_TOL)[0]
    if bad.size:
        raise EncodingError(f"rank deficient held-out fit at index {int(bad[0])}")
    press = resid / slack
    w = 2.0 * press / slack
    xa = (u / svals) @ vt[:, d:]
    w_perp = w - u @ (u.T @ w)
    vxa = (w * press)[:, None] * xa
    vxa_perp = vxa - u @ (u.T @ vxa)
    g = -np.outer(w_perp, coef[d:]) - np.outer(resid, w @ xa) + 2.0 * vxa_perp
    return float(press @ press), sens_c.T @ g


def loo_cost(batch: TrialBatch, projection: np.ndarray) -> float:
    """Leave-one-out cost of a sensor projection.

    For each trial i the joint regression (policies and projected
    sensors, centered, offset carried separately) is fit on the other
    n - 1 trials; the cost sums the squared errors of those fits'
    affine predictions at the held-out trials.  Computed through the
    hat-matrix identity, which agrees with literally deleting and
    refitting row by row.

    Requires ``n >= d + target_dim + 3`` so every held-out fit still
    satisfies the joint regression's own sample-size precondition.
    Raises :class:`EncodingError` naming the offending trial when some
    held-out fit is rank deficient.
    """
    cost, _ = _loo_cost_and_grad(*_centered(batch), projection)
    return cost


# ---------------------------------------------------------------------------
# projection search
# ---------------------------------------------------------------------------


def _orthonormalized(mat: np.ndarray) -> np.ndarray:
    """QR-orthonormalize columns with a deterministic sign convention."""
    q, r = np.linalg.qr(mat)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def _pca_init(raw: np.ndarray, target_dim: int) -> np.ndarray:
    centered = raw - raw.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    count = min(target_dim, vt.shape[0])
    init = np.zeros((raw.shape[1], target_dim))
    # Fewer trials than columns leave zero columns: loo_cost then refuses.
    init[:, :count] = vt[:count].T
    return _orthonormalized(init)


class MinimizeResult(NamedTuple):
    """Where :func:`minimize` stopped: the point, its cost, the iterations taken."""

    x: np.ndarray
    fun: float
    nit: int


# Armijo sufficient-decrease constant, the backtracking cap, the gradient
# size (largest entry) at which the search stops, and the predicted
# decrease, relative to the cost, below which rounding hides any progress.
_ARMIJO = 1e-4
_MAX_HALVINGS = 40
_GTOL = 1e-10
_RESOLUTION = 1e-15


def minimize(fun, x0, max_iterations: int, callback) -> MinimizeResult:
    """BFGS with Armijo backtracking (Nocedal & Wright, 2006, ch. 3 and 6).

    ``fun(x)`` returns the cost and its gradient.  A trial point must
    lower the cost by the Armijo margin; one whose cost is not finite
    fails, so the step backtracks.  The inverse-Hessian estimate starts
    as the identity (steps then cut to at most 1 in every entry), is
    rescaled by y^T s / y^T y at the first update, and skips any update
    with y^T s <= 0.  Stops after ``max_iterations`` accepted steps, when
    the gradient's largest entry is at most 1e-10, when the predicted
    decrease is below the cost's rounding, or when backtracking finds no
    decrease.  ``callback(cost)`` sees each accepted step's cost.  With a
    finite cost at ``x0`` the result's cost is finite and never above it.
    """
    x = np.array(x0, dtype=float)
    cost, grad = fun(x)
    inverse = np.eye(x.size)
    scaled = False
    nit = 0
    while nit < max_iterations and np.isfinite(cost):
        largest = np.max(np.abs(grad), initial=0.0)
        if largest <= _GTOL:
            break
        direction = -(inverse @ grad)
        slope = float(grad @ direction)
        if -slope <= _RESOLUTION * abs(cost):
            break
        step = 1.0 if scaled else min(1.0, 1.0 / largest)
        for _ in range(_MAX_HALVINGS):
            trial = x + step * direction
            trial_cost, trial_grad = fun(trial)
            if trial_cost < cost and trial_cost <= cost + _ARMIJO * step * slope:
                break
            step *= 0.5
        else:
            break
        s, y = trial - x, trial_grad - grad
        x, cost, grad = trial, trial_cost, trial_grad
        nit += 1
        callback(cost)
        sy = float(y @ s)
        if sy <= 0.0:
            continue
        if not scaled:
            inverse *= sy / float(y @ y)
            scaled = True
        rho = 1.0 / sy
        hy = inverse @ y
        inverse += (rho * rho * float(y @ hy) + rho) * np.outer(s, s) - rho * (
            np.outer(hy, s) + np.outer(s, hy)
        )
    return MinimizeResult(x, float(cost), nit)


# Failures that make the search reject a projection as infinitely costly.
# Too few samples is not one: no projection of that width can fix it.
_REJECTED = (EncodingError, np.linalg.LinAlgError)


def _search_cost_and_grad(flat, pols_c, y, sens_c) -> tuple[float, np.ndarray]:
    """:func:`_loo_cost_and_grad` over the flattened projection, as
    :func:`minimize` sees it; a rejected projection costs infinity."""
    try:
        cost, grad = _loo_cost_and_grad(
            pols_c, y, sens_c, flat.reshape(sens_c.shape[1], -1)
        )
    except _REJECTED:
        return np.inf, np.zeros_like(flat)
    return cost, grad.ravel()


def optimize_projection(
    batch: TrialBatch, config: EncodingSearchConfig
) -> SensorProjection:
    """Minimize the leave-one-out cost over projection entries.

    Runs a BFGS search with the analytic leave-one-out gradient from
    each restart and returns the best projection found, columns
    orthonormalized.  Ties go to the earliest restart.  A ``target_dim``
    above the raw sensor width raises :class:`EncodingError`, too few
    trials for the leave-one-out fits :class:`EstimationError`.  With
    ``max_iterations=0`` the best initialization is returned unchanged
    (up to orthonormalization).
    """
    raw = batch.sensors
    raw_dim = raw.shape[1]
    ds = config.target_dim
    if ds > raw_dim:
        raise EncodingError(f"target_dim {ds} exceeds the {raw_dim} raw sensors")
    centered = _centered(batch)
    rng = np.random.default_rng(config.seed)
    inits = [_pca_init(raw, ds)]
    while len(inits) < config.restarts:
        inits.append(_orthonormalized(rng.standard_normal((raw_dim, ds))))

    best_flat: np.ndarray | None = None
    best_cost = np.inf
    best_trace: tuple[float, ...] | None = None
    for start in inits:
        try:
            trace = [loo_cost(batch, start)]
        except _REJECTED:
            continue
        result = minimize(
            lambda flat: _search_cost_and_grad(flat, *centered),
            start.ravel(),
            config.max_iterations,
            callback=trace.append,
        )
        if result.fun < best_cost:
            best_flat, best_cost, best_trace = result.x, result.fun, tuple(trace)
    if best_flat is None:
        raise EncodingError("no valid projection found")
    best = _orthonormalized(best_flat.reshape(raw_dim, ds))
    return SensorProjection(best, cost=best_cost, cost_trace=best_trace)


def estimate_gradient_encoded(
    batch: TrialBatch, projection: np.ndarray
) -> GradientEstimate:
    """Joint gradient estimate using projected sensors.

    Projects the batch's sensors through the projection matrix and runs
    the joint regression.  The gradient depends on the projection only
    through its column space.
    """
    return estimate_g2(replace(batch, sensors=batch.sensors @ projection))
