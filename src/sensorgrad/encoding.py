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

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .estimators import (
    EncodingError,
    EstimationError,
    GradientEstimate,
    TrialBatch,
    estimate_g2,
)
from .linreg import RANK_RATIO_LIMIT

__all__ = [
    "EncodingError",
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
    """A sensor projection with unit-norm columns.

    ``cost`` and ``cost_trace`` carry the winning restart's leave-one-out
    cost and its per-iteration history when the projection came from
    :func:`optimize_projection`.
    """

    matrix: np.ndarray
    cost: float | None = None
    cost_trace: tuple[float, ...] | None = None

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.ndim != 2:
            raise ValueError("projection matrix must be 2-d")
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True)
class EncodingSearchConfig:
    """Settings for the projection search.

    ``target_dim`` columns are fit by ``restarts`` quasi-Newton runs of
    at most ``max_iterations`` iterations each, using the analytic
    gradient of the leave-one-out cost.  One restart is
    initialized from the principal components of the raw sensors; the
    rest are random orthonormal matrices drawn from ``seed``.
    """

    target_dim: int
    max_iterations: int = 60
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.target_dim < 0:
            raise ValueError("target_dim must be non-negative")
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be non-negative")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


# ---------------------------------------------------------------------------
# leave-one-out cost
# ---------------------------------------------------------------------------


def _raw_sensor_matrix(batch: TrialBatch, sensors: np.ndarray | None) -> np.ndarray:
    if sensors is None:
        return batch.raw()
    sensors = np.asarray(sensors, dtype=float)
    if sensors.ndim != 2 or sensors.shape[0] != batch.size:
        raise ValueError("sensor matrix must have one row per trial")
    return sensors


def _projection_matrix(projection) -> np.ndarray:
    if isinstance(projection, SensorProjection):
        return projection.matrix
    mat = np.asarray(projection, dtype=float)
    if mat.ndim != 2:
        raise ValueError("projection matrix must be 2-d")
    return mat


def _centered(batch: TrialBatch, raw: np.ndarray):
    """Centered policies, scores and raw sensors of a batch."""
    pols, scores = batch.policies, batch.scores
    return pols - pols.mean(axis=0), scores - scores.mean(), raw - raw.mean(axis=0)


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
    if svals[0] <= 0.0 or svals[-1] <= 0.0 or svals[0] / svals[-1] > RANK_RATIO_LIMIT:
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


def loo_cost(
    batch: TrialBatch,
    projection,
    *,
    sensors: np.ndarray | None = None,
) -> float:
    """Leave-one-out cost of a sensor projection.

    For each trial i the joint regression (policies and projected
    sensors, centered, offset carried separately) is fit on the other
    n - 1 trials; the cost sums the squared errors of those fits'
    affine predictions at the held-out trials.  Computed through the
    hat-matrix identity, which agrees with literally deleting and
    refitting row by row.

    ``sensors`` overrides the per-trial raw payload with an explicit
    (n, raw_dim) matrix, e.g. features derived from the payload.

    Requires ``n >= d + target_dim + 3`` so every held-out fit still
    satisfies the joint regression's own sample-size precondition.
    Raises :class:`EncodingError` naming the offending trial when some
    held-out fit is rank deficient.
    """
    b = _projection_matrix(projection)
    raw = _raw_sensor_matrix(batch, sensors)
    if raw.shape[1] != b.shape[0]:
        raise ValueError("projection rows must match the raw sensor dimension")
    cost, _ = _loo_cost_and_grad(*_centered(batch, raw), b)
    return cost


# ---------------------------------------------------------------------------
# projection search
# ---------------------------------------------------------------------------


def _orthonormalized(mat: np.ndarray) -> np.ndarray:
    """QR-orthonormalize columns with a deterministic sign convention."""
    if mat.shape[1] == 0:
        return mat.copy()
    q, r = np.linalg.qr(mat)
    signs = np.sign(np.diag(r))
    signs[signs == 0.0] = 1.0
    return q * signs


def _pca_init(raw: np.ndarray, target_dim: int) -> np.ndarray:
    centered = raw - raw.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    count = min(target_dim, vt.shape[0])
    init = np.zeros((raw.shape[1], target_dim))
    init[:, :count] = vt[:count].T
    # Pad degenerate cases with unit axes so columns stay independent.
    for j in range(count, target_dim):
        init[j % raw.shape[1], j] = 1.0
    return _orthonormalized(init)


# Failures that make the search reject a projection as infinitely costly.
_REJECTED = (EncodingError, EstimationError, np.linalg.LinAlgError)


def _search_cost_and_grad(flat, pols_c, y, sens_c) -> tuple[float, np.ndarray]:
    """:func:`_loo_cost_and_grad` over the flattened projection, as BFGS
    sees it; a rejected projection costs infinity."""
    try:
        cost, grad = _loo_cost_and_grad(
            pols_c, y, sens_c, flat.reshape(sens_c.shape[1], -1)
        )
    except _REJECTED:
        return np.inf, np.zeros_like(flat)
    return cost, grad.ravel()


def optimize_projection(
    batch: TrialBatch,
    config: EncodingSearchConfig,
    *,
    sensors: np.ndarray | None = None,
) -> SensorProjection:
    """Minimize the leave-one-out cost over projection entries.

    Runs a BFGS search with the analytic leave-one-out gradient from
    each restart and returns the best projection found, columns
    orthonormalized.  Ties go to the earliest restart.  With
    ``max_iterations=0`` the best initialization is returned unchanged
    (up to orthonormalization).
    """
    raw = _raw_sensor_matrix(batch, sensors)
    raw_dim = raw.shape[1]
    ds = config.target_dim
    if ds == 0:
        cost = loo_cost(batch, np.zeros((raw_dim, 0)), sensors=raw)
        return SensorProjection(np.zeros((raw_dim, 0)), cost=cost, cost_trace=(cost,))

    centered = _centered(batch, raw)
    rng = np.random.default_rng(config.seed)
    inits = [_pca_init(raw, ds)]
    while len(inits) < config.restarts:
        inits.append(_orthonormalized(rng.standard_normal((raw_dim, ds))))

    best_flat: np.ndarray | None = None
    best_cost = np.inf
    best_trace: tuple[float, ...] | None = None
    for start in inits:
        x0 = start.ravel().copy()
        try:
            c0 = loo_cost(batch, start, sensors=raw)
        except _REJECTED:
            c0 = np.inf
        if not np.isfinite(c0):
            continue
        if config.max_iterations == 0:
            final_x, final_c, trace = x0, c0, (c0,)
        else:
            trace_list = [c0]

            def record(intermediate_result) -> None:
                trace_list.append(float(intermediate_result.fun))

            result = minimize(
                _search_cost_and_grad,
                x0,
                args=centered,
                method="BFGS",
                jac=True,
                callback=record,
                options={"maxiter": config.max_iterations, "gtol": 1e-10},
            )
            final_x, final_c = result.x, float(result.fun)
            if not np.isfinite(final_c) or c0 < final_c:
                final_x, final_c = x0, c0
            trace = tuple(trace_list)
        if final_c < best_cost:
            best_flat, best_cost, best_trace = final_x, final_c, trace
    if best_flat is None:
        raise EncodingError("no valid projection found")
    best = _orthonormalized(best_flat.reshape(raw_dim, ds))
    return SensorProjection(best, cost=best_cost, cost_trace=best_trace)


def estimate_gradient_encoded(
    batch: TrialBatch,
    projection,
    *,
    sensors: np.ndarray | None = None,
) -> GradientEstimate:
    """Joint gradient estimate using projected sensors.

    Projects the raw sensors (or the supplied ``sensors`` matrix)
    through the projection and runs the joint regression.  The gradient
    depends on the projection only through its column space.
    """
    b = _projection_matrix(projection)
    raw = _raw_sensor_matrix(batch, sensors)
    if raw.shape[1] != b.shape[0]:
        raise ValueError("projection rows must match the raw sensor dimension")
    encoded_batch = batch.with_encoded(raw @ b)
    return estimate_g2(encoded_batch)
