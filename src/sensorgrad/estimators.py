"""Policy-gradient estimation from exploration batches.

Two regression estimators of the local score gradient around a nominal
policy:

- ``estimate_g1`` regresses scores on policy parameters alone.
- ``estimate_g2`` regresses scores jointly on policy parameters and
  sensor readings, soaking up the score noise the sensors explain.

Closed-form covariance laws for both estimators (the joint one with or
without policy-coupled sensors) and the coupling bias of the joint
estimator are provided alongside.  Every estimator works on one
:class:`TrialBatch`, the arrays of a batch of executed trials.

Centering conventions
---------------------
By default both estimators center policies, sensors, and scores within
the batch and carry the fitted offset separately (``center=True``).
The closed-form covariance laws, however, are exact for regression
through the origin on data that are genuinely zero mean: the policy
scatter matrix then carries all n degrees of freedom.  ``center=False``
selects that mode - the policies are regressed as given, so the caller
draws them around a zero nominal policy, and nothing is estimated for
the offset - and is what the variance-law validation harness uses.
Batch centering spends one extra degree of freedom, so its sampling
covariance runs slightly above the laws (denominator smaller by one).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linreg import RegressionError, ols

__all__ = [
    "EstimationError",
    "EncodingError",
    "PolicyDomainError",
    "TrialBatch",
    "NoiseSpec",
    "GradientEstimate",
    "estimate_g1",
    "estimate_g2",
    "predicted_variance_g1",
    "predicted_variance_g2",
    "predicted_bias_g2",
]


class EstimationError(ValueError):
    """Raised when a batch cannot support the requested estimate."""


class EncodingError(ValueError):
    """Raised when the projection search cannot proceed."""


class PolicyDomainError(ValueError):
    """Raised when a commanded policy leaves an environment's domain."""


def _as_vector(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-d array")
    return arr


def _as_square(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    return arr


def _symmetrized(a: np.ndarray) -> np.ndarray:
    gap = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    if gap > 1e-12 * scale:
        raise EstimationError("covariance prediction lost symmetry")
    return (a + a.T) / 2.0


def _spd_inverse(mat: np.ndarray, what: str) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, or raise."""
    mat = _symmetrized(np.asarray(mat, dtype=float))
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise EstimationError(what) from None
    ident = np.eye(mat.shape[0])
    inv = np.linalg.solve(chol.T, np.linalg.solve(chol, ident))
    return (inv + inv.T) / 2.0


# ---------------------------------------------------------------------------
# batch container
# ---------------------------------------------------------------------------


def _as_rows(value, name: str, n: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != n:
        raise ValueError(f"{name} must hold one row per trial")
    return arr


@dataclass(frozen=True)
class TrialBatch:
    """Executed trials as arrays, one row per trial.

    ``policies`` (n, d) holds the policies tried and ``scores`` (n,)
    what they scored.  ``raw_sensors`` (n, m) is the environment's
    native payload (may be long, e.g. sampled trajectories);
    ``encoded_sensors`` (n, k) is the low-dimensional reading handed to
    the regression estimators.  Either may be absent.  ``flagged`` (n,)
    marks failed trials (non-finite simulation state), which the search
    layer keeps out of regression batches; it defaults to all False.
    Shapes and finite scores are checked once, on construction.
    """

    policies: np.ndarray
    scores: np.ndarray
    raw_sensors: np.ndarray | None = None
    encoded_sensors: np.ndarray | None = None
    flagged: np.ndarray | None = None

    def __post_init__(self):
        scores = _as_vector(self.scores, "scores")
        n = scores.shape[0]
        if not np.isfinite(scores).all():
            raise ValueError("trial score must be finite")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "policies", _as_rows(self.policies, "policies", n))
        for name in ("raw_sensors", "encoded_sensors"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _as_rows(value, name, n))
        flagged = np.zeros(n, dtype=bool) if self.flagged is None else self.flagged
        flagged = np.asarray(flagged, dtype=bool)
        if flagged.shape != (n,):
            raise ValueError("flagged must hold one entry per trial")
        object.__setattr__(self, "flagged", flagged)

    def __len__(self) -> int:
        return self.size

    @property
    def size(self) -> int:
        return self.scores.shape[0]

    @property
    def policy_dim(self) -> int:
        return self.policies.shape[1]

    def rows(self, index) -> "TrialBatch":
        """The trials at ``index``: a slice, a boolean mask or row numbers."""

        def pick(arr):
            return None if arr is None else arr[index]

        return TrialBatch(
            self.policies[index],
            self.scores[index],
            pick(self.raw_sensors),
            pick(self.encoded_sensors),
            self.flagged[index],
        )

    def encoded(self) -> np.ndarray:
        """The encoded sensors; raises EstimationError when there are none."""
        if self.encoded_sensors is None:
            raise EstimationError("missing encoded sensors")
        return self.encoded_sensors

    def raw(self) -> np.ndarray:
        """The raw sensors; raises EstimationError when there are none."""
        if self.raw_sensors is None:
            raise EstimationError("missing raw sensors")
        return self.raw_sensors

    def with_encoded(self, encoded: np.ndarray) -> "TrialBatch":
        """Copy of the batch with its encoded sensors replaced."""
        return replace(self, encoded_sensors=encoded)


@dataclass(frozen=True)
class NoiseSpec:
    """Known noise structure of a (synthetic) score model.

    ``output_variance`` is the direct score noise variance.
    ``sensor_cov`` is the covariance of the zero-mean, policy-independent
    sensor disturbance.  ``policy_sensor_coupling`` (d x d_s) describes
    how much of the sensor reading is predictable from the policy.
    """

    output_variance: float
    sensor_cov: np.ndarray
    policy_sensor_coupling: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "output_variance", float(self.output_variance))
        if self.output_variance < 0:
            raise ValueError("output variance must be non-negative")
        cov = _as_square(self.sensor_cov, "sensor_cov")
        object.__setattr__(self, "sensor_cov", cov)
        coup = self.policy_sensor_coupling
        if coup is not None:
            coup = np.asarray(coup, dtype=float)
            if coup.ndim != 2 or coup.shape[1] != cov.shape[0]:
                raise ValueError("policy_sensor_coupling must be d x d_s")
            object.__setattr__(self, "policy_sensor_coupling", coup)

    @property
    def sensor_dim(self) -> int:
        return self.sensor_cov.shape[0]


@dataclass(frozen=True)
class GradientEstimate:
    """A gradient estimate plus regression diagnostics.

    ``sensor_coefficients`` is None for the sensor-free estimator.
    ``residual_variance`` is the sample estimate of the score noise
    variance (residual mean square on the fit's remaining degrees of
    freedom), None when no degree of freedom is left.
    """

    gradient: np.ndarray
    sensor_coefficients: np.ndarray | None
    offset: float
    residual_variance: float | None = None


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def _fit(
    batch: TrialBatch, sensors: np.ndarray | None, center: bool
) -> GradientEstimate:
    """Regress scores on policies, and on ``sensors`` when given."""
    n, d = batch.size, batch.policy_dim
    ds = 0 if sensors is None else sensors.shape[1]
    if n < d + ds + 2:
        need, what = ("d+2", "policy") if sensors is None else ("d+d_s+2", "joint")
        raise EstimationError(
            f"insufficient samples: n={n} < {need}={d + ds + 2} for the {what} "
            "regression"
        )
    design = batch.policies
    if sensors is not None:
        design = np.concatenate([design, sensors], axis=1)
    try:
        fit = ols(design, batch.scores, center=center)
    except RegressionError as exc:
        if "rank deficient" in str(exc):
            raise EstimationError("degenerate exploration") from exc
        raise
    dof = n - d - ds - 1
    rss = float(fit.residuals @ fit.residuals)
    return GradientEstimate(
        gradient=fit.coefficients[:d],
        sensor_coefficients=None if sensors is None else fit.coefficients[d:],
        offset=float(fit.mean_y - fit.column_means_x @ fit.coefficients),
        residual_variance=rss / dof if dof > 0 else None,
    )


def estimate_g1(batch: TrialBatch, *, center: bool = True) -> GradientEstimate:
    """Gradient from regressing scores on policy parameters alone.

    Requires ``n >= d + 2`` (offset plus one spare degree of freedom).
    Sensor-driven score noise stays in the residual, inflating the
    estimator's covariance accordingly.
    """
    if batch.size == 0:
        raise EstimationError("empty batch")
    return _fit(batch, None, center)


def estimate_g2(batch: TrialBatch, *, center: bool = True) -> GradientEstimate:
    """Gradient from the joint regression on policies and sensors.

    Fits scores against ``[policies, encoded sensors]``; the first d
    coefficients are the gradient estimate, the rest the sensor
    coefficients.  Requires ``n >= d + d_s + 2``.
    """
    if batch.size == 0:
        raise EstimationError("empty batch")
    return _fit(batch, batch.encoded(), center)


# ---------------------------------------------------------------------------
# covariance and bias laws
# ---------------------------------------------------------------------------


def predicted_variance_g1(
    exploration_cov: np.ndarray,
    noise: NoiseSpec,
    sensor_slope: np.ndarray | None,
    n: int,
    d: int,
) -> np.ndarray:
    """Covariance law for the sensor-free estimator.

    ``inv(S_e) * (a_s' S_s a_s + s2) / (n - d - 1)`` where ``a_s`` is
    the world's sensor slope: unexplained sensor-driven noise plus
    direct noise, divided by the scatter degrees of freedom.  Exact for
    zero-mean designs regressed through the origin (n-dof scatter).
    """
    if n <= d + 1:
        raise EstimationError(f"variance undefined: n={n} <= d+1={d + 1}")
    cov = _as_square(exploration_cov, "exploration_cov")
    inv = _spd_inverse(cov, "degenerate exploration")
    sensor_term = 0.0
    if sensor_slope is not None:
        slope = _as_vector(sensor_slope, "sensor_slope")
        if slope.shape[0] != noise.sensor_dim:
            raise ValueError("sensor_slope dimension mismatch")
        sensor_term = float(slope @ noise.sensor_cov @ slope)
    total = sensor_term + noise.output_variance
    return _symmetrized(inv * (total / (n - d - 1)))


def predicted_variance_g2(
    exploration_cov: np.ndarray,
    noise: NoiseSpec,
    n: int,
    d: int,
    d_s: int,
) -> np.ndarray:
    """Covariance law for the joint estimator.

    With independent sensors (no or zero coupling) the law is
    ``inv(S_e) * s2 / (n - d - d_s - 1)``: the sensors absorb their
    share of the score noise, at the price of d_s regression degrees of
    freedom.  With coupled sensors, ``S_es = S_e @ coupling`` and
    ``D = S_es @ inv(coupling' S_e coupling + S_s) @ S_es'``, the law
    is ``inv(S_e - D) * s2 / (n - d - d_s - 1)``: coupling shrinks the
    usable exploration scatter, inflating the covariance.  The
    uncoupled case never inverts the sensor covariance, so a singular
    one is fine there.
    """
    if n <= d + d_s + 1:
        raise EstimationError(
            f"variance undefined: n={n} <= d+d_s+1={d + d_s + 1}"
        )
    cov = _as_square(exploration_cov, "exploration_cov")
    coupling = noise.policy_sensor_coupling
    if coupling is None or not np.any(coupling != 0.0):
        inv = _spd_inverse(cov, "degenerate exploration")
    else:
        if coupling.shape != (cov.shape[0], noise.sensor_dim):
            raise ValueError("policy_sensor_coupling must be d x d_s")
        cross = cov @ coupling
        sensor_total = coupling.T @ cov @ coupling + noise.sensor_cov
        sensor_total_inv = _spd_inverse(sensor_total, "degenerate coupling")
        shrink = cross @ sensor_total_inv @ cross.T
        inv = _spd_inverse(cov - shrink, "degenerate coupling")
    return _symmetrized(inv * (noise.output_variance / (n - d - d_s - 1)))


def predicted_bias_g2(noise: NoiseSpec, sensor_slope: np.ndarray) -> np.ndarray:
    """Gradient bias of the joint estimator under policy-sensor coupling.

    Returns ``coupling @ sensor_slope`` (a d-vector).  With coupled
    sensors the joint regression's policy coefficient settles on the
    true gradient plus this term, while the sensor-free estimator stays
    unbiased; uncoupled sensors give zero bias.
    """
    slope = _as_vector(sensor_slope, "sensor_slope")
    coupling = noise.policy_sensor_coupling
    if coupling is None:
        raise ValueError(
            "noise spec carries no policy_sensor_coupling matrix; pass an "
            "explicit (possibly zero) coupling to predict the bias"
        )
    if coupling.shape[1] != slope.shape[0]:
        raise ValueError("sensor_slope dimension mismatch")
    return coupling @ slope
