"""Policy-gradient estimation from exploration batches.

Two regression estimators of the local score gradient around a nominal
policy:

- ``estimate_g1`` regresses scores on policy parameters alone.
- ``estimate_g2`` regresses scores jointly on policy parameters and
  sensor readings, soaking up the score noise the sensors explain.

Closed-form covariance predictions for both estimators, the
policy-sensor coupling bias of the joint estimator, and the coupled
covariance law are provided alongside.

Centering conventions
---------------------
By default both estimators center policies, sensors, and scores within
the batch and carry the fitted offset separately (``center=True``).
The closed-form covariance laws, however, are exact for regression
through the origin on data that are genuinely zero mean: the policy
scatter matrix then carries all n degrees of freedom.  ``center=False``
selects that mode - policies are shifted by the known nominal policy,
nothing is estimated for the offset - and is what the variance-law
validation harness uses.  Batch centering spends one extra degree of
freedom, so its sampling covariance runs slightly above the laws
(denominator smaller by one).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .linreg import RegressionError, ols

__all__ = [
    "EstimationError",
    "EncodingError",
    "PolicyDomainError",
    "TrialRecord",
    "trial_to_line",
    "trial_from_line",
    "TrialBatch",
    "NoiseSpec",
    "GradientEstimate",
    "estimate_g1",
    "estimate_g2",
    "predicted_variance_g1",
    "predicted_variance_g2",
    "predicted_bias_g2",
    "predicted_variance_g2_correlated",
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
# batch containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialRecord:
    """One executed trial: the policy tried, what was sensed, the score.

    ``raw_sensors`` is the environment's native payload (may be long,
    e.g. sampled trajectories); ``encoded_sensors`` is the
    low-dimensional vector handed to the regression estimators.  Either
    may be absent.  ``flagged`` marks failed trials (non-finite
    simulation state); the search layer keeps them out of regression
    batches.
    """

    policy: np.ndarray
    raw_sensors: np.ndarray | None
    encoded_sensors: np.ndarray | None
    score: float
    flagged: bool = False

    def __post_init__(self):
        object.__setattr__(self, "policy", _as_vector(self.policy, "policy"))
        for name in ("raw_sensors", "encoded_sensors"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _as_vector(value, name))
        object.__setattr__(self, "score", float(self.score))
        if not np.isfinite(self.score):
            raise ValueError("trial score must be finite")


def trial_to_line(record: TrialRecord) -> str:
    """Serialize one trial as a single JSON line.

    The object has the fixed key order ``policy``, ``raw_sensors``,
    ``encoded_sensors``, ``score``, ``flagged``; absent sensor payloads
    are ``null``.  Floats round-trip exactly through
    :func:`trial_from_line`.
    """
    payload = {
        "policy": record.policy.tolist(),
        "raw_sensors": None
        if record.raw_sensors is None
        else record.raw_sensors.tolist(),
        "encoded_sensors": None
        if record.encoded_sensors is None
        else record.encoded_sensors.tolist(),
        "score": record.score,
        "flagged": record.flagged,
    }
    return json.dumps(payload, separators=(", ", ": "))


def trial_from_line(line: str) -> TrialRecord:
    """Parse a line written by :func:`trial_to_line`."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"unparseable trial line: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError("trial line must hold a JSON object")
    missing = {"policy", "raw_sensors", "encoded_sensors", "score", "flagged"} - set(
        payload
    )
    if missing:
        raise ValueError(f"trial line missing field '{sorted(missing)[0]}'")
    return TrialRecord(
        policy=np.array(payload["policy"], dtype=float),
        raw_sensors=None
        if payload["raw_sensors"] is None
        else np.array(payload["raw_sensors"], dtype=float),
        encoded_sensors=None
        if payload["encoded_sensors"] is None
        else np.array(payload["encoded_sensors"], dtype=float),
        score=payload["score"],
        flagged=bool(payload["flagged"]),
    )


@dataclass(frozen=True)
class TrialBatch:
    """Trials gathered around one nominal policy.

    All trials must share the policy dimension and (where present) the
    sensor dimensions; the exploration covariance must be symmetric
    positive definite.
    """

    nominal_policy: np.ndarray
    exploration_cov: np.ndarray
    trials: tuple[TrialRecord, ...]

    def __post_init__(self):
        nominal = _as_vector(self.nominal_policy, "nominal_policy")
        cov = _as_square(self.exploration_cov, "exploration_cov")
        object.__setattr__(self, "nominal_policy", nominal)
        object.__setattr__(self, "exploration_cov", cov)
        object.__setattr__(self, "trials", tuple(self.trials))
        d = nominal.shape[0]
        if cov.shape != (d, d):
            raise ValueError("exploration_cov shape does not match policy")
        if np.max(np.abs(cov - cov.T)) > 1e-9 * max(1.0, np.max(np.abs(cov))):
            raise ValueError("exploration covariance must be symmetric")
        if self.trials and np.linalg.eigvalsh(cov)[0] <= 0.0:
            raise ValueError("exploration covariance must be positive definite")
        enc_dim = None
        raw_dim = None
        for t in self.trials:
            if t.policy.shape[0] != d:
                raise ValueError("trial policy dimension mismatch")
            if t.encoded_sensors is not None:
                if enc_dim is None:
                    enc_dim = t.encoded_sensors.shape[0]
                elif t.encoded_sensors.shape[0] != enc_dim:
                    raise ValueError("trial sensor dimension mismatch")
            if t.raw_sensors is not None:
                if raw_dim is None:
                    raw_dim = t.raw_sensors.shape[0]
                elif t.raw_sensors.shape[0] != raw_dim:
                    raise ValueError("trial sensor dimension mismatch")

    @property
    def size(self) -> int:
        return len(self.trials)

    @property
    def policy_dim(self) -> int:
        return self.nominal_policy.shape[0]

    def policies(self) -> np.ndarray:
        if not self.trials:
            raise EstimationError("empty batch")
        return np.stack([t.policy for t in self.trials])

    def scores(self) -> np.ndarray:
        if not self.trials:
            raise EstimationError("empty batch")
        return np.array([t.score for t in self.trials])

    def encoded(self) -> np.ndarray:
        if not self.trials:
            raise EstimationError("empty batch")
        if any(t.encoded_sensors is None for t in self.trials):
            raise EstimationError("missing encoded sensors")
        return np.stack([t.encoded_sensors for t in self.trials])

    def raw(self) -> np.ndarray:
        if not self.trials:
            raise EstimationError("empty batch")
        if any(t.raw_sensors is None for t in self.trials):
            raise EstimationError("missing raw sensors")
        return np.stack([t.raw_sensors for t in self.trials])

    def with_encoded(self, encoded: np.ndarray) -> "TrialBatch":
        """Copy of the batch with per-trial encoded sensors replaced."""
        encoded = np.asarray(encoded, dtype=float)
        if encoded.shape[0] != self.size:
            raise ValueError("length mismatch between batch and sensor rows")
        new_trials = tuple(
            replace(t, encoded_sensors=encoded[i]) for i, t in enumerate(self.trials)
        )
        return replace(self, trials=new_trials)


@dataclass(frozen=True)
class NoiseSpec:
    """Known noise structure of a (synthetic) score model.

    ``output_variance`` is the direct score noise variance.
    ``sensor_cov``/``sensor_mean`` describe the policy-independent
    sensor disturbance.  ``policy_sensor_coupling`` (d x d_s) and
    ``coupling_offset`` describe how much of the sensor reading is
    predictable from the policy.
    """

    output_variance: float
    sensor_cov: np.ndarray
    sensor_mean: np.ndarray | None = None
    policy_sensor_coupling: np.ndarray | None = None
    coupling_offset: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "output_variance", float(self.output_variance))
        if self.output_variance < 0:
            raise ValueError("output variance must be non-negative")
        cov = _as_square(self.sensor_cov, "sensor_cov")
        object.__setattr__(self, "sensor_cov", cov)
        ds = cov.shape[0]
        mean = self.sensor_mean
        mean = np.zeros(ds) if mean is None else _as_vector(mean, "sensor_mean")
        if mean.shape[0] != ds:
            raise ValueError("sensor_mean dimension mismatch")
        object.__setattr__(self, "sensor_mean", mean)
        coup = self.policy_sensor_coupling
        if coup is not None:
            coup = np.asarray(coup, dtype=float)
            if coup.ndim != 2 or coup.shape[1] != ds:
                raise ValueError("policy_sensor_coupling must be d x d_s")
            object.__setattr__(self, "policy_sensor_coupling", coup)
        off = self.coupling_offset
        off = np.zeros(ds) if off is None else _as_vector(off, "coupling_offset")
        if off.shape[0] != ds:
            raise ValueError("coupling_offset dimension mismatch")
        object.__setattr__(self, "coupling_offset", off)

    @property
    def sensor_dim(self) -> int:
        return self.sensor_cov.shape[0]


@dataclass(frozen=True)
class GradientEstimate:
    """A gradient estimate plus regression diagnostics.

    ``sensor_coefficients`` is None for the sensor-free estimator.
    ``predicted_variance`` is attached only when a :class:`NoiseSpec`
    was supplied; during real runs the noise structure is unknown and
    the field stays None.  ``residual_variance`` is the sample fallback
    for the score noise variance (residual mean square on the fit's
    remaining degrees of freedom), None when no degree of freedom is
    left.
    """

    gradient: np.ndarray
    sensor_coefficients: np.ndarray | None
    offset: float
    predicted_variance: np.ndarray | None = None
    residual_variance: float | None = None


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def _centered_inputs(batch: TrialBatch, center: bool) -> tuple[np.ndarray, np.ndarray]:
    pols = batch.policies()
    scores = batch.scores()
    if not center:
        pols = pols - batch.nominal_policy
    return pols, scores


def estimate_g1(
    batch: TrialBatch,
    *,
    noise: NoiseSpec | None = None,
    sensor_slope: np.ndarray | None = None,
    center: bool = True,
) -> GradientEstimate:
    """Gradient from regressing scores on policy parameters alone.

    Requires ``n >= d + 2`` (offset plus one spare degree of freedom).
    Sensor-driven score noise stays in the residual, inflating the
    estimator's covariance accordingly.  When ``noise`` (and, if the
    world has sensor-linked noise, ``sensor_slope``) is given, the
    closed-form covariance prediction is attached.
    """
    n, d = batch.size, batch.policy_dim
    if n == 0:
        raise EstimationError("empty batch")
    if n < d + 2:
        raise EstimationError(
            f"insufficient samples: n={n} < d+2={d + 2} for the policy regression"
        )
    pols, scores = _centered_inputs(batch, center)
    try:
        fit = ols(pols, scores, center=center)
    except RegressionError as exc:
        if "rank deficient" in str(exc):
            raise EstimationError("degenerate exploration") from exc
        raise
    dof = n - d - 1
    rss = float(fit.residuals @ fit.residuals)
    residual_variance = rss / dof if dof > 0 else None
    predicted = None
    if noise is not None:
        predicted = predicted_variance_g1(
            batch.exploration_cov, noise, sensor_slope, n, d
        )
    offset = float(fit.mean_y - fit.column_means_x @ fit.coefficients)
    return GradientEstimate(
        gradient=fit.coefficients,
        sensor_coefficients=None,
        offset=offset,
        predicted_variance=predicted,
        residual_variance=residual_variance,
    )


def estimate_g2(
    batch: TrialBatch,
    *,
    noise: NoiseSpec | None = None,
    center: bool = True,
) -> GradientEstimate:
    """Gradient from the joint regression on policies and sensors.

    Fits scores against ``[policies, encoded sensors]``; the first d
    coefficients are the gradient estimate, the rest the sensor
    coefficients.  Requires ``n >= d + d_s + 2``.  When a
    :class:`NoiseSpec` is supplied, the covariance prediction is
    attached (the coupled law when the spec carries a nonzero
    policy-sensor coupling).
    """
    n, d = batch.size, batch.policy_dim
    if n == 0:
        raise EstimationError("empty batch")
    sensors = batch.encoded()
    ds = sensors.shape[1]
    if n < d + ds + 2:
        raise EstimationError(
            f"insufficient samples: n={n} < d+d_s+2={d + ds + 2} for the joint "
            "regression"
        )
    pols, scores = _centered_inputs(batch, center)
    design = np.concatenate([pols, sensors], axis=1)
    try:
        fit = ols(design, scores, center=center)
    except RegressionError as exc:
        if "rank deficient" in str(exc):
            raise EstimationError("degenerate exploration") from exc
        raise
    dof = n - d - ds - 1
    rss = float(fit.residuals @ fit.residuals)
    residual_variance = rss / dof if dof > 0 else None
    predicted = None
    if noise is not None:
        coupling = noise.policy_sensor_coupling
        if coupling is not None and np.any(coupling != 0.0):
            predicted = predicted_variance_g2_correlated(
                batch.exploration_cov, noise, n, d, ds
            )
        else:
            predicted = predicted_variance_g2(
                batch.exploration_cov, noise.output_variance, n, d, ds
            )
    offset = float(fit.mean_y - fit.column_means_x @ fit.coefficients)
    return GradientEstimate(
        gradient=fit.coefficients[:d],
        sensor_coefficients=fit.coefficients[d:],
        offset=offset,
        predicted_variance=predicted,
        residual_variance=residual_variance,
    )


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
    output_variance: float,
    n: int,
    d: int,
    d_s: int,
) -> np.ndarray:
    """Covariance law for the joint estimator with independent sensors.

    ``inv(S_e) * s2 / (n - d - d_s - 1)``: the sensors absorb their
    share of the score noise, at the price of d_s regression degrees of
    freedom.
    """
    if n <= d + d_s + 1:
        raise EstimationError(
            f"variance undefined: n={n} <= d+d_s+1={d + d_s + 1}"
        )
    cov = _as_square(exploration_cov, "exploration_cov")
    inv = _spd_inverse(cov, "degenerate exploration")
    if output_variance < 0:
        raise ValueError("output variance must be non-negative")
    return _symmetrized(inv * (float(output_variance) / (n - d - d_s - 1)))


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


def predicted_variance_g2_correlated(
    exploration_cov: np.ndarray,
    noise: NoiseSpec,
    n: int,
    d: int,
    d_s: int,
) -> np.ndarray:
    """Covariance law for the joint estimator with coupled sensors.

    With ``S_es = S_e @ coupling`` and
    ``D = S_es @ inv(coupling' S_e coupling + S_s) @ S_es'`` the law is
    ``inv(S_e - D) * s2 / (n - d - d_s - 1)``: coupling shrinks the
    usable exploration scatter, inflating the covariance.  Reduces to
    the independent-sensor law when the coupling is zero.
    """
    if n <= d + d_s + 1:
        raise EstimationError(
            f"variance undefined: n={n} <= d+d_s+1={d + d_s + 1}"
        )
    cov = _as_square(exploration_cov, "exploration_cov")
    coupling = noise.policy_sensor_coupling
    if coupling is None:
        coupling = np.zeros((cov.shape[0], noise.sensor_dim))
    if coupling.shape != (cov.shape[0], noise.sensor_dim):
        raise ValueError("policy_sensor_coupling must be d x d_s")
    cross = cov @ coupling
    sensor_total = coupling.T @ cov @ coupling + noise.sensor_cov
    sensor_total_inv = _spd_inverse(sensor_total, "degenerate coupling")
    shrink = cross @ sensor_total_inv @ cross.T
    effective = cov - shrink
    inv = _spd_inverse(effective, "degenerate coupling")
    return _symmetrized(inv * (noise.output_variance / (n - d - d_s - 1)))
