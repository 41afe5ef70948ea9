"""Policy-gradient estimation from exploration batches.

Two regression estimators of the local score gradient around a nominal
policy:

- ``estimate_g1`` regresses scores on policy parameters alone.
- ``estimate_g2`` regresses scores jointly on policy parameters and
  sensor readings, soaking up the score noise the sensors explain.

Closed-form covariance laws for both estimators (the joint one with or
without policy-coupled sensors) and the coupling bias of the joint
estimator are provided alongside; they read the score model, its
dimensions included, from a :class:`~sensorgrad.envs.synthetic.SyntheticWorld`
and return matrices symmetric bit for bit.  Every estimator works on one
:class:`TrialBatch`, the arrays of a batch (or a stack) of trials.

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

from dataclasses import dataclass

import numpy as np

from .linreg import RegressionError, ols

__all__ = [
    "EstimationError",
    "EncodingError",
    "TrialBatch",
    "GradientEstimate",
    "check_score_sum",
    "estimate_g1",
    "estimate_g2",
    "predicted_variance_g1",
    "predicted_variance_g2",
    "predicted_bias_g2",
]


class EstimationError(ValueError):
    """Raised when a batch cannot support the requested estimate."""


class EncodingError(EstimationError):
    """Raised when the projection search cannot proceed."""


def _spd_inverse(mat: np.ndarray, what: str) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix, or raise."""
    mat = np.asarray(mat, dtype=float)
    mat = (mat + mat.T) / 2.0
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


def _as_rows(value, name: str, lead: tuple) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape[:-1] != lead:
        raise ValueError(f"{name} must hold one row per trial")
    return arr


@dataclass(frozen=True)
class TrialBatch:
    """Executed trials as arrays, one row per trial.

    ``policies`` (n, d) holds the policies tried and ``scores`` (n,)
    what they scored.  ``sensors`` (n, m) is the batch's one sensor
    reading, (n, 0) without sensors: an environment fills it with its
    payload (may be long, e.g. sampled trajectories), and a stage that
    re-encodes it returns a copy with the field replaced.  ``flagged``
    (n,) marks the trials that cannot be scored, which the search layer
    drops and the estimators refuse: the rows the environment flags
    (default none), or'ed on construction with every row whose score or
    sensors are not finite.  Only shapes are checked, once, on construction.
    A stack of r batches leads every field with a replication axis
    (policies (r, n, d), scores (r, n), ...), fitted in one call; ``size``
    and :meth:`rows` count and pick trials within each replication.
    """

    policies: np.ndarray
    scores: np.ndarray
    sensors: np.ndarray
    flagged: np.ndarray | None = None

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=float)
        if scores.ndim not in (1, 2):
            raise ValueError("scores must be (n,), or (r, n) for a stack")
        lead = scores.shape
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "policies", _as_rows(self.policies, "policies", lead))
        object.__setattr__(self, "sensors", _as_rows(self.sensors, "sensors", lead))
        flagged = np.zeros(lead, dtype=bool) if self.flagged is None else self.flagged
        flagged = np.asarray(flagged, dtype=bool)
        if flagged.shape != lead:
            raise ValueError("flagged must hold one entry per trial")
        unscored = ~(np.isfinite(scores) & np.isfinite(self.sensors).all(axis=-1))
        object.__setattr__(self, "flagged", flagged | unscored)

    def __len__(self) -> int:
        return self.size

    @property
    def size(self) -> int:
        return self.scores.shape[-1]

    @property
    def policy_dim(self) -> int:
        return self.policies.shape[-1]

    def rows(self, index) -> "TrialBatch":
        """The trials at ``index``: a slice, a boolean mask or row numbers.

        The rows were checked when this batch was built, so the slices
        are not checked again.
        """
        picked = object.__new__(TrialBatch)
        at = (slice(None),) * (self.scores.ndim - 1) + (index,)
        for name in ("policies", "scores", "sensors", "flagged"):
            object.__setattr__(picked, name, getattr(self, name)[at])
        return picked


@dataclass(frozen=True)
class GradientEstimate:
    """A gradient estimate plus regression diagnostics.

    ``sensor_coefficients`` is None for the sensor-free estimator.
    ``residual_variance`` is the sample estimate of the score noise
    variance (residual mean square on the fit's remaining degrees of
    freedom), None when no degree of freedom is left.  From a stacked
    batch every field keeps the leading replication axis.
    """

    gradient: np.ndarray
    sensor_coefficients: np.ndarray | None
    offset: float | np.ndarray
    residual_variance: float | np.ndarray | None = None


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def check_score_sum(scores: np.ndarray) -> None:
    """Raise EstimationError when the scores' sum of squares (last axis)
    overflows: it bounds every residual sum of squares, and their sum,
    which the message names when that overflows too."""
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite((scores * scores).sum(axis=-1)).all():
            what = "sum" if not np.isfinite(scores.sum(axis=-1)).all() else "sum of squares"
            raise EstimationError(f"scores too large to regress: their {what} overflows")


def _fit(batch: TrialBatch, joint: bool, center: bool) -> GradientEstimate:
    """Regress scores on policies, and on the sensors when ``joint``."""
    design = batch.policies
    if joint:
        design = np.concatenate([design, batch.sensors], axis=-1)
    n, p = design.shape[-2:]
    if n < p + 2:
        need, what = ("d+d_s+2", "joint") if joint else ("d+2", "policy")
        raise EstimationError(
            f"insufficient samples: n={n} < {need}={p + 2} for the {what} "
            "regression"
        )
    if batch.flagged.any():
        raise EstimationError("a flagged trial cannot be regressed")
    check_score_sum(batch.scores)
    try:
        coef, offset, rss = ols(design, batch.scores, center=center)
    except RegressionError as exc:
        raise EstimationError("degenerate exploration") from exc
    dof, d = n - p - 1, batch.policy_dim
    return GradientEstimate(
        gradient=coef[..., :d],
        sensor_coefficients=coef[..., d:] if joint else None,
        offset=offset,
        residual_variance=rss / dof if dof > 0 else None,
    )


def estimate_g1(batch: TrialBatch, *, center: bool = True) -> GradientEstimate:
    """Gradient from regressing scores on policy parameters alone.

    Requires ``n >= d + 2`` (offset plus one spare degree of freedom).
    Sensor-driven score noise stays in the residual, inflating the
    estimator's covariance accordingly.
    """
    return _fit(batch, False, center)


def estimate_g2(batch: TrialBatch, *, center: bool = True) -> GradientEstimate:
    """Gradient from the joint regression on policies and sensors.

    Fits scores against ``[policies, sensors]``; the first d
    coefficients are the gradient estimate, the rest the sensor
    coefficients.  Requires ``n >= d + d_s + 2``.
    """
    return _fit(batch, True, center)


# ---------------------------------------------------------------------------
# covariance and bias laws
# ---------------------------------------------------------------------------


def predicted_variance_g1(world, exploration_cov: np.ndarray, n: int) -> np.ndarray:
    """Covariance law for the sensor-free estimator.

    ``inv(S_e) * (a_s' S_s a_s + s2) / (n - d - 1)`` where ``a_s`` is
    the world's sensor slope: unexplained sensor-driven noise plus
    direct noise, divided by the scatter degrees of freedom.  Exact for
    zero-mean designs regressed through the origin (n-dof scatter).  The
    caller guarantees n >= d + 2, as ``variance.trials_per_batch`` is read.
    """
    d = world.policy_dim
    inv = _spd_inverse(exploration_cov, "degenerate exploration")
    slope = world.sensor_slope
    total = float(slope @ world.sensor_cov @ slope) + world.output_variance
    return inv * (total / (n - d - 1))


def predicted_variance_g2(world, exploration_cov: np.ndarray, n: int) -> np.ndarray:
    """Covariance law for the joint estimator.

    With ``S_es = S_e @ coupling`` and ``D = S_es @ inv(coupling' S_e
    coupling + S_s) @ S_es'``, the law is ``inv(S_e - D) * s2 / (n - d -
    d_s - 1)``: the sensors absorb their share of the score noise, at the
    price of d_s regression degrees of freedom, and coupling shrinks the
    usable exploration scatter, inflating the covariance.  With
    independent sensors (a zero coupling) ``D`` is zero and the law is
    ``inv(S_e) * s2 / (n - d - d_s - 1)``.  ``S_s`` is positive definite,
    as its config key is read, so a zero coupling inverts it safely.  The
    caller guarantees n >= d + d_s + 2, as ``variance.trials_per_batch``
    is read.
    """
    d, d_s = world.policy_dim, world.sensor_dim
    coupling = world.policy_sensor_coupling
    cross = exploration_cov @ coupling
    sensor_total = coupling.T @ exploration_cov @ coupling + world.sensor_cov
    shrink = cross @ _spd_inverse(sensor_total, "degenerate coupling") @ cross.T
    inv = _spd_inverse(exploration_cov - shrink, "degenerate coupling")
    return inv * (world.output_variance / (n - d - d_s - 1))


def predicted_bias_g2(world) -> np.ndarray:
    """Gradient bias of the joint estimator under policy-sensor coupling.

    Returns ``coupling @ sensor_slope`` (a d-vector).  With coupled
    sensors the joint regression's policy coefficient settles on the
    true gradient plus this term, while the sensor-free estimator stays
    unbiased; uncoupled sensors give zero bias.
    """
    return world.policy_sensor_coupling @ world.sensor_slope
