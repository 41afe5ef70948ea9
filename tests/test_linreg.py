import numpy as np
import pytest

from sensorgrad.linreg import (
    RegressionError,
    center_columns,
    ols,
    quad_feature_count,
    quad_features,
)
from sensorgrad.seeding import substream


def test_center_columns_removes_means():
    rng = substream(1)
    x = rng.normal(size=(30, 4)) + np.array([5.0, -3.0, 0.0, 2.0])
    centered, means = center_columns(x)
    assert np.allclose(centered.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(x - means, centered)


def test_ols_recovers_affine_model_exactly():
    rng = substream(2)
    x = rng.normal(size=(20, 3))
    coef = np.array([1.5, -2.0, 0.25])
    y = x @ coef + 4.0
    fit = ols(x, y)
    assert np.allclose(fit.coefficients, coef, atol=1e-10)
    assert np.allclose(fit.predict(x), y, atol=1e-10)
    assert np.allclose(fit.residuals, 0.0, atol=1e-10)


def test_ols_residuals_orthogonal_to_centered_design():
    rng = substream(3)
    x = rng.normal(size=(40, 3))
    y = x @ np.array([1.0, 0.5, -1.0]) + rng.normal(size=40)
    fit = ols(x, y)
    centered, _ = center_columns(x)
    assert np.allclose(centered.T @ fit.residuals, 0.0, atol=1e-9)


def test_ols_uncentered_fits_through_the_origin():
    rng = substream(4)
    x = rng.normal(size=(15, 2))
    coef = np.array([2.0, -1.0])
    fit = ols(x, x @ coef, center=False)
    assert np.allclose(fit.coefficients, coef, atol=1e-10)
    assert fit.mean_y == 0.0
    assert np.array_equal(fit.column_means_x, np.zeros(2))


def test_ols_centered_and_uncentered_agree_on_centered_data():
    rng = substream(5)
    x = rng.normal(size=(25, 3))
    x = x - x.mean(axis=0)
    y = x @ np.array([0.3, -0.8, 1.1]) + rng.normal(size=25)
    y = y - y.mean()
    a = ols(x, y)
    b = ols(x, y, center=False)
    assert np.allclose(a.coefficients, b.coefficients, atol=1e-10)


def test_ols_error_messages():
    x = np.zeros((0, 2))
    with pytest.raises(RegressionError, match="empty batch"):
        ols(x, np.zeros(0))
    with pytest.raises(RegressionError, match="length mismatch"):
        ols(np.zeros((4, 2)), np.zeros(5))
    with pytest.raises(RegressionError, match="insufficient samples"):
        ols(np.zeros((2, 2)), np.zeros(2))
    rng = substream(6)
    base = rng.normal(size=(10, 1))
    dup = np.concatenate([base, base], axis=1)
    with pytest.raises(RegressionError, match="rank deficient design"):
        ols(dup, rng.normal(size=10))


def test_ols_zero_width_design():
    y = np.array([1.0, 3.0, 5.0])
    fit = ols(np.zeros((3, 0)), y)
    assert fit.mean_y == pytest.approx(3.0)
    assert np.allclose(fit.residuals, y - 3.0)


def test_quad_feature_count_matches_features():
    for k in (1, 2, 3, 6):
        x = substream(7, k).normal(size=k)
        assert quad_features(x).shape == (quad_feature_count(k),)


def test_quad_features_span_quadratic_functions():
    # a full quadratic is linear in the features, so the fit is exact
    rng = substream(8)
    k = 3
    states = rng.normal(size=(40, k))
    quad = rng.normal(size=(k, k))
    lin = rng.normal(size=k)
    target = (
        np.einsum("bi,ij,bj->b", states, quad, states) + states @ lin + 2.5
    )
    phi = quad_features(states)
    coef = np.linalg.lstsq(phi, target, rcond=None)[0]
    probe = rng.normal(size=(15, k))
    predicted = quad_features(probe) @ coef
    truth = np.einsum("bi,ij,bj->b", probe, quad, probe) + probe @ lin + 2.5
    assert np.allclose(predicted, truth, atol=1e-8)


def test_quad_features_broadcast_over_batches():
    rng = substream(9)
    states = rng.normal(size=(5, 4))
    stacked = quad_features(states)
    rows = np.stack([quad_features(s) for s in states])
    assert np.array_equal(stacked, rows)

