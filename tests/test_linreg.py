import numpy as np
import pytest

from sensorgrad.linreg import (
    RANK_RATIO_LIMIT,
    RegressionError,
    ols,
    quad_feature_count,
    quad_features,
    rank_deficient,
)
from sensorgrad.seeding import substream


def test_ols_recovers_affine_model_exactly():
    rng = substream(2)
    x = rng.normal(size=(20, 3))
    coef = np.array([1.5, -2.0, 0.25])
    fitted, offset, rss = ols(x, x @ coef + 4.0)
    assert np.allclose(fitted, coef, atol=1e-10)
    assert offset == pytest.approx(4.0, abs=1e-10)
    assert rss == pytest.approx(0.0, abs=1e-18)


def test_ols_residuals_orthogonal_to_centered_design():
    rng = substream(3)
    x = rng.normal(size=(40, 3))
    y = x @ np.array([1.0, 0.5, -1.0]) + rng.normal(size=40)
    coef, offset, rss = ols(x, y)
    residuals = y - x @ coef - offset
    assert np.allclose((x - x.mean(axis=0)).T @ residuals, 0.0, atol=1e-9)
    assert abs(residuals.sum()) <= 1e-9
    assert rss == pytest.approx(residuals @ residuals, rel=1e-12)


def test_ols_uncentered_fits_through_the_origin():
    rng = substream(4)
    x = rng.normal(size=(15, 2))
    coef = np.array([2.0, -1.0])
    fitted, offset, _ = ols(x, x @ coef + 3.0, center=False)
    assert offset == 0.0
    reference = np.linalg.lstsq(x, x @ coef + 3.0, rcond=None)[0]
    assert np.allclose(fitted, reference, atol=1e-12)
    fitted, _, rss = ols(x, x @ coef, center=False)
    assert np.allclose(fitted, coef, atol=1e-10)
    assert rss == pytest.approx(0.0, abs=1e-18)


def test_ols_centered_and_uncentered_agree_on_centered_data():
    rng = substream(5)
    x = rng.normal(size=(25, 3))
    x = x - x.mean(axis=0)
    y = x @ np.array([0.3, -0.8, 1.1]) + rng.normal(size=25)
    y = y - y.mean()
    a, a_offset, a_rss = ols(x, y)
    b, b_offset, b_rss = ols(x, y, center=False)
    assert np.allclose(a, b, atol=1e-10)
    assert a_offset == pytest.approx(b_offset, abs=1e-12)
    assert a_rss == pytest.approx(b_rss, rel=1e-10)


def test_ols_error_messages():
    rng = substream(6)
    base = rng.normal(size=(10, 1))
    y = rng.normal(size=10)
    duplicated = np.concatenate([base, base], axis=1)
    zero_column = np.concatenate([base, np.zeros((10, 1))], axis=1)
    for x in (duplicated, zero_column):
        for center in (True, False):
            with pytest.raises(RegressionError, match="rank deficient design"):
                ols(x, y, center=center)


def test_ols_zero_width_design():
    y = np.array([1.0, 3.0, 5.0])
    coef, offset, rss = ols(np.zeros((3, 0)), y)
    assert coef.shape == (0,)
    assert offset == 3.0
    assert rss == 8.0
    coef, offset, rss = ols(np.zeros((3, 0)), y, center=False)
    assert (coef.shape, offset, rss) == ((0,), 0.0, 35.0)


@pytest.mark.parametrize(
    "svals, deficient",
    [
        ([2.0, 1.0], False),
        ([RANK_RATIO_LIMIT, 1.0], False),
        ([RANK_RATIO_LIMIT * 1.01, 1.0], True),
        ([1.0, 0.0], True),
        ([0.0, 0.0], True),
        ([1.0, np.nan], False),
        ([np.nan, 1.0], False),
    ],
)
def test_rank_rule(svals, deficient):
    assert bool(rank_deficient(np.array(svals))) is deficient


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

