import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sensorgrad.estimators import EstimationError, TrialBatch, estimate_g1, estimate_g2
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


RANK_CASES = [
    ([2.0, 1.0], False),
    ([RANK_RATIO_LIMIT, 1.0], False),
    ([RANK_RATIO_LIMIT * 1.01, 1.0], True),
    ([1.0, 0.0], True),
    ([0.0, 0.0], True),
    ([1.0, np.nan], False),
    ([np.nan, 1.0], False),
]


@pytest.mark.parametrize("svals, deficient", RANK_CASES)
def test_rank_rule(svals, deficient):
    assert bool(rank_deficient(np.array(svals))) is deficient


def test_rank_rule_on_a_stack_of_singular_values():
    svals = np.array([case for case, _ in RANK_CASES])
    expected = np.array([deficient for _, deficient in RANK_CASES])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flags = rank_deficient(svals)
        assert np.array_equal(rank_deficient(svals.reshape(7, 1, 2)), flags[:, None])
    assert flags.dtype == bool and np.array_equal(flags, expected)


@st.composite
def design_stacks(draw):
    """A stack of r random designs (r, n, p) with scores (r, n), n <= 14."""
    r = draw(st.integers(1, 6))
    p = draw(st.integers(0, 5))
    n = draw(st.integers(p + 2, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shift = rng.normal(scale=3.0, size=p + 1)
    x = rng.normal(size=(r, n, p)) + shift[:p]
    y = rng.normal(size=(r, n)) + shift[p]
    return x, y


def well_conditioned(x, center):
    """Whether every design of a stack, as the fit sees it, has a
    condition number below 1e6 (zero-width designs always do)."""
    if center:
        x = x - x.mean(axis=-2, keepdims=True)
    return x.shape[-1] == 0 or bool((np.linalg.cond(x) < 1e6).all())


def _reference_fit(x, y, center):
    """One design through ``np.linalg.lstsq``, with a column of ones
    standing in for the offset when centered."""
    n, p = x.shape
    design = np.concatenate([x, np.ones((n, 1))], axis=1) if center else x
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    residuals = y - design @ coef
    return coef[:p], coef[p] if center else 0.0, residuals @ residuals


@settings(max_examples=150, deadline=None)
@given(design_stacks(), st.booleans())
def test_stacked_ols_matches_lstsq_on_every_element(stack, center):
    x, y = stack
    assume(well_conditioned(x, center))
    coef, offset, rss = ols(x, y, center=center)
    r, _, p = x.shape
    assert (coef.shape, offset.shape, rss.shape) == ((r, p), (r,), (r,))
    for i in range(r):
        want_coef, want_offset, want_rss = _reference_fit(x[i], y[i], center)
        assert np.allclose(coef[i], want_coef, rtol=1e-10, atol=1e-10)
        assert offset[i] == pytest.approx(want_offset, rel=1e-10, abs=1e-10)
        assert rss[i] == pytest.approx(want_rss, rel=1e-10, abs=1e-10)


@settings(max_examples=150, deadline=None)
@given(design_stacks(), st.booleans())
def test_stacked_ols_does_not_depend_on_the_stack(stack, center):
    x, y = stack
    assume(well_conditioned(x, center))
    stacked = ols(x, y, center=center)
    for i in range(x.shape[0]):
        # Alone: a stack of one, and the same design as a 2-D array.
        for alone in (x[i : i + 1], y[i : i + 1]), (x[i], y[i]):
            for got, want in zip(ols(*alone, center=center), stacked):
                assert np.array_equal(np.reshape(got, want[i].shape), want[i])


@settings(max_examples=60, deadline=None)
@given(design_stacks(), st.booleans(), st.data())
def test_one_rank_deficient_element_fails_the_stack(stack, center, data):
    x, y = stack
    assume(x.shape[2] >= 2)
    bad = data.draw(st.integers(0, x.shape[0] - 1))
    x = x.copy()
    x[bad, :, 1] = x[bad, :, 0]
    with pytest.raises(RegressionError, match="rank deficient design"):
        ols(x, y, center=center)
    # Through the estimators: the duplicated column is a policy column.
    batch = TrialBatch(x, y, np.ones((*y.shape, 0)))
    for estimate in (estimate_g1, estimate_g2):
        with pytest.raises(EstimationError, match="degenerate exploration"):
            estimate(batch, center=center)


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

