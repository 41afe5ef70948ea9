from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sensorgrad.encoding import (
    EncodingSearchConfig,
    _centered,
    _loo_cost_and_grad,
    _pca_init,
    _search_cost_and_grad,
    estimate_gradient_encoded,
    loo_cost,
    minimize,
    optimize_projection,
)
from sensorgrad.estimators import (
    EncodingError,
    EstimationError,
    TrialBatch,
    estimate_g2,
)
from sensorgrad.linreg import ols
from sensorgrad.seeding import substream

POLICY_GRADIENT = np.array([1.0, -0.5])


def planted_batch(seed, n=50, raw_dim=10, signal=2.0, noise_std=0.1):
    """Scores follow one hidden direction through the raw sensors."""
    rng = substream(seed)
    direction = rng.normal(size=raw_dim)
    direction /= np.linalg.norm(direction)
    policies = rng.normal(size=(n, 2))
    raw = rng.normal(size=(n, raw_dim))
    scores = (
        policies @ POLICY_GRADIENT
        + signal * (raw @ direction)
        + noise_std * rng.normal(size=n)
    )
    return TrialBatch(policies, scores, raw), direction


def brute_force_loo(batch, matrix):
    """Delete one row, refit, and score its held-out prediction."""
    pols = batch.policies
    scores = batch.scores
    design = np.concatenate([pols, batch.sensors @ matrix], axis=1)
    total = 0.0
    for i in range(design.shape[0]):
        keep = np.arange(design.shape[0]) != i
        coef, offset, _ = ols(design[keep], scores[keep])
        total += float((scores[i] - design[i] @ coef - offset) ** 2)
    return total


def random_batch(seed, n, d, raw_dim):
    """Scores depend on every policy and raw sensor coordinate."""
    rng = np.random.default_rng(seed)
    policies = rng.normal(size=(n, d))
    raw = rng.normal(size=(n, raw_dim))
    scores = policies @ rng.normal(size=d) + raw @ rng.normal(size=raw_dim)
    scores = scores + rng.normal(size=n)
    return TrialBatch(policies, scores, raw)


def central_difference(fun, b, step=1e-6):
    """Reference gradient of a scalar function of a matrix."""
    grad = np.empty_like(b)
    for idx in np.ndindex(b.shape):
        shift = np.zeros_like(b)
        shift[idx] = step
        grad[idx] = (fun(b + shift) - fun(b - shift)) / (2.0 * step)
    return grad


@st.composite
def loo_problems(draw):
    """(batch, projection) with n at or above the leave-one-out minimum."""
    d = draw(st.integers(1, 4))
    raw_dim = draw(st.integers(1, 8))
    target_dim = draw(st.integers(1, raw_dim))
    n = d + target_dim + 3 + draw(st.integers(0, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    batch = random_batch(seed, n, d, raw_dim)
    # Orthonormal columns, as the search starts from: an ill-conditioned
    # projection would swamp the finite-difference reference in rounding.
    draws = np.random.default_rng(seed + 1).normal(size=(raw_dim, target_dim))
    b, _ = np.linalg.qr(draws)
    return batch, b


@settings(max_examples=60, deadline=None)
@given(loo_problems())
def test_analytic_gradient_matches_central_differences(problem):
    batch, b = problem
    centered = _centered(batch)
    try:
        cost, grad = _loo_cost_and_grad(*centered, b)
    except EncodingError:
        assume(False)
    # Near leverage 1 the cost grows as 1 / slack^2 and rounding in the
    # slack swamps the finite-difference reference, so such points are
    # left out; elsewhere its rounding error is of order eps * cost / step.
    pols_c, _, sens_c = centered
    design = np.concatenate([pols_c, sens_c @ b], axis=1)
    u = np.linalg.svd(design, full_matrices=False)[0]
    assume(np.min(1.0 - 1.0 / len(u) - np.sum(u * u, axis=1)) > 0.01)
    reference = central_difference(lambda m: _loo_cost_and_grad(*centered, m)[0], b)
    scale = cost + np.abs(grad).max()
    assert np.abs(grad - reference).max() <= 1e-5 * scale


@settings(max_examples=60, deadline=None)
@given(loo_problems())
def test_kernel_cost_equals_loo_cost_and_delete_and_refit(problem):
    batch, b = problem
    try:
        cost, _ = _loo_cost_and_grad(*_centered(batch), b)
    except EncodingError:
        assume(False)
    assert cost == loo_cost(batch, b)
    slow = brute_force_loo(batch, b)
    assert abs(cost - slow) <= 1e-8 * max(1.0, abs(slow))


def test_loo_cost_equals_delete_and_refit():
    batch, _ = planted_batch(81, n=30, raw_dim=6)
    rng = substream(82)
    matrix = rng.normal(size=(6, 2))
    fast = loo_cost(batch, matrix)
    slow = brute_force_loo(batch, matrix)
    assert abs(fast - slow) <= 1e-8 * max(1.0, abs(slow))


def test_loo_cost_requires_heldout_degrees_of_freedom():
    batch, _ = planted_batch(83, n=6, raw_dim=4)
    with pytest.raises(EstimationError, match="insufficient samples"):
        loo_cost(batch, np.eye(4)[:, :2])


def test_loo_cost_rejects_rank_deficient_projection():
    batch, _ = planted_batch(84, n=30, raw_dim=6)
    matrix = np.zeros((6, 2))
    matrix[0, 0] = 1.0
    matrix[0, 1] = 1.0
    with pytest.raises(EncodingError, match="rank deficient"):
        loo_cost(batch, matrix)


def rejection_case(name):
    """(batch, projection) for a named leave-one-out case."""
    few, _ = planted_batch(83, n=6, raw_dim=4)
    batch, _ = planted_batch(84, n=30, raw_dim=6)
    if name == "too_few_samples":
        return few, np.eye(4)[:, :2]
    if name == "one_column_fewer":
        return few, np.eye(4)[:, :1]
    if name == "rank_deficient":
        repeated = np.zeros((6, 2))
        repeated[0, :] = 1.0
        return batch, repeated
    if name == "leverage_one":
        # A raw channel that is nonzero at one trial only gives it leverage 1.
        spike = np.zeros((30, 6))
        spike[0, 0] = 1.0
        return replace(batch, sensors=spike), np.eye(6)[:, :1]
    return batch, substream(85).normal(size=(6, 2))


@pytest.mark.parametrize(
    "name, raises",
    [
        ("too_few_samples", True),
        ("one_column_fewer", False),
        ("rank_deficient", True),
        ("leverage_one", True),
        ("valid", False),
    ],
)
def test_search_rejects_exactly_where_loo_cost_raises(name, raises):
    batch, matrix = rejection_case(name)
    search = lambda: _search_cost_and_grad(matrix.ravel(), *_centered(batch))
    if not raises:
        assert search()[0] == loo_cost(batch, matrix)
        return
    with pytest.raises((EncodingError, EstimationError)) as raised:
        loo_cost(batch, matrix)
    if raised.type is EstimationError:
        # Too few samples for any projection of this width: the search
        # passes the error on instead of rejecting this projection.
        with pytest.raises(EstimationError, match="insufficient samples"):
            search()
        with pytest.raises(EstimationError, match="insufficient samples"):
            optimize_projection(batch, EncodingSearchConfig(target_dim=2))
        return
    cost, grad = search()
    assert cost == np.inf
    assert not grad.any()


def test_a_search_whose_start_is_rejected_finds_no_projection():
    # The spike leaves the joint fit rank deficient, and its principal
    # component gives trial 0 leverage 1.
    batch, _ = rejection_case("leverage_one")
    with pytest.raises(EncodingError, match="no valid projection found"):
        optimize_projection(batch, EncodingSearchConfig(target_dim=1))


@st.composite
def spd_quadratics(draw):
    """A random SPD matrix (eigenvalues 0.1 to 10), a minimizer and a start."""
    dim = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    hessian = (basis * rng.uniform(0.1, 10.0, size=dim)) @ basis.T
    return hessian, rng.normal(size=dim), rng.normal(scale=3.0, size=dim)


@settings(max_examples=100, deadline=None)
@given(spd_quadratics())
def test_minimize_reaches_the_minimizer_of_an_spd_quadratic(problem):
    # The minimum cost is 0.  A minimum cost f* hides decreases below
    # about 1e-16 |f*|, which stops any line search about
    # sqrt(1e-16 |f*| / 0.1) from the minimizer, 1e-7 at |f*| = 10.
    hessian, minimizer, start = problem

    def quadratic(x):
        gap = x - minimizer
        return 0.5 * gap @ hessian @ gap, hessian @ gap

    result = minimize(quadratic, start, 200, [].append)
    assert np.abs(result.x - minimizer).max() <= 1e-8
    assert result.nit < 200


@settings(max_examples=100, deadline=None)
@given(spd_quadratics())
def test_minimize_never_returns_a_rejected_point(problem):
    # The minimizer is pushed outside the unit ball, where the cost is
    # infinite; the search starts inside it.
    hessian, minimizer, start = problem
    center = minimizer * (2.0 / float(np.linalg.norm(minimizer)))
    start = 0.9 * start / max(1.0, float(np.linalg.norm(start)))

    def fenced(x):
        if x @ x > 1.0:
            return np.inf, np.zeros_like(x)
        gap = x - center
        return 0.5 * gap @ hessian @ gap, hessian @ gap

    result = minimize(fenced, start, 50, [].append)
    assert np.isfinite(result.fun)
    assert result.x @ result.x <= 1.0
    assert result.fun <= fenced(start)[0]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 12), st.integers(0, 2**32 - 1))
def test_minimize_takes_at_most_max_iterations_steps(max_iterations, seed):
    start = np.random.default_rng(seed).normal(scale=2.0, size=2)

    def rosenbrock(x):
        a, b = x
        cost = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
        grad = [-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)]
        return cost, np.array(grad)

    costs = []
    result = minimize(rosenbrock, start, max_iterations, callback=costs.append)
    assert result.nit <= max_iterations
    assert len(costs) == result.nit
    assert costs == sorted(costs, reverse=True)
    assert result.fun == (costs[-1] if costs else rosenbrock(start)[0])


def test_optimize_projection_recovers_planted_direction():
    batch, direction = planted_batch(85)
    config = EncodingSearchConfig(target_dim=1, max_iterations=60)
    projection = optimize_projection(batch, config)
    cosine = abs(float(projection.matrix[:, 0] @ direction))
    assert cosine >= 0.95
    assert projection.cost == pytest.approx(
        loo_cost(batch, projection.matrix), rel=1e-12
    )


def test_a_one_column_search_starts_at_the_joint_fit_direction():
    batch, _ = planted_batch(93)
    coefficients = estimate_g2(batch).sensor_coefficients
    direction = coefficients / np.linalg.norm(coefficients)
    projection = optimize_projection(batch, EncodingSearchConfig(target_dim=1))
    assert projection.cost_trace[0] == pytest.approx(
        loo_cost(batch, direction[:, None]), rel=1e-12
    )
    assert projection.cost <= projection.cost_trace[0]


def test_a_search_too_small_for_the_joint_fit_starts_at_the_principal_components():
    # d + target_dim + 3 = 6 <= n = 12 < d + m + 2 = 14: the leave-one-out
    # fits work, the joint regression on all ten raw channels does not.
    batch, _ = planted_batch(94, n=12, raw_dim=10)
    with pytest.raises(EstimationError, match="insufficient samples"):
        estimate_g2(batch)
    projection = optimize_projection(batch, EncodingSearchConfig(target_dim=1))
    assert projection.cost_trace[0] == loo_cost(batch, _pca_init(batch.sensors, 1))


def test_optimize_projection_returns_orthonormal_columns():
    batch, _ = planted_batch(86, raw_dim=8)
    config = EncodingSearchConfig(target_dim=3, max_iterations=25)
    projection = optimize_projection(batch, config)
    gram = projection.matrix.T @ projection.matrix
    assert np.allclose(gram, np.eye(3), atol=1e-10)


def test_optimize_projection_never_ends_above_its_start():
    batch, _ = planted_batch(87, raw_dim=5)
    config = EncodingSearchConfig(target_dim=5, max_iterations=40)
    projection = optimize_projection(batch, config)
    assert projection.cost <= projection.cost_trace[0] + 1e-12


@pytest.mark.parametrize("max_iterations", [1, 3])
@pytest.mark.parametrize("n, target_dim", [(3, 5), (4, 4), (2, 9)])
def test_a_search_with_fewer_trials_than_columns_refuses_for_too_few_samples(
    n, target_dim, max_iterations
):
    # The principal components fill at most n of the initial columns, but
    # the leave-one-out fits need n >= d + target_dim + 3: the search
    # refuses before any projection is tried, whatever its iteration budget.
    batch, _ = planted_batch(91, n=n, raw_dim=9)
    config = EncodingSearchConfig(target_dim=target_dim, max_iterations=max_iterations)
    need = rf"insufficient samples: n={n} < d\+d_s\+3={2 + target_dim + 3} "
    with pytest.raises(EstimationError, match=need):
        optimize_projection(batch, config)


def test_a_search_on_scores_whose_sum_overflows_refuses_them_by_name():
    # Each score is finite; centering them would overflow.
    batch, _ = planted_batch(92, n=12, raw_dim=4)
    loud = replace(batch, scores=np.full(12, -1e308))
    with pytest.raises(EstimationError, match="their sum overflows"):
        loo_cost(loud, np.eye(4)[:, :1])
    with pytest.raises(EstimationError, match="their sum overflows"):
        optimize_projection(loud, EncodingSearchConfig(target_dim=1))


def test_optimize_projection_zero_iterations_keeps_the_best_init():
    batch, _ = planted_batch(88, raw_dim=6)
    config = EncodingSearchConfig(target_dim=2, max_iterations=0)
    projection = optimize_projection(batch, config)
    assert len(projection.cost_trace) == 1
    assert projection.cost == pytest.approx(projection.cost_trace[0])


@pytest.mark.parametrize("max_iterations", [1, 3])
def test_optimize_projection_to_zero_columns_costs_the_sensor_free_fit(max_iterations):
    # With no columns there is nothing to step: the trace is the start alone.
    batch, _ = planted_batch(90, raw_dim=4)
    config = EncodingSearchConfig(target_dim=0, max_iterations=max_iterations)
    projection = optimize_projection(batch, config)
    cost = loo_cost(batch, np.zeros((4, 0)))
    assert projection.matrix.shape == (4, 0)
    assert projection.cost == cost
    assert projection.cost_trace == (cost,)


def test_optimize_projection_is_deterministic():
    batch, _ = planted_batch(89)
    config = EncodingSearchConfig(target_dim=1, max_iterations=30)
    a = optimize_projection(batch, config)
    b = optimize_projection(batch, config)
    assert np.array_equal(a.matrix, b.matrix)
    assert a.cost_trace == b.cost_trace


def test_estimate_gradient_encoded_matches_manual_encoding():
    batch, _ = planted_batch(91, raw_dim=6)
    matrix = substream(92).normal(size=(6, 2))
    via_projection = estimate_gradient_encoded(batch, matrix)
    manual = estimate_g2(replace(batch, sensors=batch.sensors @ matrix))
    assert np.allclose(via_projection.gradient, manual.gradient, atol=1e-12)
    assert np.allclose(
        via_projection.sensor_coefficients, manual.sensor_coefficients, atol=1e-12
    )
