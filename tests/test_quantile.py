import itertools

import numpy as np
import pytest

from panelcluster.quantile import (
    check_loss,
    fit_pooled_quantile,
    fit_quantile,
    fit_quantile_bundle,
    hall_sheather_bandwidth,
    hk_covariance,
    intercept_variance,
    quantile_objective,
    subgradient_certificate,
)
from panelcluster.types import QuantileFitBundle, CoefficientEstimate


def test_median_of_three():
    est = fit_quantile(np.ones((3, 1)), np.array([1.0, 2, 3]), 0.5)
    assert est.gamma[0] == 2.0


def test_interval_minimizer_returns_lower_vertex():
    est = fit_quantile(np.ones((4, 1)), np.array([1.0, 2, 3, 4]), 0.25)
    assert est.gamma[0] == 1.0


def brute_force_objective(X, y, tau):
    """Minimum check loss over all exact-interpolation basic solutions."""
    T, s = X.shape
    best = np.inf
    for subset in itertools.combinations(range(T), s):
        sub = X[list(subset)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        gamma = np.linalg.solve(sub, y[list(subset)])
        best = min(best, quantile_objective(X, y, gamma, tau))
    return best


@pytest.mark.parametrize("seed,s", [(0, 2), (1, 2), (2, 3), (3, 3)])
def test_objective_matches_basic_solution_enumeration(seed, s):
    rng = np.random.default_rng(seed)
    T = 12
    X = np.column_stack([np.ones(T), rng.normal(size=(T, s - 1))])
    y = rng.normal(size=T)
    tau = 0.3
    est = fit_quantile(X, y, tau)
    assert quantile_objective(X, y, est.gamma, tau) == pytest.approx(
        brute_force_objective(X, y, tau), abs=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_subgradient_certificate_random_instances(seed):
    rng = np.random.default_rng(100 + seed)
    T = 60
    X = np.column_stack([np.ones(T), rng.normal(size=(T, 2))])
    y = X @ np.array([1.0, -0.5, 0.25]) + rng.standard_t(df=4, size=T)
    tau = rng.uniform(0.2, 0.8)
    est = fit_quantile(X, y, tau)
    assert est.converged
    assert subgradient_certificate(X, y, est.gamma, tau)


def test_residual_sign_counts():
    rng = np.random.default_rng(5)
    T, s = 40, 3
    X = np.column_stack([np.ones(T), rng.normal(size=(T, s - 1))])
    y = rng.normal(size=T)
    for tau in (0.25, 0.5, 0.75):
        est = fit_quantile(X, y, tau)
        r = y - X @ est.gamma
        strictly_neg = np.sum(r < -1e-9)
        non_pos = np.sum(r <= 1e-9)
        assert strictly_neg <= tau * T <= non_pos + s


def test_local_optimality_probe():
    rng = np.random.default_rng(6)
    T = 50
    X = np.column_stack([np.ones(T), rng.normal(size=(T, 1))])
    y = rng.normal(size=T)
    est = fit_quantile(X, y, 0.4)
    base = quantile_objective(X, y, est.gamma, 0.4)
    for j in range(2):
        for delta in (1e-3, -1e-3):
            probe = est.gamma.copy()
            probe[j] += delta
            assert quantile_objective(X, y, probe, 0.4) >= base - 1e-12


def test_hall_sheather_reference_value():
    # frozen from a direct evaluation of the bandwidth formula; note the
    # clip window never binds at tau = 0.5
    assert hall_sheather_bandwidth(100, 0.5) == pytest.approx(
        0.20931604694700326, rel=1e-12)


def test_hall_sheather_shrinks_with_T():
    values = [hall_sheather_bandwidth(T, 0.5) for T in (10, 100, 1000, 10000)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 0.05


def test_hall_sheather_clips_near_one():
    d = hall_sheather_bandwidth(20, 0.97)
    assert 0.97 + d <= 0.99 + 1e-12


def test_hk_location_model_matches_asymptotic_variance():
    estimates = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        T = 2000
        X = np.ones((T, 1))
        y = 1.0 + rng.standard_normal(T)
        bundle = fit_quantile_bundle(X, y, 0.5)
        unc = hk_covariance(bundle, X)
        estimates.append(unc.sigma[0, 0])
    assert abs(np.mean(estimates) - np.pi / 2) < 0.25 * np.pi / 2


def test_hk_collapses_for_constant_density():
    # z_t' (gamma_plus - gamma_minus) == 2 d / c for every t
    T, d, c, tau = 10, 0.1, 0.5, 0.5
    X = np.ones((T, 1))
    center = CoefficientEstimate([0.0], tau=tau)
    upper = CoefficientEstimate([d / c], tau=tau + d)
    lower = CoefficientEstimate([-d / c], tau=tau - d)
    bundle = QuantileFitBundle(center, upper, lower, d)
    unc = hk_covariance(bundle, X)
    assert unc.sigma[0, 0] == pytest.approx(tau * (1 - tau) / c ** 2, rel=1e-12)


def test_hk_crossed_observation_is_dropped_not_inflated():
    # observations whose difference quotient crosses contribute zero density
    # weight; they must not dominate B through a floored denominator
    T, d, c, tau = 8, 0.1, 0.4, 0.5
    X = np.ones((T, 1))
    X[0, 0] = -1.0  # denominator -c for this row, +c for the rest
    center = CoefficientEstimate([0.0], tau=tau)
    upper = CoefficientEstimate([c / 2], tau=tau + d)
    lower = CoefficientEstimate([-c / 2], tau=tau - d)
    unc = hk_covariance(QuantileFitBundle(center, upper, lower, d), X)
    f = 2 * d / c
    B = f * (T - 1) / T  # crossed row drops out; x_t^2 = 1 throughout
    H = tau * (1 - tau)
    assert unc.degenerate
    assert unc.sigma[0, 0] == pytest.approx(H / B ** 2, rel=1e-12)


def test_hk_crossing_is_floored_and_flagged():
    T, d, tau = 10, 0.1, 0.5
    X = np.ones((T, 1))
    same = CoefficientEstimate([1.0], tau=tau)
    bundle = QuantileFitBundle(
        same,
        CoefficientEstimate([1.0], tau=tau + d),
        CoefficientEstimate([1.0], tau=tau - d),
        d)
    unc = hk_covariance(bundle, X)
    assert np.isfinite(unc.sigma).all()
    assert unc.degenerate


def test_pooled_with_no_covariates_separates():
    rng = np.random.default_rng(8)
    y = rng.normal(size=(4, 9))
    fit = fit_pooled_quantile(y, np.empty((4, 9, 0)), 0.5)
    for i in range(4):
        solo = fit_quantile(np.ones((9, 1)), y[i], 0.5)
        assert fit.alphas[i] == solo.gamma[0]


def test_pooled_matches_grid_search_on_tiny_instance():
    rng = np.random.default_rng(9)
    n, T = 2, 4
    x = rng.normal(size=(n, T, 1))
    alpha_star, beta_star = np.array([0.5, -0.5]), 0.8
    y = alpha_star[:, None] + x[:, :, 0] * beta_star + rng.normal(size=(n, T))
    tau = 0.5
    fit = fit_pooled_quantile(y, x, tau)

    def objective(a1, a2, b):
        r = y - np.array([a1, a2])[:, None] - x[:, :, 0] * b
        return check_loss(r, tau).mean()

    grid = np.linspace(-2, 2, 61)
    grid_best = min(objective(a1, a2, b)
                    for a1 in grid for a2 in grid for b in grid)
    lp_obj = objective(fit.alphas[0], fit.alphas[1], fit.beta[0])
    assert lp_obj <= grid_best + 1e-12


def test_pooled_recovers_model3_intercepts():
    from panelcluster.simulation import gen_model3

    hits = 0
    for seed in range(20):
        panel, truth = gen_model3(30, 60, "normal", seed)
        fit = fit_pooled_quantile(panel.responses, panel.covariates, 0.5)
        if np.max(np.abs(fit.alphas - truth.astype(float))) < 0.5:
            hits += 1
    assert hits >= 18


def test_intercept_variance_plugin_identity():
    tau, d, f = 0.5, 0.05, 0.5
    unc = intercept_variance(1.0 + d / f, 1.0 - d / f, tau, d)
    assert unc.sigma[0, 0] == pytest.approx(tau * (1 - tau) / 0.25, rel=1e-12)


def test_intercept_variance_zero_difference_is_degenerate():
    unc = intercept_variance(2.0, 2.0, 0.5, 0.05)
    assert unc.sigma[0, 0] == 0.0
    assert unc.degenerate


def test_intercept_variance_normal_errors_matches_pi_over_two():
    from panelcluster.quantile import lower_sample_quantile

    values = []
    for seed in range(50):
        rng = np.random.default_rng(200 + seed)
        e = rng.standard_normal(2000)
        d = hall_sheather_bandwidth(2000, 0.5)
        plus = lower_sample_quantile(e, 0.5 + d)
        minus = lower_sample_quantile(e, 0.5 - d)
        values.append(intercept_variance(plus, minus, 0.5, d).sigma[0, 0])
    assert abs(np.mean(values) - np.pi / 2) < 0.25 * np.pi / 2
