import numpy as np
import pytest

from panelcluster.logistic import (
    fit_logistic,
    log_likelihood,
    logistic_covariance,
    plugin_hessian,
)
from panelcluster.types import DegenerateOutcome, PerfectSeparation


def intercept_design(T):
    """A one-row stack: the intercept-only design of one individual."""
    return np.ones((1, T, 1))


def test_intercept_only_matches_logit_of_mean():
    est = fit_logistic(intercept_design(4), np.array([[1.0, 1, 1, 0]]))
    assert est.converged
    assert est.gamma[0, 0] == pytest.approx(np.log(3), abs=1e-8)


def test_all_ones_is_degenerate():
    est = fit_logistic(intercept_design(4), np.ones((1, 4)))
    assert isinstance(est.failed[0], DegenerateOutcome)


def test_separable_data_raises_perfect_separation():
    X = np.array([[[-1.0], [-1.0], [1.0], [1.0]]])
    y = np.array([[0.0, 0, 1, 1]])
    assert isinstance(fit_logistic(X, y).failed[0], PerfectSeparation)


def test_recovers_truth_on_large_samples():
    gamma_star = np.array([0.3, 0.8, -0.5])
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        X = np.column_stack([np.ones(500), rng.normal(size=(500, 2))])
        prob = 1 / (1 + np.exp(-(X @ gamma_star)))
        y = (rng.uniform(size=500) < prob).astype(float)
        est = fit_logistic(X[None], y[None])
        if np.linalg.norm(est.gamma[0] - gamma_star) < 0.3:
            hits += 1
    assert hits >= 45


def test_gradient_is_small_at_solution():
    rng = np.random.default_rng(3)
    X = np.column_stack([np.ones(80), rng.normal(size=(80, 2))])
    y = (rng.uniform(size=80) < 0.4).astype(float)
    est = fit_logistic(X[None], y[None], tol=1e-8)
    eta = X @ est.gamma[0]
    grad = X.T @ (y - 1 / (1 + np.exp(-eta))) / 80
    assert np.max(np.abs(grad)) <= 1e-8


def test_symmetric_intercept_covariance():
    X = intercept_design(4)
    est = fit_logistic(X, np.array([[1.0, 0, 1, 0]]))
    unc = logistic_covariance(X, est)
    assert est.gamma[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert unc.sigma[0, 0, 0] == pytest.approx(4.0, abs=1e-8)


def test_covariance_inverts_plugin_hessian():
    rng = np.random.default_rng(7)
    X = np.column_stack([np.ones(60), rng.normal(size=(60, 2))])
    y = (rng.uniform(size=60) < 0.5).astype(float)
    est = fit_logistic(X[None], y[None])
    unc = logistic_covariance(X[None], est)
    identity = unc.sigma[0] @ plugin_hessian(X, est.gamma[0])
    assert np.abs(identity - np.eye(3)).max() < 1e-8


def numerical_hessian(X, y, gamma, step=1e-5):
    s = len(gamma)
    H = np.zeros((s, s))
    for i in range(s):
        for j in range(s):
            gpp = gamma.copy(); gpp[i] += step; gpp[j] += step
            gpm = gamma.copy(); gpm[i] += step; gpm[j] -= step
            gmp = gamma.copy(); gmp[i] -= step; gmp[j] += step
            gmm = gamma.copy(); gmm[i] -= step; gmm[j] -= step
            H[i, j] = (log_likelihood(X, y, gpp) - log_likelihood(X, y, gpm)
                       - log_likelihood(X, y, gmp)
                       + log_likelihood(X, y, gmm)) / (4 * step ** 2)
    return -H


@pytest.mark.parametrize("seed", range(20))
def test_plugin_hessian_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    T = 120
    X = np.column_stack([np.ones(T), rng.normal(size=(T, 2))])
    gamma_star = rng.normal(scale=0.8, size=3)
    prob = 1 / (1 + np.exp(-(X @ gamma_star)))
    y = (rng.uniform(size=T) < prob).astype(float)
    gamma = fit_logistic(X[None], y[None]).gamma[0]
    analytic = plugin_hessian(X, gamma)
    numeric = numerical_hessian(X, y, gamma)
    rel = np.abs(analytic - numeric).max() / np.abs(analytic).max()
    assert rel < 1e-4
