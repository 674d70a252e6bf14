"""Per-individual logistic regression via damped Newton iterations."""

from __future__ import annotations

import numpy as np

from .types import (
    CoefficientEstimate,
    DegenerateOutcome,
    PerfectSeparation,
    SingularDesign,
    SingularHessian,
    UncertaintyEstimate,
)

# declare divergence (perfect separation) when the iterate leaves this ball
DIVERGENCE_NORM = 30.0
MAX_CONDITION = 1e12


def log_likelihood(X, y, gamma):
    """Average Bernoulli log-likelihood at gamma."""
    eta = X @ gamma
    return float(np.mean(y * eta - np.logaddexp(0.0, eta)))


def _gradient_hessian(X, y, gamma):
    eta = X @ gamma
    mu = 1.0 / (1.0 + np.exp(-eta))
    grad = X.T @ (y - mu) / len(y)
    w = mu * (1.0 - mu)
    hess = (X * w[:, None]).T @ X / len(y)
    return grad, hess


def _check_separation(X, y, gamma, margin: float = 1e-6):
    """Raise when every outcome is predicted with probability within
    ``margin`` of its label, which happens only when the classes are
    (quasi-)separated and the likelihood has no interior maximum."""
    mu = 1.0 / (1.0 + np.exp(-(X @ gamma)))
    if np.max(np.abs(y - mu)) < margin:
        raise PerfectSeparation(
            "all outcomes fitted exactly; outcomes are separable")


def fit_logistic(X, y, max_iter: int = 100, tol: float = 1e-8,
                 individual: int = 0) -> CoefficientEstimate:
    """Maximize the average log-likelihood by Newton steps with halving.

    Raises DegenerateOutcome when y is constant, PerfectSeparation when the
    iterate diverges, and SingularDesign for rank-deficient X.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.min() == y.max():
        raise DegenerateOutcome("response is constant; drop this individual")
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise SingularDesign("design matrix is rank deficient")

    gamma = np.zeros(X.shape[1])
    ll = log_likelihood(X, y, gamma)
    for it in range(1, max_iter + 1):
        grad, hess = _gradient_hessian(X, y, gamma)
        if np.max(np.abs(grad)) <= tol:
            _check_separation(X, y, gamma)
            return CoefficientEstimate(individual, gamma, converged=True,
                                       iterations=it - 1)
        if np.linalg.cond(hess) > MAX_CONDITION:
            raise PerfectSeparation("Hessian became numerically singular")
        step = np.linalg.solve(hess, grad)
        # step halving until the likelihood improves
        scale = 1.0
        for _ in range(50):
            candidate = gamma + scale * step
            ll_new = log_likelihood(X, y, candidate)
            if ll_new >= ll:
                break
            scale *= 0.5
        gamma = gamma + scale * step
        ll = log_likelihood(X, y, gamma)
        if np.linalg.norm(gamma) > DIVERGENCE_NORM:
            raise PerfectSeparation(
                "estimate diverged; outcomes are likely separable")
    grad, _ = _gradient_hessian(X, y, gamma)
    converged = np.max(np.abs(grad)) <= tol
    return CoefficientEstimate(individual, gamma, converged=converged,
                               iterations=max_iter)


def plugin_hessian(X, gamma):
    """Weighted Gram matrix (1/T) sum_t w_t z_t z_t' with logistic weights."""
    X = np.asarray(X, dtype=float)
    eta = X @ np.asarray(gamma, dtype=float)
    mu = 1.0 / (1.0 + np.exp(-eta))
    w = mu * (1.0 - mu)
    return (X * w[:, None]).T @ X / X.shape[0]


def logistic_covariance(X, estimate: CoefficientEstimate,
                        slopes_only: bool = False) -> UncertaintyEstimate:
    """Inverse of the plug-in Hessian; asymptotic variance of the MLE.

    slopes_only extracts the lower p x p submatrix after inverting the full
    (p+1) x (p+1) matrix.
    """
    if not estimate.converged:
        raise ValueError("covariance requested for a non-converged fit")
    hess = plugin_hessian(X, estimate.gamma)
    if np.linalg.cond(hess) > MAX_CONDITION:
        raise SingularHessian("weighted Gram matrix is numerically singular")
    sigma = np.linalg.inv(hess)
    sigma = 0.5 * (sigma + sigma.T)
    if slopes_only:
        sigma = sigma[1:, 1:]
    return UncertaintyEstimate(estimate.individual, sigma)
