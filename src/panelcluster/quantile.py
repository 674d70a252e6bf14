"""Quantile regression fits, the density sandwich, and the pooled model.

Fits solve the linear-programming dual of the check-loss problem with the
HiGHS solver; coefficients are recovered from the equality-constraint
marginals. Intercept-only problems are solved in closed form via the
left-continuous sample quantile, which pins down the lower vertex whenever
the minimizer is an interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.stats import norm

from .types import (
    CoefficientEstimate,
    NonConvergence,
    QuantileFitBundle,
    SingularB,
    SingularDesign,
    UncertaintyEstimate,
)

# floor for the difference-quotient denominator under quantile crossing
DENSITY_DENOM_FLOOR = 1e-6
MAX_CONDITION = 1e12


def check_loss(u, tau: float):
    """Asymmetric absolute loss (tau - 1{u <= 0}) * u."""
    u = np.asarray(u, dtype=float)
    return np.where(u > 0, tau * u, (tau - 1.0) * u)


def quantile_objective(X, y, gamma, tau: float) -> float:
    """Average check loss of the residuals at gamma."""
    return float(np.mean(check_loss(np.asarray(y) - np.asarray(X) @ gamma, tau)))


def lower_sample_quantile(y, tau: float) -> float:
    """Left-continuous sample quantile (lower vertex of the minimizer set)."""
    ys = np.sort(np.asarray(y, dtype=float))
    h = tau * len(ys)
    k = int(round(h)) if abs(h - round(h)) < 1e-9 else int(np.ceil(h))
    return float(ys[max(k, 1) - 1])


def subgradient_certificate(X, y, gamma, tau: float, tol: float = 1e-6):
    """Optimality check: per column j the score must be dominated by the
    interpolated observations, |sum_t x_tj (tau - 1{r_t < 0})| <=
    sum_{t: r_t = 0} |x_tj| + tol."""
    X = np.asarray(X, dtype=float)
    r = np.asarray(y, dtype=float) - X @ gamma
    scale = max(np.abs(np.asarray(y)).max(initial=1.0), 1.0)
    zero = np.abs(r) <= 1e-8 * scale
    neg = (r < 0) & ~zero
    score = X.T @ (tau - neg.astype(float))
    slack = np.abs(X[zero]).sum(axis=0) if zero.any() else np.zeros(X.shape[1])
    return bool(np.all(np.abs(score) <= slack + tol))


def _solve_qr_dual(X, y, tau: float):
    """Solve min_gamma sum check_loss via the bounded dual LP.

    Dual: max y'a subject to X'a = 0, a in [tau - 1, tau]; the primal
    coefficients are the marginals of the equality constraints.
    """
    T = len(y)
    res = linprog(
        -np.asarray(y, dtype=float),
        A_eq=X.T if not sparse.issparse(X) else X.T.tocsr(),
        b_eq=np.zeros(X.shape[1]),
        bounds=[(tau - 1.0, tau)] * T,
        method="highs",
    )
    if res.status != 0:
        raise NonConvergence(f"quantile LP failed: {res.message}")
    return -np.asarray(res.eqlin.marginals, dtype=float)


def fit_quantile(X, y, tau: float, tol: float = 1e-6,
                 individual: int = 0) -> CoefficientEstimate:
    """Minimize the average check loss over coefficients."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    if X.ndim != 2 or X.shape[0] != len(y):
        raise SingularDesign("design/response shape mismatch")
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise SingularDesign("design matrix is rank deficient")

    if X.shape[1] == 1 and np.ptp(X[:, 0]) == 0 and X[0, 0] != 0:
        gamma = np.array([lower_sample_quantile(y / X[0, 0], tau)])
    else:
        gamma = _solve_qr_dual(X, y, tau)
    ok = subgradient_certificate(X, y, gamma, tau, tol=tol)
    return CoefficientEstimate(individual, gamma, tau=tau, converged=ok)


def hall_sheather_bandwidth(T: int, tau: float, alpha_level: float = 0.05) -> float:
    """Hall-Sheather bandwidth for the difference-quotient density estimate,
    clipped so tau +/- d_T stays inside (0.01, 0.99)."""
    if T < 10:
        raise ValueError("bandwidth rule requires T >= 10")
    z = norm.ppf(1.0 - alpha_level / 2.0)
    q = norm.ppf(tau)
    d = T ** (-1.0 / 3.0) * z ** (2.0 / 3.0) * (
        1.5 * norm.pdf(q) ** 2 / (2.0 * q ** 2 + 1.0)) ** (1.0 / 3.0)
    return float(max(min(d, tau - 0.01, 0.99 - tau), 0.0))


def fit_quantile_bundle(X, y, tau: float, d_T: float | None = None,
                        individual: int = 0) -> QuantileFitBundle:
    """Fit at tau and tau +/- d_T (Hall-Sheather default bandwidth)."""
    if d_T is None:
        d_T = hall_sheather_bandwidth(len(y), tau)
    center = fit_quantile(X, y, tau, individual=individual)
    upper = fit_quantile(X, y, tau + d_T, individual=individual)
    lower = fit_quantile(X, y, tau - d_T, individual=individual)
    return QuantileFitBundle(center, upper, lower, d_T)


def hk_covariance(bundle: QuantileFitBundle, X,
                  slopes_only: bool = False) -> UncertaintyEstimate:
    """Density sandwich B^{-1} H B^{-1} with difference-quotient densities.

    Denominators of the density estimates are floored at DENSITY_DENOM_FLOOR;
    a floored fit is flagged as degenerate. slopes_only extracts the lower
    p x p submatrix of the inverted full matrix.
    """
    X = np.asarray(X, dtype=float)
    tau = bundle.center.tau
    d = bundle.bandwidth
    T = X.shape[0]
    denom = X @ (bundle.upper.gamma - bundle.lower.gamma)
    crossed = denom < DENSITY_DENOM_FLOOR
    # crossed difference quotients get density 0 (the observation drops out
    # of B) rather than an enormous weight from a floored denominator
    f_hat = np.where(crossed, 0.0,
                     2.0 * d / np.maximum(denom, DENSITY_DENOM_FLOOR))
    B = (X * f_hat[:, None]).T @ X / T
    H = tau * (1.0 - tau) * X.T @ X / T
    if np.linalg.cond(B) > MAX_CONDITION:
        # so many crossings that B lost rank: floor the denominators instead
        # so pathological inputs still produce a finite covariance
        f_hat = 2.0 * d / np.maximum(denom, DENSITY_DENOM_FLOOR)
        B = (X * f_hat[:, None]).T @ X / T
        if np.linalg.cond(B) > MAX_CONDITION:
            raise SingularB(
                "density-weighted Gram matrix is numerically singular")
    Binv = np.linalg.inv(B)
    sigma = Binv @ H @ Binv
    sigma = 0.5 * (sigma + sigma.T)
    if slopes_only:
        sigma = sigma[1:, 1:]
    return UncertaintyEstimate(bundle.center.individual, sigma,
                               degenerate=bool(crossed.any()))


@dataclass
class PooledQuantileFit:
    """Joint fit with individual intercepts and a common slope."""

    alphas: np.ndarray
    beta: np.ndarray
    tau: float
    converged: bool = True


def fit_pooled_quantile(y, x, tau: float, tol: float = 1e-6) -> PooledQuantileFit:
    """Minimize the pooled check loss over (alpha_1..alpha_n, beta).

    y has shape (n, T); x has shape (n, T, p). With p = 0 the problem
    separates into n intercept-only fits solved in closed form.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    n, T = y.shape
    p = x.shape[2] if x.ndim == 3 else 0
    if n * T < n + p + 1:
        raise SingularDesign("too few observations for the pooled fit")

    if p == 0:
        alphas = np.array([lower_sample_quantile(y[i], tau) for i in range(n)])
        return PooledQuantileFit(alphas, np.zeros(0), tau)

    indicators = sparse.kron(sparse.eye(n, format="csr"),
                             np.ones((T, 1)), format="csr")
    Z = sparse.hstack([indicators, sparse.csr_matrix(x.reshape(n * T, p))],
                      format="csr")
    gamma = _solve_qr_dual(Z, y.reshape(-1), tau)
    alphas, beta = gamma[:n], gamma[n:]
    ok = subgradient_certificate(Z.toarray(), y.reshape(-1), gamma, tau,
                                 tol=tol * n)
    return PooledQuantileFit(alphas, beta, tau, converged=ok)


def intercept_variance(alpha_plus: float, alpha_minus: float, tau: float,
                       d_T: float, individual: int = 0) -> UncertaintyEstimate:
    """Sample-quantile asymptotic variance from the intercept difference
    quotient: tau(1-tau) * ((alpha_plus - alpha_minus) / (2 d_T))^2."""
    if d_T <= 0:
        raise ValueError("bandwidth must be positive")
    diff = (alpha_plus - alpha_minus) / (2.0 * d_T)
    sigma = tau * (1.0 - tau) * diff ** 2
    return UncertaintyEstimate(individual, np.array([[sigma]]),
                               degenerate=sigma == 0.0)
