"""Per-individual logistic regression: one damped Newton engine over a stack
of designs, with per-row failures."""

from __future__ import annotations

import numpy as np

from .types import (
    CoefficientEstimate,
    DegenerateOutcome,
    DimensionMismatch,
    NonConvergence,
    PerfectSeparation,
    SingularDesign,
    SingularHessian,
    UncertaintyEstimate,
)

# declare divergence (perfect separation) when the iterate leaves this ball
DIVERGENCE_NORM = 30.0
MAX_CONDITION = 1e12
# design entries (rows x T x k) one Newton chunk holds, which bounds its
# working set as quantile.IP_CHUNK_ENTRIES does for the interior point
NEWTON_CHUNK_ENTRIES = 2 ** 16
# halvings of a Newton step before it is taken at 0.5 ** MAX_HALVINGS
MAX_HALVINGS = 50
# a converged fit is separated when every outcome is predicted within this
# of its label: the likelihood then has no interior maximum
SEPARATION_MARGIN = 1e-6
# Newton steps before a fit is unconverged, and the largest |gradient|
# entry of a converged fit
MAX_ITER = 100
GRADIENT_TOL = 1e-8


def _probabilities(X, gamma):
    """Fitted probabilities (..., T) of designs (..., T, k) at (..., k)."""
    return 1.0 / (1.0 + np.exp(-(X @ gamma[..., None])[..., 0]))


def _weighted_gram(X, w):
    """(1/T) X' diag(w) X of one design or of each row of a stack."""
    return (X * w[..., None]).swapaxes(-1, -2) @ X / X.shape[-2]


def log_likelihood(X, y, gamma):
    """Average Bernoulli log-likelihood at gamma: a float for one (T, k)
    design, an (m,) array for an (m, T, k) stack."""
    eta = (np.asarray(X) @ np.asarray(gamma)[..., None])[..., 0]
    ll = np.mean(y * eta - np.logaddexp(0.0, eta), axis=-1)
    return float(ll) if ll.ndim == 0 else ll


def fit_logistic(X, y) -> CoefficientEstimate:
    """Maximize the average log-likelihood by Newton steps with halving.

    X is an (n, T, k) stack of designs with outcomes y (n, T); any other
    shape raises DimensionMismatch. Every row runs the same iterations
    (_newton), in chunks of at most NEWTON_CHUNK_ENTRIES design entries. A
    row fails with DegenerateOutcome when its y is constant or has an
    outcome other than 0 or 1 (NaN included), SingularDesign when its X is
    rank deficient, PerfectSeparation when its outcomes are separated or its
    iterate diverges, and NonConvergence when its gradient is not within
    GRADIENT_TOL after MAX_ITER steps. gamma is (n, k) with the failed
    rows read 0, failed maps each failed row to its error, and iterations
    sums the steps of the other rows.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 3 or y.shape != X.shape[:2]:
        raise DimensionMismatch("design/response shape mismatch")
    n, T, k = X.shape
    # NaN fails both comparisons, so a non-finite outcome is invalid too
    invalid = ~np.all((y == 0.0) | (y == 1.0), axis=1)
    constant = ~invalid & (y.min(axis=1) == y.max(axis=1))
    deficient = ~invalid & ~constant & (np.linalg.matrix_rank(X) < k)
    failed = {int(i): DegenerateOutcome("outcomes must be 0 or 1")
              for i in np.flatnonzero(invalid)}
    failed.update({int(i): DegenerateOutcome(
        "response is constant; drop this individual")
        for i in np.flatnonzero(constant)})
    failed.update({int(i): SingularDesign("design matrix is rank deficient")
                   for i in np.flatnonzero(deficient)})
    rows = np.flatnonzero(~invalid & ~constant & ~deficient)
    gamma = np.zeros((n, k))
    iterations = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    step = max(1, NEWTON_CHUNK_ENTRIES // (T * k))
    for start in range(0, len(rows), step):
        chunk = rows[start:start + step]
        gamma[chunk], iterations[chunk], converged[chunk], errors = _newton(
            X[chunk], y[chunk], MAX_ITER, GRADIENT_TOL)
        failed.update({int(chunk[j]): exc for j, exc in errors.items()})
    failed.update({int(i): NonConvergence(
        f"Newton iterations did not converge in {MAX_ITER} steps")
        for i in np.flatnonzero(~converged) if i not in failed})
    gamma[~converged] = 0.0
    return CoefficientEstimate(gamma, converged=not failed,
                               iterations=int(iterations[converged].sum()),
                               failed=failed)


def _newton(X, y, max_iter, tol):
    """Damped Newton iterations of a stack: X (m, T, k), y (m, T).

    Each row starts at 0 and steps by H^{-1} g, halving the step up to
    MAX_HALVINGS times until the likelihood does not fall; only the rows
    still halving evaluate it again. A row leaves the working set once its
    gradient is within tol or it fails (PerfectSeparation). Returns the
    last iterates (m, k), steps taken (m,), the converged mask (m,) and
    {row: PerfectSeparation}. Every row's arithmetic is independent of the
    others, so a fit is the same in any stack.
    """
    m, T, k = X.shape
    gamma_out = np.zeros((m, k))
    iterations = np.full(m, max_iter)
    converged = np.zeros(m, dtype=bool)
    errors = {}
    active = np.arange(m)
    gamma = np.zeros((m, k))
    ll = log_likelihood(X, y, gamma)
    for it in range(1, max_iter + 1):
        mu = _probabilities(X, gamma)
        residual = y - mu
        grad = (X.swapaxes(1, 2) @ residual[..., None])[..., 0] / T
        hess = _weighted_gram(X, mu * (1.0 - mu))
        done = np.abs(grad).max(axis=1) <= tol
        # the separation test reuses the probabilities of this iterate
        separated = done & (np.abs(residual).max(axis=1) < SEPARATION_MARGIN)
        ill = ~done & (np.linalg.cond(hess) > MAX_CONDITION)
        finished = done & ~separated
        gamma_out[active[finished]] = gamma[finished]
        iterations[active[finished]] = it - 1
        converged[active[finished]] = True
        moving = ~done & ~ill
        hess[~moving] = np.eye(k)  # rows leaving now: keep solve regular
        step = np.linalg.solve(hess, grad[..., None])[..., 0]
        # a row whose halvings all fail takes the step at 0.5 ** MAX_HALVINGS
        scale = np.ones(len(active))
        new_ll = np.empty(len(active))
        halving = np.flatnonzero(moving)
        for _ in range(MAX_HALVINGS):
            h = halving
            trial = log_likelihood(X[h], y[h],
                                   gamma[h] + scale[h, None] * step[h])
            better = trial >= ll[h]
            new_ll[h[better]] = trial[better]
            halving = h[~better]
            scale[halving] *= 0.5
            if not len(halving):
                break
        gamma = gamma + scale[:, None] * step
        if len(halving):
            new_ll[halving] = log_likelihood(X[halving], y[halving],
                                             gamma[halving])
        ll = new_ll
        # np.linalg.norm's sum for one vector, so the test reads the same
        # in any stack
        norm = np.sqrt((gamma[:, None, :] @ gamma[..., None])[:, 0, 0])
        diverged = moving & (norm > DIVERGENCE_NORM)
        for bad, message in (
                (separated, "all outcomes fitted exactly; outcomes are "
                            "separable"),
                (ill, "Hessian became numerically singular"),
                (diverged, "estimate diverged; outcomes are likely "
                           "separable")):
            errors.update({int(j): PerfectSeparation(message)
                           for j in active[bad]})
        keep = moving & ~diverged
        active, X, y, gamma, ll = (a[keep] for a in (active, X, y, gamma, ll))
        if not len(active):
            break
    mu = _probabilities(X, gamma)
    grad = (X.swapaxes(1, 2) @ (y - mu)[..., None])[..., 0] / T
    gamma_out[active] = gamma
    converged[active] = np.abs(grad).max(axis=1) <= tol
    return gamma_out, iterations, converged, errors


def plugin_hessian(X, gamma):
    """Weighted Gram matrix (1/T) sum_t w_t z_t z_t' with logistic weights,
    of one (T, k) design at gamma (k,) or of each row of a stack."""
    X = np.asarray(X, dtype=float)
    mu = _probabilities(X, np.asarray(gamma, dtype=float))
    return _weighted_gram(X, mu * (1.0 - mu))


def logistic_covariance(X,
                        estimate: CoefficientEstimate) -> UncertaintyEstimate:
    """Inverse of the plug-in Hessian; asymptotic variance of the MLE.

    X is the (n, T, k) stack of the estimate (any other shape raises
    DimensionMismatch) and sigma is the (n, k, k) stack: failed
    maps the rows whose plug-in Hessian is numerically singular to
    SingularHessian, and those rows and the rows the fit failed read 0.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 3 or estimate.gamma.shape != (X.shape[0], X.shape[2]):
        raise DimensionMismatch("design/estimate shape mismatch")
    n, _, k = X.shape
    hess = plugin_hessian(X, estimate.gamma)
    unusable = np.zeros(n, dtype=bool)
    unusable[list(estimate.failed)] = True
    lost = ~unusable
    lost[lost] = np.linalg.cond(hess[lost]) > MAX_CONDITION
    failed = {int(i): SingularHessian(
        "weighted Gram matrix is numerically singular")
        for i in np.flatnonzero(lost)}
    unusable |= lost
    hess[unusable] = np.eye(k)
    sigma = np.linalg.inv(hess)
    sigma = 0.5 * (sigma + sigma.swapaxes(1, 2))
    sigma[unusable] = 0.0
    return UncertaintyEstimate(sigma, failed=failed)
