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
    blocks,
    check_stack,
    ill_conditioned,
    screen_rows,
)

# declare divergence (perfect separation) when the iterate leaves this ball
DIVERGENCE_NORM = 30.0
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
    (_newton), in blocks of rows (types.blocks) of T * k design entries
    each. A row fails with DegenerateOutcome when its y is constant or has
    an outcome other than 0 or 1 (NaN included), SingularDesign when its X
    is not finite or rank deficient, PerfectSeparation when its outcomes
    are separated or its iterate diverges, and NonConvergence when its
    gradient is not within GRADIENT_TOL after MAX_ITER steps. gamma is
    (n, k) with the failed rows read 0, failed maps each failed row to its
    error, and iterations sums the steps of the other rows.
    """
    X, y = check_stack(X, y)
    n, T, k = X.shape
    rows, failed = screen_rows(X, [
        # NaN fails both comparisons, so a non-finite outcome is invalid too
        (~np.all((y == 0.0) | (y == 1.0), axis=1), DegenerateOutcome,
         "outcomes must be 0 or 1"),
        (y.min(axis=1) == y.max(axis=1), DegenerateOutcome,
         "response is constant; drop this individual"),
        (~np.isfinite(X).all(axis=(1, 2)), SingularDesign,
         "design matrix has non-finite entries")])
    gamma = np.zeros((n, k))
    iterations = 0
    for block in blocks(len(rows), T * k):
        chunk = rows[block]
        gamma[chunk], steps, errors = _newton(X[chunk], y[chunk])
        iterations += steps
        failed.update({int(chunk[j]): exc for j, exc in errors.items()})
    return CoefficientEstimate(gamma, converged=not failed,
                               iterations=iterations, failed=failed)


def _newton(X, y):
    """Damped Newton iterations of a stack: X (m, T, k), y (m, T).

    Each row starts at 0 and steps by H^{-1} g, halving the step up to
    MAX_HALVINGS times until the likelihood does not fall; only the rows
    still halving evaluate it again. A row leaves the working set once its
    gradient is within GRADIENT_TOL or it fails (PerfectSeparation), and
    fails with NonConvergence if its gradient is not within GRADIENT_TOL
    after MAX_ITER steps. Returns the iterates (m, k) of the converged rows
    (the failed rows read 0), the steps those rows took in sum, and
    {row: EstimationError} of the failed rows. Every row's arithmetic is
    independent of the others, so a fit is the same in any stack.
    """
    m, T, k = X.shape
    gamma_out = np.zeros((m, k))
    steps = 0
    errors = {}
    active = np.arange(m)
    gamma = np.zeros((m, k))
    ll = log_likelihood(X, y, gamma)
    for it in range(MAX_ITER + 1):  # it: the steps taken so far
        mu = _probabilities(X, gamma)
        residual = y - mu
        grad = (X.swapaxes(1, 2) @ residual[..., None])[..., 0] / T
        done = np.abs(grad).max(axis=1) <= GRADIENT_TOL
        # the separation test reuses the probabilities of this iterate
        separated = done & (np.abs(residual).max(axis=1) < SEPARATION_MARGIN)
        finished = done & ~separated
        gamma_out[active[finished]] = gamma[finished]
        steps += it * int(finished.sum())
        errors.update({int(j): PerfectSeparation(
            "all outcomes fitted exactly; outcomes are separable")
            for j in active[separated]})
        if it == MAX_ITER:
            errors.update({int(j): NonConvergence(
                f"Newton iterations did not converge in {MAX_ITER} steps")
                for j in active[~done]})
            break
        hess = _weighted_gram(X, mu * (1.0 - mu))
        ill = ~done & ill_conditioned(hess)
        moving = ~done & ~ill
        hess[~moving] = np.eye(k)  # rows leaving now: keep solve regular
        step = np.linalg.solve(hess, grad[..., None])[..., 0]
        # a row whose halvings all fail takes the step at 0.5 ** MAX_HALVINGS
        scale = np.ones(len(active))
        new_ll = np.empty(len(active))
        halving = np.flatnonzero(moving)
        for _ in range(MAX_HALVINGS):
            h = halving
            # no gather while every row halves, as on most first trials
            Xh, yh = (X, y) if len(h) == len(X) else (X[h], y[h])
            trial = log_likelihood(Xh, yh,
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
                (ill, "Hessian became numerically singular"),
                (diverged, "estimate diverged; outcomes are likely "
                           "separable")):
            errors.update({int(j): PerfectSeparation(message)
                           for j in active[bad]})
        keep = moving & ~diverged
        active, X, y, gamma, ll = (a[keep] for a in (active, X, y, gamma, ll))
        if not len(active):
            break
    return gamma_out, steps, errors


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
    DimensionMismatch) and sigma is the (n, k, k) stack. Only the rows the
    fit kept are computed: failed maps those whose plug-in Hessian is
    numerically singular to SingularHessian, and those rows and the rows
    the fit failed read 0.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 3 or estimate.gamma.shape != (X.shape[0], X.shape[2]):
        raise DimensionMismatch("design/estimate shape mismatch")
    n, _, k = X.shape
    rows = np.setdiff1d(np.arange(n), list(estimate.failed))
    hess = plugin_hessian(X[rows], estimate.gamma[rows])
    lost = ill_conditioned(hess)
    failed = {int(i): SingularHessian(
        "weighted Gram matrix is numerically singular") for i in rows[lost]}
    inverse = np.linalg.inv(hess[~lost])
    sigma = np.zeros((n, k, k))
    sigma[rows[~lost]] = 0.5 * (inverse + inverse.swapaxes(1, 2))
    return UncertaintyEstimate(sigma, failed=failed)
