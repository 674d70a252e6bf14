"""Quantile regression fits, the density sandwich, and the pooled model.

Every fit runs one batched Frisch-Newton interior point: fit_quantile (a
stack of designs at L levels; fit_quantile_bundle is one call at three)
and fit_pooled_quantile (the levels of the pooled model: individual
intercepts, common slopes; Koenker 2004) on a dense (_Stack) or pooled
(_Pooled) design, and one rule decides whether a fit is optimal: the
subgradient certificate. A dense fit is purified to a vertex and keeps it
if it passes the certificate, and the interior-point fit otherwise; every
pooled level takes its lower vertex, each intercept the lower sample
quantile of its residuals at the purified common slopes. A dense row that
fails the certificate is reported, a pooled level raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .types import (
    MAX_CONDITION,
    CoefficientEstimate,
    DegenerateOutcome,
    DimensionMismatch,
    NonConvergence,
    NonFiniteCovariance,
    QuantileFitBundle,
    SingularB,
    SingularDesign,
    UncertaintyEstimate,
    blocks,
    check_count,
    check_stack,
    ill_conditioned,
    screen_rows,
)

# a difference-quotient denominator below this has crossed: its observation
# drops out of the density-weighted Gram matrix
DENSITY_DENOM_FLOOR = 1e-6
# the Hall-Sheather bandwidth is that of a (1 - alpha) confidence interval
HALL_SHEATHER_ALPHA = 0.05

# iterations after which a problem is purified wherever it stands
IP_MAX_ITER = 50
# a problem stops once its duality gap is below IP_GAP_TOL * T * max|y|
IP_GAP_TOL = 1e-10
# fraction of the distance to the boundary an interior-point step takes
IP_STEP = 0.99995
# subgradient certificate tolerance of a fit (times n for a pooled level)
CERT_TOL = 1e-6


def check_loss(u, tau: float):
    """Asymmetric absolute loss (tau - 1{u <= 0}) * u."""
    u = np.asarray(u, dtype=float)
    return np.where(u > 0, tau * u, (tau - 1.0) * u)


def quantile_objective(X, y, gamma, tau: float) -> float:
    """Average check loss of the residuals at gamma."""
    return float(np.mean(check_loss(np.asarray(y) - np.asarray(X) @ gamma, tau)))


def lower_sample_quantile(y, tau):
    """Left-continuous sample quantile along the last axis of y (..., T),
    the lower vertex of the minimizer set; tau is a scalar or an array with
    y's leading axes, either broadcasting against the other."""
    ys = np.sort(np.asarray(y, dtype=float), axis=-1)
    h = np.asarray(tau, dtype=float) * ys.shape[-1]
    k = np.where(np.abs(h - np.round(h)) < 1e-9, np.round(h), np.ceil(h))
    index = np.maximum(k, 1).astype(int) - 1
    index = np.broadcast_to(index, np.broadcast_shapes(k.shape, ys.shape[:-1]))
    return np.take_along_axis(ys, index[..., None], axis=-1)[..., 0]


def subgradient_certificate(X, y, gamma, tau, tol: float | None = None):
    """Optimality check: per column j the score must be dominated by the
    interpolated observations, |sum_t x_tj (tau - 1{r_t < 0})| <=
    sum_{t: r_t = 0} |x_tj| + tol. A residual counts as zero when
    |r_t| <= 1e-8 max_t |y_t| (1e-8 for an all-zero y), so the check works at
    any scale of y.

    X is one (T, k) design (returns a bool) or an (m, T, k) stack with y
    (m, T), gamma (m, k) and tau a scalar or (m,) (returns an (m,) mask).
    Without `tol`, CERT_TOL as it stands at the call.
    """
    if tol is None:
        tol = CERT_TOL
    X, y, gamma = (np.asarray(a, dtype=float) for a in (X, y, gamma))
    single = X.ndim == 2
    if single:
        X, y, gamma = X[None], y[None], gamma[None]
    tau = np.broadcast_to(np.asarray(tau, dtype=float), (len(X),))
    ok = _certified(_Stack(X), y, gamma, tau, tol)
    return bool(ok[0]) if single else ok


def _certified(A, y, gamma, tau, tol):
    """subgradient_certificate of a stack of problems (m, N) on design A."""
    r = y - A.mul(gamma)
    scale = np.abs(y).max(axis=1, initial=0.0)
    scale = np.where(scale > 0.0, scale, 1.0)[:, None]
    zero = np.abs(r) <= 1e-8 * scale
    score = A.tmul(tau[:, None] - ((r < 0) & ~zero))
    slack = abs(A).tmul(zero.astype(float))
    return np.all(np.abs(score) <= slack + tol, axis=1)


def hall_sheather_bandwidth(T: int, tau: float) -> float:
    """Hall-Sheather bandwidth for the difference-quotient density estimate,
    clipped so tau +/- d_T stays inside (0.01, 0.99); tau itself must lie
    inside (0.01, 0.99), or no positive bandwidth exists."""
    check_count("T", T)
    if T < 10:
        raise ValueError("bandwidth rule requires T >= 10")
    if not 0.01 < tau < 0.99:
        raise ValueError(f"tau={tau:g} must lie in (0.01, 0.99): the "
                         "Hall-Sheather bandwidth keeps tau +/- d_T inside it")
    z = _ndtri(1.0 - HALL_SHEATHER_ALPHA / 2.0)
    q = _ndtri(tau)
    # the normal density on a one-element array, as scipy.stats evaluates it
    # (numpy's array exp can differ from the scalar one in the last bit)
    density = (np.exp(-np.array([q]) ** 2 / 2.0) / np.sqrt(2.0 * np.pi))[0]
    d = T ** (-1.0 / 3.0) * z ** (2.0 / 3.0) * (
        1.5 * density ** 2 / (2.0 * q ** 2 + 1.0)) ** (1.0 / 3.0)
    return float(min(d, tau - 0.01, 0.99 - tau))


# Cephes ndtri (Moshier), as scipy.special.ndtri evaluates it: the
# rational approximations in |p - 1/2| <= 1/2 - e^-2 (P0/Q0) and, in the
# tails down to p = e^-32, in 1/x with x = sqrt(-2 log p) (P1/Q1); each Q
# leads with the monic 1.0 that Cephes' p1evl implies
_EXP_M2 = 0.13533528323661269189
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
             -5.66762857469070293439e1, 1.39312609387279679503e1,
             -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2,
             2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
             5.71628192246421288162e1, 4.40805073893200834700e1,
             1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2,
             -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1,
             2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)


def _polevl(x, coef):
    """Horner evaluation of the polynomial with coefficients `coef`, the
    highest power first, in Cephes' order of operations."""
    value = coef[0]
    for c in coef[1:]:
        value = value * x + c
    return value


def _ndtri(p):
    """The standard normal quantile of p, bit for bit scipy.special.ndtri,
    for e^-32 < p < 1 - e^-32 (about 1.3e-14 from either end); the
    bandwidth calls it only at tau in (0.01, 0.99) and at 1 - alpha / 2."""
    upper = p > 1.0 - _EXP_M2
    y = 1.0 - p if upper else p
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _NDTRI_P0) / _polevl(y2, _NDTRI_Q0))
        return x * 2.50662827463100050242  # sqrt(2 pi)
    x = math.sqrt(-2.0 * math.log(y))
    z = 1.0 / x
    x = x - math.log(x) / x - z * _polevl(z, _NDTRI_P1) / _polevl(z, _NDTRI_Q1)
    return x if upper else -x


def fit_quantile(X, y, tau):
    """Minimize the average check loss of each design of a stack at each
    level: X (n, T, k), y (n, T) and tau a 1-D sequence of L >= 1 levels
    in (0, 1); any other shape raises DimensionMismatch. All L n fits run as
    one batched solve (_fit_stack). Returns gammas (L, n, k), certified
    (L, n), the fits that pass the subgradient certificate, and failed,
    {row: EstimationError} of the rows that cannot be fit (SingularDesign
    for a non-finite or rank deficient design, DegenerateOutcome for a
    non-finite response, NonConvergence), which read 0 and are uncertified
    at every level.
    """
    X, y = check_stack(X, y)
    levels = _levels(tau)
    n, _, k = X.shape
    rows, failed = screen_rows(X, [
        (~np.isfinite(X).all(axis=(1, 2)), SingularDesign,
         "design matrix has non-finite entries"),
        (~np.isfinite(y).all(axis=1), DegenerateOutcome,
         "response has non-finite entries")])
    gammas = np.zeros((len(levels), n, k))
    certified = np.zeros((len(levels), n), dtype=bool)
    problems = np.tile(rows, len(levels))
    gamma, ok, errors = _fit_stack(X, y, problems,
                                   np.repeat(levels, len(rows)))
    gammas[:, rows] = gamma.reshape(len(levels), len(rows), k)
    certified[:, rows] = ok.reshape(len(levels), len(rows))
    for problem, exc in errors.items():
        failed.setdefault(int(problems[problem]), exc)
    gammas[:, list(failed)] = 0.0
    certified[:, list(failed)] = False
    return gammas, certified, failed


def _levels(tau):
    """tau as an (L,) array of one or more levels in (0, 1)."""
    levels = np.asarray(tau, dtype=float)
    if levels.ndim != 1:
        raise DimensionMismatch("tau must be a sequence of levels")
    if not levels.size:
        raise ValueError("tau must hold at least one level")
    if not np.all((0.0 < levels) & (levels < 1.0)):
        raise ValueError("tau must lie in (0, 1)")
    return levels


def fit_quantile_bundle(X, y, tau: float) -> QuantileFitBundle:
    """Fit at tau and tau +/- d_T, d_T the Hall-Sheather bandwidth, by one
    fit_quantile call on the (n, T, k) stack X with responses y (n, T).
    bundle.failed is fit_quantile's, plus NonConvergence for each other row
    whose three fits do not all pass the certificate; those rows read 0 at
    every level. Each level's converged holds when all its rows pass."""
    X, y = check_stack(X, y)
    d_T = hall_sheather_bandwidth(X.shape[1], tau)
    levels = (tau, tau + d_T, tau - d_T)
    gammas, certified, failed = fit_quantile(X, y, levels)
    for i in np.flatnonzero(~certified.all(axis=0)):
        failed.setdefault(int(i), NonConvergence(
            "subgradient certificate failed"))
    gammas[:, list(failed)] = 0.0
    fits = [CoefficientEstimate(g, tau=level, converged=bool(c.all()))
            for g, level, c in zip(gammas, levels, certified)]
    return QuantileFitBundle(*fits, d_T, failed=failed)


def _fit_stack(X, y, rows, taus):
    """Quantile fits of problems (X[rows[j]], y[rows[j]], taus[j]).

    Blocks of problems (types.blocks) of T * k design entries each run the
    batched interior point, and each fit is purified to its vertex. The
    vertex is kept if it passes the subgradient certificate (at CERT_TOL);
    otherwise the interior-point fit is kept, which at the centre of a tied
    face has a zero score, and is certified only if it passes in turn.
    Returns gammas (m, k), certificates (m,) and {problem: NonConvergence}
    of the blocks whose interior point met an exactly singular normal
    matrix (they read 0). Every problem's arithmetic is independent of the
    others, so a fit is the same in any stack.
    """
    m = len(rows)
    T, k = X.shape[1:]
    gammas = np.zeros((m, k))
    certified = np.zeros(m, dtype=bool)
    errors = {}
    for chunk in blocks(m, T * k):
        A = _Stack(X[rows[chunk]])
        yc, tc = y[rows[chunk]], taus[chunk]
        try:
            fit = _interior_point(A, yc, tc)
            vertex = _purify(A, yc, fit)
        except np.linalg.LinAlgError as exc:
            failure = NonConvergence(f"interior point failed: {exc}")
            errors.update(dict.fromkeys(range(m)[chunk], failure))
            continue
        ok = _certified(A, yc, vertex, tc, CERT_TOL)
        back = ~ok
        vertex[back] = fit[back]
        ok[back] = _certified(A.take(back), yc[back], fit[back], tc[back],
                              CERT_TOL)
        gammas[chunk], certified[chunk] = vertex, ok
    return gammas, certified, errors


class _Stack:
    """An (m, T, k) stack of dense designs, one per problem."""

    def __init__(self, X):
        self.X = X
        self.width = X.shape[2]

    def __abs__(self):
        return _Stack(np.abs(self.X))

    def take(self, keep):
        return _Stack(self.X[keep])

    def mul(self, lam):
        """X lambda of each problem: (m, k) -> (m, T)."""
        return (self.X @ lam[..., None])[..., 0]

    def tmul(self, a):
        """X'a of each problem: (m, T) -> (m, k)."""
        return (a[:, None, :] @ self.X)[:, 0]

    def solver(self, d):
        """Solver of X' diag(d) X u = rhs, d (m, T) or (1, T)."""
        X = self.X
        normal = (X * d[..., None]).swapaxes(1, 2) @ X
        return lambda rhs: np.linalg.solve(normal, rhs[..., None])[..., 0]

    def basis(self, h):
        """Solver of X_h u = b for the basis rows h (m, k), and the mask of
        bases with condition number <= MAX_CONDITION (the others solve
        against the identity)."""
        Xh = np.take_along_axis(self.X, h[..., None], axis=1)
        ok = np.linalg.cond(Xh) <= MAX_CONDITION
        Xh[~ok] = np.eye(self.width)
        return lambda b: np.linalg.solve(Xh, b[..., None])[..., 0], ok


class _Pooled:
    """The pooled design Z = [I_n kron 1_T, x] shared by every problem.

    x is (n, T, p), observations run individual-major (row i*T + t), and the
    coefficients are (alpha_1..alpha_n, beta). Z'a is the per-individual
    sums of a plus sum a x, Z lambda is alpha_i + x_it beta, and the normal
    matrix Z' diag(d) Z is a diagonal n-block plus a p x p block, solved
    through its p x p Schur complement: O(nTp^2) per solve, and no dense
    Z is ever formed.
    """

    def __init__(self, x):
        self.x = x
        self.n, self.T, self.p = x.shape
        self.flat = x.reshape(-1, self.p)
        self.width = self.n + self.p

    def __abs__(self):
        return _Pooled(np.abs(self.x))

    def take(self, keep):
        return self  # every problem shares the design

    def mul(self, lam):
        n = self.n
        fitted = (self.flat @ lam[:, n:, None])[..., 0]
        return (fitted.reshape(len(lam), n, self.T)
                + lam[:, :n, None]).reshape(len(lam), -1)

    def tmul(self, a):
        sums = a.reshape(len(a), self.n, self.T).sum(axis=2)
        return np.concatenate([sums, a @ self.flat], axis=1)

    def solver(self, d):
        n, T = self.n, self.T
        D = d.reshape(len(d), n, T).sum(axis=2)
        B = (d.reshape(len(d), n, T, 1) * self.x).sum(axis=2)
        BD = B / D[..., None]
        # covariates too large for their Gram matrix leave a non-finite Schur
        # complement: the fit then fails its certificate, which reports it
        with np.errstate(over="ignore", invalid="ignore"):
            C = (self.flat * d[..., None]).swapaxes(1, 2) @ self.flat
            schur = C - BD.swapaxes(1, 2) @ B

        def solve(rhs):
            r1, r2 = rhs[:, :n], rhs[:, n:]
            v = np.linalg.solve(schur, (r2 - (r1[:, None, :] @ BD)[:, 0])
                                [..., None])[..., 0]
            return np.concatenate([r1 / D - (BD @ v[..., None])[..., 0], v],
                                  axis=1)
        return solve

    def basis(self, h):
        """Solver of Z_h u = b for the sorted basis rows h (m, n+p), and the
        mask of usable bases.

        Each individual's intercept is eliminated with its first basis row
        (its pivot), which leaves the p x p system M beta = q of the other p
        rows, M's rows being x_e - x_pivot(e). A basis is usable when every
        individual has a basis row and cond(M) <= MAX_CONDITION; the other
        bases solve against the identity.
        """
        n, p = self.n, self.p
        m = len(h)
        who = h // self.T
        pivot = np.ones(h.shape, dtype=bool)
        pivot[:, 1:] = who[:, 1:] != who[:, :-1]
        ok = pivot.sum(axis=1) == n
        # an unusable basis gets stand-in pivots, so every basis has n
        pivot[~ok] = np.arange(n + p) < n
        # each basis row's pivot is the last pivot at or before it
        ref = np.maximum.accumulate(np.where(pivot, np.arange(n + p), 0),
                                    axis=1)
        pos = np.nonzero(pivot)[1].reshape(m, n)
        extra = np.nonzero(~pivot)[1].reshape(m, p)
        ref = np.take_along_axis(ref, extra, axis=1)
        M = (self.flat[np.take_along_axis(h, extra, axis=1)]
             - self.flat[np.take_along_axis(h, ref, axis=1)])
        ok[ok] = np.linalg.cond(M[ok]) <= MAX_CONDITION
        M[~ok] = np.eye(p)
        xp = self.flat[np.take_along_axis(h, pos, axis=1)]

        def solve(b):
            q = (np.take_along_axis(b, extra, axis=1)
                 - np.take_along_axis(b, ref, axis=1))
            beta = np.linalg.solve(M, q[..., None])[..., 0]
            alpha = (np.take_along_axis(b, pos, axis=1)
                     - (xp @ beta[..., None])[..., 0])
            return np.concatenate([alpha, beta], axis=1)
        return solve, ok


def _max_step(v, dv, u, du):
    """IP_STEP times the longest step along (dv, du) that keeps v and u
    non-negative, capped at 1; v, u > 0, one row per problem."""
    t = np.maximum((-dv / v).max(axis=1), (-du / u).max(axis=1))
    return (IP_STEP / np.maximum(t, IP_STEP))[:, None]


def _interior_point(A, y, tau):
    """Frisch-Newton interior point for a stack of quantile regressions.

    Mehrotra predictor-corrector on quantreg's bounded dual (rq.fit.fnb;
    Portnoy and Koenker 1997): max y'a subject to X'a = (1 - tau) X'1,
    0 <= a <= 1, whose equality multipliers lambda give gamma = -lambda.
    The design A (_Stack or _Pooled) enters only through X'a, X lambda and
    solves with the normal matrix X' diag(d) X; y is (m, N) and tau (m,). A
    problem stops once its duality gap is below IP_GAP_TOL * N * max|y|, or
    after IP_MAX_ITER iterations; the returned gammas (m, k) are then
    purified by _purify.
    """
    m, N = y.shape
    gamma = np.zeros((m, A.width))
    c = -y
    x = np.repeat(1.0 - tau[:, None], N, axis=1)  # primal a, feasible
    s = 1.0 - x  # slack of a <= 1
    b = A.tmul(x)
    # dual start: least squares multipliers, with z - w = c - X lambda split
    # into its positive and negative parts, both lifted off zero
    lam = A.solver(np.ones((1, N)))(A.tmul(c))
    r = c - A.mul(lam)
    tol = np.abs(y).max(axis=1)
    tol = IP_GAP_TOL * np.where(tol > 0.0, tol, 1.0)
    z = np.maximum(r, 0.0) + tol[:, None]
    w = np.maximum(-r, 0.0) + tol[:, None]
    active = np.arange(m)
    for _ in range(IP_MAX_ITER):
        gap = (x * z).sum(axis=1) + (s * w).sum(axis=1)
        done = gap <= N * tol
        if done.any():
            gamma[active[done]] = -lam[done]
            keep = ~done
            active = active[keep]
            if not len(active):
                return gamma
            A = A.take(keep)
            c, x, s, b, lam, z, w, gap, tol = (
                a[keep] for a in (c, x, s, b, lam, z, w, gap, tol))
        rp = b - A.tmul(x)
        rd = c - A.mul(lam) - z + w
        d = 1.0 / (z / x + w / s)
        solve = A.solver(d)

        def direction(q):
            dlam = solve(rp - A.tmul(d * q))
            return dlam, d * (A.mul(dlam) + q)

        # predictor: the affine scaling direction (target mu = 0)
        dlam, dx = direction(w - z - rd)
        dz = -z * (1.0 + dx / x)
        dw = -w * (1.0 - dx / s)
        ap = _max_step(x, dx, s, -dx)
        ad = _max_step(z, dz, w, dw)
        predicted = (((x + ap * dx) * (z + ad * dz)).sum(axis=1)
                     + ((s - ap * dx) * (w + ad * dw)).sum(axis=1))
        mu = (predicted / gap) ** 3 * gap / (2 * N)
        # corrector: centring towards mu plus the second-order terms
        rxz = mu[:, None] - x * z - dx * dz
        rsw = mu[:, None] - s * w + dx * dw
        dlam, dx = direction(rxz / x - rsw / s - rd)
        dz = (rxz - z * dx) / x
        dw = (rsw + w * dx) / s
        ap = _max_step(x, dx, s, -dx)
        ad = _max_step(z, dz, w, dw)
        x = x + ap * dx
        s = s - ap * dx
        lam = lam + ad * dlam
        z = z + ad * dz
        w = w + ad * dw
    gamma[active] = -lam
    return gamma


def _purify(A, y, gamma):
    """Move each approximate fit to the vertex through its k smallest
    |residuals|: gamma_h solves X_h gamma = y_h on those basis rows h. The
    design A supplies the basis solve (A.basis); a fit whose basis is
    unusable stays where it stands. Returns the vertices (m, k); whether a
    vertex is a minimizer is for the subgradient certificate to decide.
    """
    k = A.width
    r = y - A.mul(gamma)
    h = np.sort(np.argpartition(np.abs(r), k - 1, axis=1)[:, :k], axis=1)
    solve, ok = A.basis(h)
    vertex = solve(np.take_along_axis(y, h, axis=1))
    vertex[~ok] = gamma[~ok]
    return vertex


def hk_covariance(bundle: QuantileFitBundle, X) -> UncertaintyEstimate:
    """Density sandwich B^{-1} H B^{-1} with difference-quotient densities.

    X is the (n, T, k) stack of the bundle (any other shape raises
    DimensionMismatch) and sigma is the (n, k, k) stack. Only the rows the
    bundle kept are computed: an observation whose quotient has crossed
    (denominator below DENSITY_DENOM_FLOOR) drops out of B, failed maps the
    rows whose B is then singular to SingularB and those whose sandwich
    overflows to NonFiniteCovariance, and those rows and the bundle's failed
    rows read 0. crossed flags every other row with a crossed quotient, and
    degenerate is crossed.any().
    """
    X = np.asarray(X, dtype=float)
    delta = bundle.upper.gamma - bundle.lower.gamma
    if X.ndim != 3 or delta.shape != (X.shape[0], X.shape[2]):
        raise DimensionMismatch("design/bundle shape mismatch")
    n, T, k = X.shape
    tau = bundle.center.tau
    rows = np.setdiff1d(np.arange(n), list(bundle.failed))
    X = X[rows]
    denom = (X @ delta[rows, :, None])[..., 0]
    crossed = denom < DENSITY_DENOM_FLOOR
    f_hat = 2.0 * bundle.bandwidth / np.where(crossed, np.inf, denom)
    B = (X * f_hat[..., None]).swapaxes(1, 2) @ X / T
    lost = ill_conditioned(B)
    failed = {int(i): SingularB(
        "density-weighted Gram matrix is numerically singular")
        for i in rows[lost]}
    rows, X, B, crossed = (a[~lost] for a in (rows, X, B, crossed))
    H = tau * (1.0 - tau) * (X.swapaxes(1, 2) @ X) / T
    Binv = np.linalg.inv(B)
    with np.errstate(over="ignore", invalid="ignore"):
        sandwich = Binv @ H @ Binv
        sandwich = 0.5 * (sandwich + sandwich.swapaxes(1, 2))
    finite = np.isfinite(sandwich).all(axis=(1, 2))
    failed.update({int(i): NonFiniteCovariance("sandwich is not finite")
                   for i in rows[~finite]})
    sigma = np.zeros((n, k, k))
    sigma[rows[finite]] = sandwich[finite]
    flags = np.zeros(n, dtype=bool)
    flags[rows[finite]] = crossed[finite].any(axis=1)
    return UncertaintyEstimate(sigma, degenerate=bool(flags.any()),
                               crossed=flags, failed=failed)


@dataclass
class PooledQuantileFit:
    """Joint fit with individual intercepts and a common slope at L levels
    tau (L,): alphas (L, n) and beta (L, p)."""

    alphas: np.ndarray
    beta: np.ndarray
    tau: np.ndarray
    converged: bool = True


def fit_pooled_quantile(y, x, tau) -> PooledQuantileFit:
    """Minimize the pooled check loss over (alpha_1..alpha_n, beta).

    y is (n, T), x (n, T, p) with p >= 0 and tau a sequence of L >= 1
    levels (any other shape raises DimensionMismatch). With p = 0 the
    problem separates into n intercept-only fits solved in closed form.
    Otherwise the levels run as one stack in the batched interior point on
    the pooled design (_fit_pooled_levels). Raises SingularDesign when a
    covariate is not finite or collinear with the intercepts (the
    covariates' deviations from each individual's first period are rank
    deficient), DegenerateOutcome (naming the first individual) when a
    response is not finite, and NonConvergence when the interior point
    meets an exactly singular normal matrix or a level fails the
    subgradient certificate (tolerance CERT_TOL * n), so a returned fit has
    converged=True.
    """
    x, y = check_stack(x, y)
    n, T, p = x.shape
    levels = _levels(tau)
    if n * T < n + p + 1:
        raise SingularDesign("too few observations for the pooled fit")
    if not np.isfinite(x).all():
        raise SingularDesign("design matrix has non-finite entries")
    bad = np.flatnonzero(~np.isfinite(y).all(axis=1))
    if len(bad):
        raise DegenerateOutcome("response has non-finite entries "
                                f"(individual {bad[0]})")

    if p == 0:
        alphas = lower_sample_quantile(y[None], levels[:, None])
        beta = np.zeros((len(levels), 0))
    else:
        if np.linalg.matrix_rank((x - x[:, :1]).reshape(-1, p)) < p:
            raise SingularDesign(
                "a covariate is collinear with the individual intercepts")
        gamma = _fit_pooled_levels(y, x, levels)
        alphas, beta = gamma[:, :n], gamma[:, n:]
    return PooledQuantileFit(alphas, beta, levels)


def _fit_pooled_levels(y, x, levels):
    """Pooled fits (L, n+p) of the levels as one stack on the _Pooled
    design, each at its lower vertex.

    At the interior-point slopes each alpha_i is set to the lower sample
    quantile of y_i - x_i beta, and the fit is purified once, so the slopes
    are an exact vertex whatever stack the level is solved in (an unusable
    basis keeps the interior-point slopes); the intercepts then follow by
    the same rule at those slopes. Where the minimizer is unique this is it;
    where it is not (the centre level whenever tau T is an integer) each
    intercept sits at the lower end of its interval of minimizers, as in
    the p = 0 closed form. An
    exactly singular normal matrix, or a level that fails the subgradient
    certificate (at CERT_TOL * n), raises NonConvergence.
    """
    A = _Pooled(x)
    Y = np.tile(y.reshape(1, -1), (len(levels), 1))

    def lower(beta):
        fitted = (x[None] @ beta[:, None, :, None])[..., 0]
        return np.concatenate(
            [lower_sample_quantile(y - fitted, levels[:, None]), beta], axis=1)

    try:
        gamma = lower(_interior_point(A, Y, levels)[:, A.n:])
        gamma = lower(_purify(A, Y, gamma)[:, A.n:])
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"interior point failed: {exc}") from exc
    failed = levels[~_certified(A, Y, gamma, levels, CERT_TOL * len(y))]
    if len(failed):
        raise NonConvergence(f"pooled fit at tau={failed[0]:g} fails its "
                             "subgradient certificate")
    return gamma


def intercept_variance(alpha_plus, alpha_minus, tau: float,
                       d_T: float) -> np.ndarray:
    """Sample-quantile asymptotic variance from the intercept difference
    quotient: tau(1-tau) * ((alpha_plus - alpha_minus) / (2 d_T))^2.

    alpha_plus and alpha_minus are the (n,) intercepts of n individuals;
    returns their (n, 1, 1) variances, which EstimateTable checks once; a
    variance that overflows reads inf, without a warning.
    """
    if not np.isfinite(d_T):
        raise ValueError("bandwidth must be finite")
    if d_T <= 0:
        raise ValueError("bandwidth must be positive")
    with np.errstate(over="ignore"):
        diff = (np.asarray(alpha_plus, dtype=float)
                - np.asarray(alpha_minus, dtype=float)) / (2.0 * d_T)
        # float_power squares with libm pow, as a float's ** does, so a value
        # is the same alone or in an array (np.square can differ by an ulp)
        variance = tau * (1.0 - tau) * np.float_power(diff, 2)
    return np.reshape(variance, (-1, 1, 1))
