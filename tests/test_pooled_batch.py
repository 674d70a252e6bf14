"""The pooled (model3) fits on the batched interior point against HiGHS on
the sparse design: equal wherever the vertex is unique, and at a tied level
the same slopes and check loss, with the lower-vertex intercepts."""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from panelcluster import quantile
from panelcluster.quantile import (
    _Pooled,
    fit_pooled_quantile,
    hall_sheather_bandwidth,
    lower_sample_quantile,
    quantile_objective,
    subgradient_certificate,
)
from panelcluster.simulation import gen_model3
from panelcluster.types import NonConvergence, SingularDesign


def sparse_design(x):
    n, T, p = x.shape
    return sparse.hstack([sparse.kron(sparse.eye(n, format="csr"),
                                      np.ones((T, 1)), format="csr"),
                          sparse.csr_matrix(x.reshape(-1, p))], format="csr")


def highs(y, x, tau):
    """The reference: HiGHS on the sparse pooled LP, (n + p,). It solves the
    bounded dual max y'a s.t. Z'a = 0, a in [tau - 1, tau]; the coefficients
    are the marginals of the equality constraints."""
    Z = sparse_design(x)
    res = linprog(-y.reshape(-1), A_eq=Z.T.tocsr(), b_eq=np.zeros(Z.shape[1]),
                  bounds=(tau - 1.0, tau), method="highs")
    assert res.status == 0, res.message
    return -np.asarray(res.eqlin.marginals, dtype=float)


def coefficients(fit, j):
    return np.concatenate([fit.alphas[j], fit.beta[j]])


def levels(T, tau):
    d = hall_sheather_bandwidth(T, tau)
    return (tau, tau + d, tau - d)


def two_covariate_panel(n=12, T=40, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, T, 2))
    alpha = rng.integers(-1, 2, size=(n, 1)).astype(float)
    y = alpha + x @ np.array([0.5, -1.0]) + rng.standard_t(3, size=(n, T))
    return y, x


def assert_matches_highs(y, x, fit, stack_levels):
    """Every level of fit against HiGHS. A level with a unique vertex has
    HiGHS's coefficients. At a tied level (tau T an integer, where each
    intercept may lie anywhere between two order statistics) the slopes and
    the check loss match, every intercept is the lower sample quantile of
    its residuals, the level is the same alone as in the stack, and it is
    certified."""
    n, T, p = x.shape
    Z = sparse_design(x).toarray()
    for j, level in enumerate(stack_levels):
        gamma = coefficients(fit, j)
        ref = highs(y, x, level)
        if abs(level * T - round(level * T)) >= 1e-9:
            assert np.abs(gamma - ref).max() <= 1e-13 * np.abs(ref).max()
            continue
        assert np.abs(gamma[n:] - ref[n:]).max() \
            <= 1e-13 * np.abs(ref[n:]).max()
        loss = quantile_objective(Z, y.reshape(-1), gamma, level)
        best = quantile_objective(Z, y.reshape(-1), ref, level)
        assert abs(loss - best) <= 1e-12 * best
        assert np.array_equal(
            fit.alphas[j], lower_sample_quantile(y - x @ fit.beta[j], level))
        one = fit_pooled_quantile(y, x, [level])
        assert np.array_equal(one.alphas[0], fit.alphas[j])
        assert np.array_equal(one.beta[0], fit.beta[j])
        assert subgradient_certificate(Z, y.reshape(-1), gamma, level,
                                       tol=1e-6 * n)


@pytest.mark.parametrize("T", [30, 60, 61])
@pytest.mark.parametrize("error_dist", ["normal", "t3"])
def test_levels_match_highs_reference(T, error_dist):
    panel, _ = gen_model3(30, T, error_dist, seed=T)
    y, x = panel.responses, panel.covariates
    for tau in (0.25, 0.5, 0.75):
        fit = fit_pooled_quantile(y, x, levels(T, tau))
        assert fit.converged is True
        assert_matches_highs(y, x, fit, levels(T, tau))
        # a level is the same alone as in the stack
        one = fit_pooled_quantile(y, x, [tau])
        assert np.array_equal(one.alphas[0], fit.alphas[0])
        assert np.array_equal(one.beta[0], fit.beta[0])


def test_two_covariates_match_highs_reference():
    y, x = two_covariate_panel()
    fit = fit_pooled_quantile(y, x, levels(40, 0.5))
    assert_matches_highs(y, x, fit, levels(40, 0.5))


def test_rejected_vertex_takes_the_lower_vertex(monkeypatch):
    panel, _ = gen_model3(30, 61, "normal", seed=2)
    y, x = panel.responses, panel.covariates
    plain = fit_pooled_quantile(y, x, levels(61, 0.5))
    purify = quantile._purify
    upper = levels(61, 0.5)[1]

    def reject_upper(A, Y, gamma):
        # the upper level (row 1 of the stack) starts off the minimizer
        gamma = gamma.copy()
        gamma[1, A.n:] += 1e-7
        return purify(A, Y, gamma)

    monkeypatch.setattr(quantile, "_purify", reject_upper)
    fit = fit_pooled_quantile(y, x, levels(61, 0.5))
    # the unique vertex is also the lower one: the rule finds it again
    ref = coefficients(plain, 1)
    assert np.abs(coefficients(fit, 1) - ref).max() \
        <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(
        fit.alphas[1], lower_sample_quantile(y - x @ fit.beta[1], upper))
    for j in (0, 2):
        assert np.array_equal(coefficients(fit, j), coefficients(plain, j))


@pytest.mark.parametrize("T", [60, 61])
def test_every_level_is_its_lower_vertex(T):
    # on this panel the purified vertex of some untied levels differs from
    # the lower-rule intercepts in the last bit
    panel, _ = gen_model3(30, T, "t3", seed=2)
    y, x = panel.responses, panel.covariates
    n = len(y)
    Z = sparse_design(x).toarray()
    for tau in (0.25, 0.5, 0.75):
        fit = fit_pooled_quantile(y, x, levels(T, tau))
        for j, level in enumerate(levels(T, tau)):
            assert np.array_equal(
                fit.alphas[j], lower_sample_quantile(y - x @ fit.beta[j],
                                                     level))
            gamma, ref = coefficients(fit, j), highs(y, x, level)
            if abs(level * T - round(level * T)) >= 1e-9:
                assert np.abs(gamma - ref).max() \
                    <= 1e-10 * np.abs(ref).max()
                continue
            # a tied level: HiGHS may stop at another vertex of the face
            assert np.abs(gamma[n:] - ref[n:]).max() \
                <= 1e-10 * np.abs(ref[n:]).max()
            loss = quantile_objective(Z, y.reshape(-1), gamma, level)
            best = quantile_objective(Z, y.reshape(-1), ref, level)
            assert abs(loss - best) <= 1e-10 * best


def test_unusable_basis_keeps_the_interior_point_slopes(monkeypatch):
    panel, _ = gen_model3(30, 60, "normal", seed=2)
    y, x = panel.responses, panel.covariates
    plain = fit_pooled_quantile(y, x, levels(60, 0.5))
    # no basis is usable, the second purification's included: every level
    # keeps its interior-point slopes, with lower-rule intercepts
    monkeypatch.setattr(quantile, "MAX_CONDITION", 0.0)
    fit = fit_pooled_quantile(y, x, levels(60, 0.5))
    assert np.abs(fit.beta - plain.beta).max() \
        <= 1e-6 * np.abs(plain.beta).max()
    for j, level in enumerate(levels(60, 0.5)):
        assert np.array_equal(
            fit.alphas[j], lower_sample_quantile(y - x @ fit.beta[j], level))


def test_certificate_rejects_a_vertex_that_is_not_the_minimizer():
    panel, _ = gen_model3(30, 61, "normal", seed=9)
    y, x = panel.responses, panel.covariates
    n, T, p = x.shape
    Z = sparse_design(x).toarray()
    best = highs(y, x, 0.5)
    h = np.sort(np.argsort(np.abs(y.reshape(-1) - Z @ best))[:n + p])
    # move the extra basis row of the individual that has two to another of
    # its periods: still a basis, but not the minimizer
    e = h[1:][np.diff(h // T) == 0][0]
    other = e + 1 if e + 1 not in h and (e + 1) // T == e // T else e - 1
    h[h == e] = other
    vertex = np.linalg.solve(Z[np.sort(h)], y.reshape(-1)[np.sort(h)])
    for gamma, accepted in ((best, True), (vertex, False)):
        ok = quantile._certified(_Pooled(x), y.reshape(1, -1), gamma[None],
                                 np.array([0.5]), quantile.CERT_TOL * n)
        assert ok.tolist() == [accepted]


def test_singular_schur_complement_raises_nonconvergence(monkeypatch):
    panel, _ = gen_model3(30, 61, "t3", seed=4)
    y, x = panel.responses, panel.covariates

    def singular(self, d=None):
        def solve(rhs):
            schur = np.zeros((len(rhs), self.p, self.p))
            return np.linalg.solve(schur, rhs[:, self.n:, None])
        return solve

    monkeypatch.setattr(_Pooled, "solver", singular)
    with pytest.raises(NonConvergence, match="Singular matrix"):
        fit_pooled_quantile(y, x, levels(61, 0.5))


def test_failed_certificate_raises_nonconvergence(monkeypatch):
    panel, _ = gen_model3(9, 30, "normal", seed=5)
    purify = quantile._purify

    def wrong_slopes(A, Y, gamma):
        vertex = purify(A, Y, gamma)
        vertex[:, A.n:] += 1.0
        return vertex

    # every vertex is moved off the minimizer
    monkeypatch.setattr(quantile, "_purify", wrong_slopes)
    with pytest.raises(NonConvergence, match="tau=0.5 "):
        fit_pooled_quantile(panel.responses, panel.covariates, [0.5])


@pytest.mark.parametrize("tau", [0.0, 1.0, 1.5, (0.5, -0.1)])
def test_level_outside_the_unit_interval_is_rejected(tau):
    panel, _ = gen_model3(6, 30, "normal", seed=5)
    with pytest.raises(ValueError, match="tau must lie in"):
        fit_pooled_quantile(panel.responses, panel.covariates,
                            np.atleast_1d(tau))


def test_covariate_collinear_with_intercepts_is_singular():
    rng = np.random.default_rng(6)
    y = rng.normal(size=(6, 30))
    constant = np.repeat(rng.normal(size=(6, 1, 1)), 30, axis=1)
    varying = rng.normal(size=(6, 30, 1))
    for x in (constant,
              np.concatenate([varying, constant], axis=2),
              np.concatenate([varying, 2.0 * varying + constant], axis=2)):
        with pytest.raises(SingularDesign):
            fit_pooled_quantile(y, x, [0.5])


def test_structured_products_match_the_dense_design():
    y, x = two_covariate_panel(n=5, T=7)
    n, T, p = x.shape
    Z = sparse_design(x).toarray()
    A = _Pooled(x)
    rng = np.random.default_rng(7)
    lam = rng.normal(size=(2, n + p))
    a = rng.normal(size=(2, n * T))
    d = rng.uniform(0.1, 2.0, size=(2, n * T))
    assert np.allclose(A.mul(lam), lam @ Z.T, rtol=0, atol=1e-13)
    assert np.allclose(A.tmul(a), a @ Z, rtol=0, atol=1e-13)
    for weights in (d, None):
        w = np.ones((2, n * T)) if weights is None else weights
        dense = np.linalg.solve((Z.T * w[:, None]) @ Z, lam[..., None])[..., 0]
        assert np.allclose(A.solver(weights)(lam), dense, rtol=1e-10)
    # a basis row per individual plus p more: solves as the dense Z_h does
    h = np.sort(np.concatenate([np.arange(n) * T + 3, [1, 2 * T + 5]]))
    solve, ok = A.basis(np.stack([h, np.arange(n + p)]))
    assert ok.tolist() == [True, False]  # the second misses individuals
    b = rng.normal(size=n + p)
    assert np.allclose(solve(np.stack([b, b]))[0], np.linalg.solve(Z[h], b))


def test_structured_certificate_matches_the_dense_design():
    y, x = two_covariate_panel(n=5, T=9)
    Z = sparse_design(x).toarray()
    tau = 0.4
    gamma = highs(y, x, tau)
    A = _Pooled(x)
    for g in (gamma, gamma + 0.05):
        dense = subgradient_certificate(Z, y.reshape(-1), g, tau, tol=5e-6)
        ok = quantile._certified(A, y.reshape(1, -1), g[None],
                                 np.array([tau]), 5e-6)
        assert ok.tolist() == [dense]
    assert dense is False


def test_memory_stays_small_at_a_thousand_individuals():
    rng = np.random.default_rng(8)
    n, T = 1000, 61
    x = rng.normal(size=(n, T, 1))
    y = (rng.integers(-1, 2, size=(n, 1)) + x[..., 0]
         + rng.normal(size=(n, T)))
    tracemalloc.start()
    try:
        fit = fit_pooled_quantile(y, x, levels(T, 0.5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.alphas.shape == (3, n) and fit.converged
    assert peak < 50e6
