"""The pooled (model3) fits on the batched interior point against HiGHS on
the sparse design, which they replace wherever the vertex is unique."""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from panelcluster import quantile
from panelcluster.quantile import (
    _Pooled,
    _solve_qr_dual,
    fit_pooled_quantile,
    hall_sheather_bandwidth,
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
    """The reference: HiGHS on the sparse pooled LP, (n + p,)."""
    return _solve_qr_dual(sparse_design(x), y.reshape(-1), tau)


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


@pytest.mark.parametrize("T", [30, 60, 61])
@pytest.mark.parametrize("error_dist", ["normal", "t3"])
def test_levels_match_highs_reference(T, error_dist):
    panel, _ = gen_model3(30, T, error_dist, seed=T)
    y, x = panel.responses, panel.covariates
    for tau in (0.25, 0.5, 0.75):
        fit = fit_pooled_quantile(y, x, levels(T, tau))
        assert fit.converged is True
        for j, level in enumerate(levels(T, tau)):
            ref = highs(y, x, level)
            assert np.abs(coefficients(fit, j) - ref).max() \
                <= 1e-13 * np.abs(ref).max()
        # a level is the same alone as in the stack
        one = fit_pooled_quantile(y, x, [tau])
        assert np.array_equal(one.alphas[0], fit.alphas[0])
        assert np.array_equal(one.beta[0], fit.beta[0])


def test_two_covariates_match_highs_reference():
    y, x = two_covariate_panel()
    fit = fit_pooled_quantile(y, x, levels(40, 0.5))
    for j, level in enumerate(levels(40, 0.5)):
        ref = highs(y, x, level)
        assert np.abs(coefficients(fit, j) - ref).max() \
            <= 1e-13 * np.abs(ref).max()


def test_rejected_vertex_gives_exactly_highs(monkeypatch):
    panel, _ = gen_model3(30, 61, "normal", seed=2)
    y, x = panel.responses, panel.covariates
    purify = quantile._purify

    def reject_level_1(A, Y, tau, gamma):
        vertex, ok = purify(A, Y, tau, gamma)
        ok[1] = False
        return vertex, ok

    monkeypatch.setattr(quantile, "_purify", reject_level_1)
    fit = fit_pooled_quantile(y, x, levels(61, 0.5))
    assert np.array_equal(coefficients(fit, 1),
                          highs(y, x, levels(61, 0.5)[1]))


def test_basis_test_rejects_a_vertex_that_is_not_the_minimizer():
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
        got, ok = quantile._purify(_Pooled(x), y.reshape(1, -1),
                                   np.array([0.5]), gamma[None])
        assert ok.tolist() == [accepted]
        assert np.abs(got[0] - gamma).max() <= 1e-13 * np.abs(gamma).max()


def test_singular_schur_complement_sends_levels_to_highs(monkeypatch):
    panel, _ = gen_model3(30, 61, "t3", seed=4)
    y, x = panel.responses, panel.covariates

    def singular(self, d=None):
        def solve(rhs):
            schur = np.zeros((len(rhs), self.p, self.p))
            return np.linalg.solve(schur, rhs[:, self.n:, None])
        return solve

    monkeypatch.setattr(_Pooled, "solver", singular)
    fit = fit_pooled_quantile(y, x, levels(61, 0.5))
    for j, level in enumerate(levels(61, 0.5)):
        assert np.array_equal(coefficients(fit, j), highs(y, x, level))


def test_failed_certificate_raises_nonconvergence(monkeypatch):
    panel, _ = gen_model3(9, 30, "normal", seed=5)

    def wrong_highs(Z, y, tau):
        return np.zeros(Z.shape[1])

    # tau T = 15: the centre level goes to HiGHS, which returns a non-optimum
    monkeypatch.setattr(quantile, "_solve_qr_dual", wrong_highs)
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
    solve, solve_t, ok = A.basis(np.stack([h, np.arange(n + p)]))
    assert ok.tolist() == [True, False]  # the second misses individuals
    Zh = Z[h]
    b = rng.normal(size=n + p)
    assert np.allclose(solve(np.stack([b, b]))[0], np.linalg.solve(Zh, b))
    assert np.allclose(solve_t(np.stack([b, b]))[0],
                       np.linalg.solve(Zh.T, b))


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
