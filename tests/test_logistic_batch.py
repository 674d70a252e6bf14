"""The stacked Newton engine against the one-fit-at-a-time reference it
replaced: every row must get the same bits, iteration count and error, and
the simulator's rounds must draw exactly what the one-at-a-time loop drew."""

import sys

import numpy as np
import pytest

from panelcluster import logistic, simulation, types
from panelcluster.logistic import fit_logistic, logistic_covariance
from panelcluster.simulation import (
    SimulationConfig,
    _fit_logistic_rep,
    gen_logistic,
    make_rng,
)
from panelcluster.types import (
    DegenerateOutcome,
    DimensionMismatch,
    NonConvergence,
    PerfectSeparation,
    SingularDesign,
    SingularHessian,
    ill_conditioned,
)


# --- reference: one design at a time, as before batching ---

def ref_log_likelihood(X, y, gamma):
    eta = X @ gamma
    return float(np.mean(y * eta - np.logaddexp(0.0, eta)))


def ref_gradient_hessian(X, y, gamma):
    eta = X @ gamma
    mu = 1.0 / (1.0 + np.exp(-eta))
    grad = X.T @ (y - mu) / len(y)
    w = mu * (1.0 - mu)
    hess = (X * w[:, None]).T @ X / len(y)
    return grad, hess


def ref_fit_logistic(X, y, max_iter=100, tol=1e-8):
    """(gamma, converged, iterations), raising as the per-fit loop did."""
    if y.min() == y.max():
        raise DegenerateOutcome(
            "response is constant; drop this individual")
    if np.linalg.matrix_rank(X) < X.shape[1]:
        raise SingularDesign("design matrix is rank deficient")
    loglik = sys.modules[__name__].ref_log_likelihood
    gamma = np.zeros(X.shape[1])
    ll = loglik(X, y, gamma)
    for it in range(1, max_iter + 1):
        grad, hess = ref_gradient_hessian(X, y, gamma)
        if np.max(np.abs(grad)) <= tol:
            mu = 1.0 / (1.0 + np.exp(-(X @ gamma)))
            if np.max(np.abs(y - mu)) < 1e-6:
                raise PerfectSeparation(
                    "all outcomes fitted exactly; outcomes are separable")
            return gamma, True, it - 1
        if np.linalg.cond(hess) > 1e12:
            raise PerfectSeparation("Hessian became numerically singular")
        step = np.linalg.solve(hess, grad)
        scale = 1.0
        for _ in range(50):
            candidate = gamma + scale * step
            ll_new = loglik(X, y, candidate)
            if ll_new >= ll:
                break
            scale *= 0.5
        gamma = gamma + scale * step
        ll = loglik(X, y, gamma)
        if np.linalg.norm(gamma) > 30.0:
            raise PerfectSeparation(
                "estimate diverged; outcomes are likely separable")
    grad, _ = ref_gradient_hessian(X, y, gamma)
    return gamma, np.max(np.abs(grad)) <= tol, max_iter


def ref_covariance(X, gamma):
    eta = X @ gamma
    mu = 1.0 / (1.0 + np.exp(-eta))
    w = mu * (1.0 - mu)
    hess = (X * w[:, None]).T @ X / X.shape[0]
    if np.linalg.cond(hess) > 1e12:
        raise SingularHessian("singular")
    sigma = np.linalg.inv(hess)
    return (0.5 * (sigma + sigma.T))[1:, 1:]


def reference_rows(X, Y, **kw):
    """Per row: (gamma, iterations, slopes sigma), the error of the fit,
    or NonConvergence() for an unconverged fit; sigma is SingularHessian
    when the covariance fails."""
    rows = []
    for x, y in zip(X, Y):
        try:
            gamma, converged, iterations = ref_fit_logistic(x, y, **kw)
        except (DegenerateOutcome, SingularDesign, PerfectSeparation) as exc:
            rows.append(exc)
            continue
        if not converged:
            rows.append(NonConvergence())
            continue
        try:
            rows.append((gamma, iterations, ref_covariance(x, gamma)))
        except SingularHessian:
            rows.append((gamma, iterations, SingularHessian))
    return rows


def assert_matches_reference(X, Y):
    est = fit_logistic(X, Y)
    unc = logistic_covariance(X, est)
    ref = reference_rows(X, Y, max_iter=logistic.MAX_ITER,
                         tol=logistic.GRADIENT_TOL)
    iterations = 0
    for i, row in enumerate(ref):
        if isinstance(row, Exception):
            assert type(est.failed.get(i)) is type(row), i
            if not isinstance(row, NonConvergence):
                assert str(est.failed[i]) == str(row), i
            assert not est.gamma[i].any() and not unc.sigma[i].any()
            assert i not in unc.failed
            continue
        gamma, its, sigma = row
        assert i not in est.failed, i
        assert np.array_equal(est.gamma[i], gamma), i
        iterations += its
        if sigma is SingularHessian:
            assert type(unc.failed.get(i)) is SingularHessian, i
            assert not unc.sigma[i].any()
        else:
            assert i not in unc.failed
            assert np.array_equal(unc.sigma[i, 1:, 1:], sigma), i
    assert est.iterations == iterations
    assert isinstance(est.iterations, int)
    return est, unc


# --- rows that exercise every outcome ---

def separable_row(T, rng):
    x = rng.uniform(0.1, 1.0, size=T) * rng.choice([-1.0, 1.0], size=T)
    x[:2] = (-0.5, 0.5)
    X = np.column_stack([np.ones(T), x, rng.standard_normal(T)])
    return X, (x > 0).astype(float)


def singular_hessian_row(T):
    """Gradient 0 at gamma = 0 (converged at once), but a plug-in Hessian
    with nearly collinear columns: cond > 1e12 while the rank is full."""
    pair = np.arange(T) // 2
    s = np.where(pair % 2 == 0, 1.0, -1.0)
    X = np.column_stack([np.ones(T), 1.0 + 1e-7 * s, pair.astype(float)])
    y = (np.arange(T) % 2).astype(float)
    return X, y


def mixed_stack(T, seed, n=30):
    panel, _ = gen_logistic(n, T, seed)
    X, Y = panel.designs.copy(), panel.responses.copy()
    rng = np.random.default_rng(seed)
    Y[3] = 1.0  # constant outcome
    X[7, :, 2] = 2.0 * X[7, :, 1]  # rank deficient
    X[11], Y[11] = separable_row(T, rng)
    X[17], Y[17] = singular_hessian_row(T)
    X[23] = singular_hessian_row(T)[0]  # nonzero gradient: Newton stops
    return X, Y


@pytest.mark.parametrize("T,seed", [(30, 0), (30, 1), (60, 2), (150, 3),
                                    (150, 4), (400, 5)])
def test_stack_matches_one_fit_at_a_time(T, seed):
    X, Y = mixed_stack(T, seed)
    est, unc = assert_matches_reference(X, Y)
    assert type(est.failed[3]) is DegenerateOutcome
    assert type(est.failed[7]) is SingularDesign
    assert type(est.failed[11]) is PerfectSeparation
    assert type(unc.failed[17]) is SingularHessian
    assert str(est.failed[23]) == "Hessian became numerically singular"
    assert not est.converged


def test_single_design_is_a_stack_of_one():
    X, Y = mixed_stack(60, 8)
    est = fit_logistic(X, Y)
    unc = logistic_covariance(X, est)
    for i in range(len(X)):
        one = fit_logistic(X[i:i + 1], Y[i:i + 1])
        one_unc = logistic_covariance(X[i:i + 1], one)
        if i in est.failed:
            assert type(one.failed[0]) is type(est.failed[i])
            continue
        assert np.array_equal(one.gamma[0], est.gamma[i])
        if i in unc.failed:
            assert type(one_unc.failed[0]) is SingularHessian
            continue
        assert np.array_equal(one_unc.sigma[0], unc.sigma[i])


def test_one_design_is_rejected():
    X, Y = mixed_stack(30, 8)
    with pytest.raises(DimensionMismatch):
        fit_logistic(X[0], Y[0])
    with pytest.raises(DimensionMismatch):
        logistic_covariance(X[0], fit_logistic(X[:1], Y[:1]))


def test_invalid_outcome_fails_its_row_alone():
    panel, _ = gen_logistic(30, 60, 7)
    X, Y = panel.designs, panel.responses.copy()
    Y[4, 10] = np.nan
    Y[9, 0] = 2.0
    Y[13, 5] = np.inf
    est = fit_logistic(X, Y)
    clean = fit_logistic(X, panel.responses)
    for i in (4, 9, 13):
        assert type(est.failed[i]) is DegenerateOutcome
        assert str(est.failed[i]) == "outcomes must be 0 or 1"
        assert not est.gamma[i].any()
        one = fit_logistic(X[i:i + 1], Y[i:i + 1])
        assert type(one.failed[0]) is DegenerateOutcome
    others = [i for i in range(30) if i not in (4, 9, 13)]
    assert np.array_equal(est.gamma[others], clean.gamma[others])
    assert {i: type(e) for i, e in est.failed.items() if i in others} == {
        i: type(e) for i, e in clean.failed.items() if i in others}


def test_row_faults_fail_in_precedence_order():
    # invalid outcome, then constant outcome, then non-finite design, and
    # the rank only of the rows that pass all three
    panel, _ = gen_logistic(10, 60, 7)
    X, Y = panel.designs.copy(), panel.responses.copy()
    Y[1, 0], X[1, 0, 1] = 2.0, np.nan
    Y[2] = 2.0  # constant and invalid
    Y[3], X[3, 0, 2] = 1.0, np.inf
    X[5, 0, 1] = np.nan
    X[6, :, 2] = 2.0 * X[6, :, 1]
    Y[8], X[8, :, 2] = 0.0, X[8, :, 1]  # constant and rank deficient
    invalid = (DegenerateOutcome, "outcomes must be 0 or 1")
    constant = (DegenerateOutcome,
                "response is constant; drop this individual")
    failed = fit_logistic(X, Y).failed
    assert {i: (type(failed[i]), str(failed[i]))
            for i in (1, 2, 3, 5, 6, 8)} == {
        1: invalid, 2: invalid, 3: constant,
        5: (SingularDesign, "design matrix has non-finite entries"),
        6: (SingularDesign, "design matrix is rank deficient"),
        8: constant}


def spoil_halvings(real):
    """A log-likelihood that reads -inf away from gamma = 0 for designs
    whose first entry is 7, so every halving of their first step fails."""
    def loglik(X, y, gamma):
        ll = np.asarray(real(X, y, gamma), dtype=float)
        marked = ((np.asarray(X)[..., 0, 0] == 7.0)
                  & np.any(np.asarray(gamma) != 0.0, axis=-1))
        ll = np.where(marked, -np.inf, ll)
        return float(ll) if ll.ndim == 0 else ll
    return loglik


def test_row_whose_halvings_all_fail_matches_reference(monkeypatch):
    X, Y = mixed_stack(60, 6)
    marked = (5, 20)
    X[marked, 0, 0] = 7.0
    plain = [ref_fit_logistic(X[i], Y[i])[2] for i in marked]
    monkeypatch.setattr(logistic, "log_likelihood",
                        spoil_halvings(logistic.log_likelihood))
    monkeypatch.setattr(sys.modules[__name__], "ref_log_likelihood",
                        spoil_halvings(ref_log_likelihood))
    assert_matches_reference(X, Y)
    # the spoiled first step is taken at 0.5 ** 50, then Newton resumes
    assert [ref_fit_logistic(X[i], Y[i])[2] for i in marked] == [
        its + 1 for its in plain]


def test_unconverged_rows_fail_with_nonconvergence(monkeypatch):
    X, Y = mixed_stack(150, 9)
    full = fit_logistic(X, Y)
    monkeypatch.setattr(logistic, "MAX_ITER", 6)
    est, _ = assert_matches_reference(X, Y)
    slow = [i for i in range(len(X)) if i not in full.failed
            and type(est.failed.get(i)) is NonConvergence]
    assert slow
    row = slice(slow[0], slow[0] + 1)
    one = fit_logistic(X[row], Y[row])
    # iterations counts converged rows only
    assert not one.converged and one.iterations == 0
    assert type(one.failed[0]) is NonConvergence
    unc = logistic_covariance(X[row], one)
    assert not unc.sigma[0].any() and not unc.failed


def test_ragged_last_chunk_gives_the_same_stack(monkeypatch):
    X, Y = mixed_stack(60, 7)
    whole = fit_logistic(X, Y)
    whole_unc = logistic_covariance(X, whole)
    n, T, k = X.shape
    monkeypatch.setattr(types, "BLOCK_ENTRIES", 7 * T * k)
    assert n % 7  # the last chunk is ragged
    est = fit_logistic(X, Y)
    unc = logistic_covariance(X, est)
    assert np.array_equal(est.gamma, whole.gamma)
    assert est.iterations == whole.iterations
    assert np.array_equal(unc.sigma, whole_unc.sigma)
    assert ({i: type(e) for i, e in est.failed.items()}
            == {i: type(e) for i, e in whole.failed.items()})


# --- the simulator's rounds against its one-at-a-time loop ---

def reference_rep(config, rng):
    """One individual at a time, as the simulator did before rounds."""
    T = config.T
    kept, betas, sigmas, truth, dropped = [], [], [], [], []
    while len(kept) < config.n:
        draw = len(kept) + len(dropped)
        x, y, group = simulation._draw_logistic_individual(rng, T)
        X = np.column_stack([np.ones(T), x])
        try:
            gamma, converged, _ = ref_fit_logistic(X, y)
        except (DegenerateOutcome, PerfectSeparation) as exc:
            dropped.append((draw, type(exc).__name__))
            if len(dropped) > 100 * config.n:
                raise NonConvergence("budget")
            continue
        assert converged
        kept.append(draw)
        betas.append(gamma[1:])
        sigmas.append(ref_covariance(X, gamma))
        truth.append(group)
    return kept, np.array(betas), np.array(sigmas), truth, dropped


@pytest.mark.parametrize("T,seed", [(30, 0), (30, 1), (30, 2), (150, 3),
                                    (150, 4)])
def test_rounds_match_one_at_a_time_loop(T, seed):
    config = SimulationConfig(model="logistic", n=30, T=T, reps=1)
    rng_ref, rng = make_rng(seed), make_rng(seed)
    kept, betas, sigmas, truth, dropped = reference_rep(config, rng_ref)
    table, got_truth = _fit_logistic_rep(config, rng)
    assert table.ids == kept
    assert table.dropped == dropped
    assert np.array_equal(got_truth, truth)
    assert np.array_equal(table.betas, betas)
    assert np.array_equal(table.sigmas, sigmas)
    assert (repr(rng.bit_generator.state)
            == repr(rng_ref.bit_generator.state))
    if T == 30:
        assert len(dropped) > 5  # several resampling rounds


def test_budget_runs_out_mid_round_as_in_the_loop():
    # at T = 3 almost every draw is separated or constant; the config
    # rejects T < 4, so T is set after the check to reach the budget
    config = SimulationConfig(model="logistic", n=4, T=4, reps=1)
    config.T = 3
    with pytest.raises(NonConvergence):
        reference_rep(config, make_rng(3))
    with pytest.raises(NonConvergence, match="budget exhausted"):
        _fit_logistic_rep(config, make_rng(3))


# --- one bad design, and the last Newton step ---

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_design_fails_only_its_row(bad):
    panel, _ = gen_logistic(12, 150, 0)
    X, Y = panel.designs, panel.responses
    X_bad = X.copy()
    X_bad[4, 7, 1] = bad
    est = fit_logistic(X_bad, Y)
    unc = logistic_covariance(X_bad, est)
    assert list(est.failed) == [4] and not unc.failed
    assert type(est.failed[4]) is SingularDesign
    assert str(est.failed[4]) == "design matrix has non-finite entries"
    rest = np.delete(np.arange(12), 4)
    alone = fit_logistic(X[rest], Y[rest])
    alone_unc = logistic_covariance(X[rest], alone)
    assert not alone.failed and est.iterations == alone.iterations
    assert np.array_equal(est.gamma[rest], alone.gamma)
    assert not est.gamma[4].any() and not unc.sigma[4].any()
    assert np.array_equal(unc.sigma[rest], alone_unc.sigma)


def test_estimate_panel_drops_a_non_finite_covariate_row():
    panel, _ = gen_logistic(12, 150, 0)
    panel.covariates[2, 0, 0] = np.nan  # written after the panel's check
    table = simulation.estimate_panel(panel, "logistic")
    assert table.dropped == [(2, "SingularDesign")]
    assert table.ids == [i for i in range(12) if i != 2]


def test_newton_keeps_a_row_at_its_last_step(monkeypatch):
    panel, _ = gen_logistic(8, 60, 2)
    X, Y = panel.designs, panel.responses
    full = fit_logistic(X, Y)
    steps = {i: fit_logistic(X[i:i + 1], Y[i:i + 1]).iterations
             for i in range(8) if i not in full.failed}
    assert len(steps) > 4 and min(steps.values()) > 1
    for i, k in steps.items():
        row = slice(i, i + 1)
        monkeypatch.setattr(logistic, "MAX_ITER", k)
        at_k = fit_logistic(X[row], Y[row])
        assert not at_k.failed and at_k.iterations == k
        assert np.array_equal(at_k.gamma[0], full.gamma[i])
        monkeypatch.setattr(logistic, "MAX_ITER", k - 1)
        short = fit_logistic(X[row], Y[row])
        assert list(short.failed) == [0] and short.iterations == 0
        assert type(short.failed[0]) is NonConvergence
        assert str(short.failed[0]) == (
            f"Newton iterations did not converge in {k - 1} steps")


# --- the conditioning rule: one eigvalsh in place of cond's SVD ---

def rotated(eigvals, seed):
    """Q diag(eigvals) Q' for a random orthogonal Q."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(
        size=(len(eigvals), len(eigvals))))
    S = (Q * np.asarray(eigvals)) @ Q.T
    return 0.5 * (S + S.T)


@pytest.mark.parametrize("S, ill", [
    (np.ones((3, 3)), True),  # exactly singular
    (np.zeros((2, 2)), True),
    (np.diag([1.0, 1e-13]), True),
    (np.diag([1.0, 1e-11]), False),
    (np.diag([-2.0, 1e-13, 1.0]), True),  # |eigenvalues|: indefinite too
    (np.diag([1e-300, 3e-300]), False),
    (rotated([1.0, 0.5, 1e-13], 0), True),
    (rotated([1.0, 0.5, 1e-11], 0), False),
    (np.array([[1.0, 0.0], [np.nan, 1.0]]), True),
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), True),
])
def test_ill_conditioned_cases(S, ill):
    assert ill_conditioned(S[None]).tolist() == [ill]
    if np.isfinite(S).all():
        assert (np.linalg.cond(S) > 1e12) == ill


def test_ill_conditioned_agrees_with_cond_away_from_the_threshold():
    rng = np.random.default_rng(21)
    for k in (1, 2, 3, 5):
        # log-uniform conditions 1 .. 1e16, none within 10x of 1e12
        cond = 10.0 ** rng.uniform(0, 16, size=(2000, 1))
        cond = cond[np.abs(np.log10(cond[:, 0]) - 12) > 1]
        m = len(cond)
        Q = np.linalg.qr(rng.normal(size=(m, k, k)))[0]
        eigvals = cond ** -rng.uniform(0, 1, size=(m, k))
        eigvals[:, 0], eigvals[:, -1] = 1.0, 1.0 / cond[:, 0]
        S = (Q * eigvals[:, None, :]) @ Q.swapaxes(1, 2)
        S = 0.5 * (S + S.swapaxes(1, 2)) * rng.uniform(1e-3, 1e3,
                                                        size=(m, 1, 1))
        expected = np.linalg.cond(S) > 1e12
        assert np.array_equal(ill_conditioned(S), expected)
        if k > 1:
            assert 0 < expected.sum() < len(S)
