import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from panelcluster import quantile, types
from panelcluster.quantile import (
    check_loss,
    fit_pooled_quantile,
    fit_quantile,
    fit_quantile_bundle,
    hall_sheather_bandwidth,
    hk_covariance,
    intercept_variance,
    lower_sample_quantile,
    quantile_objective,
    subgradient_certificate,
)
from panelcluster.simulation import gen_model1, gen_model3
from panelcluster.types import (
    CoefficientEstimate,
    DegenerateOutcome,
    DimensionMismatch,
    NonConvergence,
    NonFiniteCovariance,
    QuantileFitBundle,
    SingularB,
    SingularDesign,
)


def test_median_of_three():
    assert lower_sample_quantile(np.array([1.0, 2, 3]), 0.5) == 2.0


def test_interval_minimizer_returns_lower_vertex():
    assert lower_sample_quantile(np.array([1.0, 2, 3, 4]), 0.25) == 1.0


def fit_one(X, y, tau):
    """fit_quantile of one (T, k) design as a stack of one: its gamma (k,)
    and certificate."""
    gammas, certified, failed = fit_quantile(X[None], y[None], [tau])
    assert not failed
    return gammas[0, 0], bool(certified[0, 0])


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
    gamma, _ = fit_one(X, y, tau)
    assert quantile_objective(X, y, gamma, tau) == pytest.approx(
        brute_force_objective(X, y, tau), abs=1e-9)


@pytest.mark.parametrize("seed", range(20))
def test_subgradient_certificate_random_instances(seed):
    rng = np.random.default_rng(100 + seed)
    T = 60
    X = np.column_stack([np.ones(T), rng.normal(size=(T, 2))])
    y = X @ np.array([1.0, -0.5, 0.25]) + rng.standard_t(df=4, size=T)
    tau = rng.uniform(0.2, 0.8)
    gamma, certified = fit_one(X, y, tau)
    assert certified
    assert subgradient_certificate(X, y, gamma, tau)


@pytest.mark.parametrize("scale", [1.0, 1e-4, 1e-8])
def test_subgradient_certificate_is_scale_free(scale):
    panel, _ = gen_model1(30, 120, "t3", 5)
    X = np.concatenate([np.ones((30, 120, 1)), panel.covariates], axis=2)
    y = panel.responses
    gamma = np.array([fit_one(Xi, yi, 0.5)[0] for Xi, yi in zip(X, y)])
    off = gamma * 1.15 + 0.05 * np.abs(gamma).max()
    assert subgradient_certificate(X, y * scale, gamma * scale, 0.5).all()
    assert not subgradient_certificate(X, y * scale, off * scale, 0.5).any()


def test_subgradient_certificate_on_an_all_zero_response():
    X = np.column_stack([np.ones(8), np.arange(8.0)])
    assert subgradient_certificate(X, np.zeros(8), np.array([1e-12, 0.0]),
                                   0.5)
    assert not subgradient_certificate(X, np.zeros(8), np.array([0.1, 0.0]),
                                       0.5)


def test_default_tolerance_is_read_at_each_call(monkeypatch):
    # one step below the median of 0..7 the score is 1, with no residual at
    # zero: it passes only a tolerance of at least 1
    X, y = np.ones((8, 1)), np.arange(8.0)
    assert subgradient_certificate(X, y, np.array([3.5]), 0.5)
    assert not subgradient_certificate(X, y, np.array([2.5]), 0.5)
    monkeypatch.setattr(quantile, "CERT_TOL", 1.5)
    assert subgradient_certificate(X, y, np.array([2.5]), 0.5)


def test_residual_sign_counts():
    rng = np.random.default_rng(5)
    T, s = 40, 3
    X = np.column_stack([np.ones(T), rng.normal(size=(T, s - 1))])
    y = rng.normal(size=T)
    for tau in (0.25, 0.5, 0.75):
        gamma, _ = fit_one(X, y, tau)
        r = y - X @ gamma
        strictly_neg = np.sum(r < -1e-9)
        non_pos = np.sum(r <= 1e-9)
        assert strictly_neg <= tau * T <= non_pos + s


def test_local_optimality_probe():
    rng = np.random.default_rng(6)
    T = 50
    X = np.column_stack([np.ones(T), rng.normal(size=(T, 1))])
    y = rng.normal(size=T)
    gamma, _ = fit_one(X, y, 0.4)
    base = quantile_objective(X, y, gamma, 0.4)
    for j in range(2):
        for delta in (1e-3, -1e-3):
            probe = gamma.copy()
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


def test_hall_sheather_equals_the_scipy_stats_formula():
    from scipy.stats import norm

    z = norm.ppf(1.0 - quantile.HALL_SHEATHER_ALPHA / 2.0)
    # a step of 8e-4 keeps 0.22, 0.78 and 0.9248, where a scalar density
    # would differ in the last bit
    for tau in np.arange(104, 9900, 8) / 10_000:
        q = norm.ppf(tau)
        shape = 1.5 * norm.pdf(q) ** 2 / (2.0 * q ** 2 + 1.0)
        for T in (10, 11, 20, 30, 60, 120, 150, 400, 1000, 12345):
            d = T ** (-1.0 / 3.0) * z ** (2.0 / 3.0) * shape ** (1.0 / 3.0)
            assert hall_sheather_bandwidth(T, tau) == min(d, tau - 0.01,
                                                          0.99 - tau)


def same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def test_ndtri_is_scipy_ndtri_on_the_bandwidth_grid():
    from scipy.special import ndtri

    for p in [*np.arange(0.0105, 0.99, 5e-4).tolist(), 0.975]:
        assert same_bits(quantile._ndtri(p), ndtri(p)), p


@pytest.mark.parametrize("switch", [quantile._EXP_M2,
                                    1.0 - quantile._EXP_M2])
def test_ndtri_is_scipy_ndtri_beside_each_branch_switch(switch):
    from scipy.special import ndtri

    below = above = switch
    points = [switch]
    for _ in range(4):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
        points += [below, above]
    for p in points:
        assert same_bits(quantile._ndtri(float(p)), ndtri(p)), p


@settings(max_examples=500, deadline=None)
@given(st.floats(0.01, 0.99, exclude_min=True, exclude_max=True))
def test_ndtri_is_scipy_ndtri_at_any_level(p):
    from scipy.special import ndtri

    assert same_bits(quantile._ndtri(p), ndtri(p))


def test_hk_location_model_matches_asymptotic_variance():
    estimates = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        T = 2000
        X = np.ones((1, T, 1))
        y = 1.0 + rng.standard_normal((1, T))
        bundle = fit_quantile_bundle(X, y, 0.5)
        unc = hk_covariance(bundle, X)
        estimates.append(unc.sigma[0, 0, 0])
    assert abs(np.mean(estimates) - np.pi / 2) < 0.25 * np.pi / 2


def test_hk_collapses_for_constant_density():
    # z_t' (gamma_plus - gamma_minus) == 2 d / c for every t
    T, d, c, tau = 10, 0.1, 0.5, 0.5
    X = np.ones((1, T, 1))
    center = CoefficientEstimate([[0.0]], tau=tau)
    upper = CoefficientEstimate([[d / c]], tau=tau + d)
    lower = CoefficientEstimate([[-d / c]], tau=tau - d)
    bundle = QuantileFitBundle(center, upper, lower, d)
    unc = hk_covariance(bundle, X)
    assert unc.sigma[0, 0, 0] == pytest.approx(tau * (1 - tau) / c ** 2,
                                               rel=1e-12)


def test_hk_crossed_observation_is_dropped_not_inflated():
    # observations whose difference quotient crosses contribute zero density
    # weight; they must not dominate B through a floored denominator
    T, d, c, tau = 8, 0.1, 0.4, 0.5
    X = np.ones((1, T, 1))
    X[0, 0, 0] = -1.0  # denominator -c for this row, +c for the rest
    center = CoefficientEstimate([[0.0]], tau=tau)
    upper = CoefficientEstimate([[c / 2]], tau=tau + d)
    lower = CoefficientEstimate([[-c / 2]], tau=tau - d)
    unc = hk_covariance(QuantileFitBundle(center, upper, lower, d), X)
    f = 2 * d / c
    B = f * (T - 1) / T  # crossed row drops out; x_t^2 = 1 throughout
    H = tau * (1 - tau)
    assert unc.degenerate
    assert unc.sigma[0, 0, 0] == pytest.approx(H / B ** 2, rel=1e-12)


def test_hk_row_whose_quotients_all_cross_fails_as_singular_b():
    # row 0's three fits coincide, so every quotient crosses and B is zero;
    # row 1 has density 2 d / c at every observation
    T, d, c, tau = 10, 0.1, 1.0, 0.5
    X = np.ones((2, T, 1))
    bundle = QuantileFitBundle(
        CoefficientEstimate([[1.0], [0.0]], tau=tau),
        CoefficientEstimate([[1.0], [c / 2]], tau=tau + d),
        CoefficientEstimate([[1.0], [-c / 2]], tau=tau - d),
        d)
    unc = hk_covariance(bundle, X)
    assert list(unc.failed) == [0] and isinstance(unc.failed[0], SingularB)
    assert np.all(unc.sigma[0] == 0.0) and not unc.crossed.any()
    assert not unc.degenerate
    assert unc.sigma[1, 0, 0] == pytest.approx(
        tau * (1 - tau) / (2 * d / c) ** 2, rel=1e-12)


def test_pooled_with_no_covariates_separates():
    rng = np.random.default_rng(8)
    y = rng.normal(size=(4, 9))
    fit = fit_pooled_quantile(y, np.empty((4, 9, 0)), [0.5])
    for i in range(4):
        solo, _ = fit_one(np.ones((9, 1)), y[i], 0.5)
        assert fit.alphas[0, i] == solo[0]


def test_pooled_matches_grid_search_on_tiny_instance():
    rng = np.random.default_rng(9)
    n, T = 2, 4
    x = rng.normal(size=(n, T, 1))
    alpha_star, beta_star = np.array([0.5, -0.5]), 0.8
    y = alpha_star[:, None] + x[:, :, 0] * beta_star + rng.normal(size=(n, T))
    tau = 0.5
    fit = fit_pooled_quantile(y, x, [tau])

    def objective(a1, a2, b):
        r = y - np.array([a1, a2])[:, None] - x[:, :, 0] * b
        return check_loss(r, tau).mean()

    grid = np.linspace(-2, 2, 61)
    grid_best = min(objective(a1, a2, b)
                    for a1 in grid for a2 in grid for b in grid)
    lp_obj = objective(fit.alphas[0, 0], fit.alphas[0, 1], fit.beta[0, 0])
    assert lp_obj <= grid_best + 1e-12


def test_pooled_recovers_model3_intercepts():
    from panelcluster.simulation import gen_model3

    hits = 0
    for seed in range(20):
        panel, truth = gen_model3(30, 60, "normal", seed)
        fit = fit_pooled_quantile(panel.responses, panel.covariates, [0.5])
        if np.max(np.abs(fit.alphas[0] - truth.astype(float))) < 0.5:
            hits += 1
    assert hits >= 18


def test_intercept_variance_plugin_identity():
    tau, d, f = 0.5, 0.05, 0.5
    sigma = intercept_variance(np.array([1.0 + d / f]),
                               np.array([1.0 - d / f]), tau, d)
    assert sigma[0, 0, 0] == pytest.approx(tau * (1 - tau) / 0.25, rel=1e-12)


def test_intercept_variance_zero_difference_is_degenerate():
    sigma = intercept_variance(np.array([2.0]), np.array([2.0]), 0.5, 0.05)
    assert sigma.shape == (1, 1, 1) and sigma[0, 0, 0] == 0.0


def test_intercept_variance_stack_equals_one_call_per_individual():
    rng = np.random.default_rng(12)
    plus = rng.normal(size=20000)
    minus = plus - rng.uniform(0.0, 1.0, size=20000)
    minus[5] = plus[5]  # a zero variance
    tau, d = 0.3, 0.07
    sigma = intercept_variance(plus, minus, tau, d)
    # each value as one float expression, the form a per-individual call had
    one = [tau * (1.0 - tau) * ((a - b) / (2.0 * d)) ** 2
           for a, b in zip(plus, minus)]
    assert sigma.shape == (20000, 1, 1)
    assert np.array_equal(sigma[:, 0, 0], one)
    assert sigma[5, 0, 0] == 0.0
    # squaring the array would differ in the last ulp for some values
    assert not np.array_equal(
        tau * (1.0 - tau) * ((plus - minus) / (2.0 * d)) ** 2, one)


def test_intercept_variance_normal_errors_matches_pi_over_two():
    from panelcluster.quantile import lower_sample_quantile

    values = []
    for seed in range(50):
        rng = np.random.default_rng(200 + seed)
        e = rng.standard_normal(2000)
        d = hall_sheather_bandwidth(2000, 0.5)
        plus = lower_sample_quantile(e, 0.5 + d)
        minus = lower_sample_quantile(e, 0.5 - d)
        values.append(intercept_variance(np.array([plus]), np.array([minus]),
                                         0.5, d)[0, 0, 0])
    assert abs(np.mean(values) - np.pi / 2) < 0.25 * np.pi / 2


def model1_stack(n=12, T=60, error_dist="t3", seed=11):
    from panelcluster.simulation import gen_model1

    panel, _ = gen_model1(n, T, error_dist, seed)
    return panel.designs, panel.responses


@pytest.mark.parametrize("error_dist,T", [("normal", 60), ("t3", 120)])
def test_stacked_bundle_and_hk_equal_per_individual_calls(error_dist, T):
    X, y = model1_stack(T=T, error_dist=error_dist)
    bundle = fit_quantile_bundle(X, y, 0.5)
    unc = hk_covariance(bundle, X)
    assert not bundle.failed and not unc.failed
    for i in range(len(X)):
        row = slice(i, i + 1)
        solo = fit_quantile_bundle(X[row], y[row], 0.5)
        solo_unc = hk_covariance(solo, X[row])
        for level in ("center", "upper", "lower"):
            assert np.array_equal(getattr(bundle, level).gamma[i],
                                  getattr(solo, level).gamma[0])
        assert np.array_equal(unc.sigma[i], solo_unc.sigma[0])
        assert unc.crossed[i] == solo_unc.degenerate


def test_stack_chunks_do_not_change_fits(monkeypatch):
    X, y = model1_stack()
    whole = fit_quantile_bundle(X, y, 0.5)
    # 5 problems per chunk: 36 fits in 8 chunks, the last one ragged
    monkeypatch.setattr(types, "BLOCK_ENTRIES", 5 * X.shape[1] * 3)
    chunked = fit_quantile_bundle(X, y, 0.5)
    for level in ("center", "upper", "lower"):
        assert np.array_equal(getattr(whole, level).gamma,
                              getattr(chunked, level).gamma)


def reject_row(monkeypatch, y_row, move=0.0):
    """Move the vertices _purify returns for the problems whose response is
    y_row by `move`: a move of 1 takes them off the minimizer, so the
    certificate rejects them."""
    purify = quantile._purify

    def reject(A, y, gamma):
        vertex = purify(A, y, gamma)
        vertex[(y == y_row).all(axis=1)] += move
        return vertex

    monkeypatch.setattr(quantile, "_purify", reject)


def move_fit(monkeypatch, y_row, move):
    """Move the interior-point fits of the problems whose response is y_row
    by `move`."""
    interior_point = quantile._interior_point

    def moved(A, y, tau):
        gamma = interior_point(A, y, tau)
        gamma[(y == y_row).all(axis=1)] += move
        return gamma

    monkeypatch.setattr(quantile, "_interior_point", moved)


def test_rejected_vertex_is_kept_and_certified(monkeypatch):
    X, y = model1_stack()
    j = 4
    plain = fit_quantile_bundle(X, y, 0.5)
    reject_row(monkeypatch, y[j])
    bundle = fit_quantile_bundle(X, y, 0.5)
    assert not bundle.failed
    for level in ("center", "upper", "lower"):
        assert np.array_equal(getattr(bundle, level).gamma,
                              getattr(plain, level).gamma)
    monkeypatch.undo()
    # tau T = 10 on an intercept-only design: every point between two order
    # statistics is a minimizer, so no vertex is the unique one
    y = np.random.default_rng(12).normal(size=(3, 20))
    X = np.ones((3, 20, 1))
    tau = np.full(3, 0.5)
    gammas, certified, errors = quantile._fit_stack(X, y, np.arange(3), tau)
    assert certified.all() and not errors
    ys = np.sort(y, axis=1)
    assert np.all((gammas[:, 0] == ys[:, 9]) | (gammas[:, 0] == ys[:, 10]))


def test_rejected_vertex_off_the_minimizer_keeps_the_interior_point_fit(
        monkeypatch):
    X, y = model1_stack()
    j = 4
    plain = fit_quantile_bundle(X, y, 0.5)
    reject_row(monkeypatch, y[j], move=1.0)
    bundle = fit_quantile_bundle(X, y, 0.5)
    assert not bundle.failed
    for level in ("center", "upper", "lower"):
        got, want = getattr(bundle, level), getattr(plain, level)
        assert np.array_equal(np.delete(got.gamma, j, axis=0),
                              np.delete(want.gamma, j, axis=0))
        assert quantile_objective(X[j], y[j], got.gamma[j], got.tau) \
            == pytest.approx(
                quantile_objective(X[j], y[j], want.gamma[j], got.tau),
                rel=1e-9)


def binary_design_stack(n=6, T=20, seed=13):
    """n designs [1, d], d a balanced binary covariate: at tau = 0.5 both
    groups' quantiles are intervals, so no fit has a unique vertex, and the
    basis through the two smallest |residuals| is often singular."""
    rng = np.random.default_rng(seed)
    d = np.array([rng.permutation(T) < T // 2 for _ in range(n)], float)
    X = np.stack([np.ones((n, T)), d], axis=2)
    return X, rng.normal(size=(n, T)) + d


def test_tied_binary_design_keeps_a_certified_minimizer():
    from panelcluster.simulation import estimate_panel
    from panelcluster.types import PanelDataset

    X, y = binary_design_stack()
    bundle = fit_quantile_bundle(X, y, 0.5)
    assert not bundle.failed
    for i in range(len(y)):
        one, certified = fit_one(X[i], y[i], 0.5)
        assert certified
        fits = [(0.5, one)] + [
            (fit.tau, fit.gamma[i])
            for fit in (bundle.center, bundle.upper, bundle.lower)]
        for level, gamma in fits:
            assert quantile_objective(X[i], y[i], gamma, level) \
                == pytest.approx(brute_force_objective(X[i], y[i], level),
                                 rel=1e-12)
    table = estimate_panel(PanelDataset(X[..., 1:], y),
                           "qr-slopes", 0.5)
    assert not table.dropped


def test_uncertified_row_is_dropped_alone(monkeypatch):
    from panelcluster.simulation import estimate_panel

    panel, _ = gen_model1(12, 60, "t3", 11)
    j = 6
    # both the vertex and the interior-point fit are moved off the minimizer
    reject_row(monkeypatch, panel.responses[j], move=1.0)
    move_fit(monkeypatch, panel.responses[j], 1.0)
    bundle = fit_quantile_bundle(panel.designs, panel.responses, 0.5)
    assert list(bundle.failed) == [j]
    assert isinstance(bundle.failed[j], NonConvergence)
    ids = [f"u{i}" for i in range(12)]
    table = estimate_panel(panel, "qr-slopes", 0.5, ids)
    assert table.dropped == [(f"u{j}", "NonConvergence")]
    assert table.ids == ids[:j] + ids[j + 1:]


def assert_scaled(got, want, scale):
    """got / scale equals want to 1e-12 relative, row by row."""
    error = np.abs(got / scale - want).max(axis=-1)
    assert (error <= 1e-12 * np.abs(want).max(axis=-1)).all()


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("scale", [1e-8, 1e50])
def test_stacked_fits_are_scale_equivariant(seed, scale):
    panel, _ = gen_model1(30, 120, "t3", seed)
    X, y = panel.designs, panel.responses
    plain = fit_quantile_bundle(X, y, 0.5)
    scaled = fit_quantile_bundle(X, y * scale, 0.5)
    assert not plain.failed
    assert not scaled.failed
    for level in ("center", "upper", "lower"):
        assert_scaled(getattr(scaled, level).gamma,
                      getattr(plain, level).gamma, scale)
    for i in range(5):
        one, certified = fit_one(X[i], y[i], 0.5)
        one_scaled, scaled_certified = fit_one(X[i], y[i] * scale, 0.5)
        assert certified and scaled_certified
        assert_scaled(one_scaled, one, scale)
    # pooled levels at T = 60: tau T = 30, so the centre level is tied and
    # takes the lower vertex
    panel, _ = gen_model3(30, 60, "t3", seed)
    y, x = panel.responses, panel.covariates
    d_T = hall_sheather_bandwidth(60, 0.5)
    levels = (0.5, 0.5 + d_T, 0.5 - d_T)
    plain = fit_pooled_quantile(y, x, levels)
    scaled = fit_pooled_quantile(y * scale, x, levels)
    assert_scaled(scaled.alphas, plain.alphas, scale)
    assert_scaled(scaled.beta, plain.beta, scale)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fit_quantile_at_three_levels_is_the_bundle(k):
    rng = np.random.default_rng(14)
    X = np.concatenate([np.ones((4, 10, 1)),
                        rng.normal(size=(4, 10, k - 1))], axis=2)
    y = rng.normal(size=(4, 10))
    # tau T = 5: with k = 1 every point of [3, 4] minimizes at tau = 0.5
    y[0] = (3, 1, 4, 1, 5, 9, 2, 6, 5, 3)
    if k > 1:
        X[3, :, 1] = 2.0  # collinear with the intercept
    tau = 0.5
    d = hall_sheather_bandwidth(10, tau)
    levels = (tau, tau + d, tau - d)
    gammas, certified, failed = fit_quantile(X, y, levels)
    bundle = fit_quantile_bundle(X, y, tau)
    fits = (bundle.center, bundle.upper, bundle.lower)
    for gamma, ok, fit, level in zip(gammas, certified, fits, levels):
        assert fit.tau == level
        assert np.array_equal(fit.gamma, gamma)
        assert fit.converged == ok.all()
    assert sorted(bundle.failed) == list(np.flatnonzero(
        ~certified.all(axis=0)))
    assert ({i: (type(e), str(e)) for i, e in bundle.failed.items()}
            == {i: (type(e), str(e)) for i, e in failed.items()})
    assert list(failed) == ([3] if k > 1 else [])
    assert certified[:, :3].all()
    assert quantile_objective(X[0], y[0], gammas[0, 0], tau) \
        == pytest.approx(brute_force_objective(X[0], y[0], tau), abs=1e-12)


def test_one_design_is_rejected():
    X, y = model1_stack(n=2)
    bundle = fit_quantile_bundle(X, y, 0.5)
    with pytest.raises(DimensionMismatch):
        fit_quantile(X[0], y[0], [0.5])
    with pytest.raises(DimensionMismatch):
        fit_quantile(X, y, 0.5)
    with pytest.raises(DimensionMismatch):
        fit_quantile_bundle(X[0], y[0], 0.5)
    with pytest.raises(DimensionMismatch):
        hk_covariance(bundle, X[0])
    with pytest.raises(DimensionMismatch):
        fit_pooled_quantile(y, X[..., 1:], 0.5)
    # x must be (n, T, p) for the (n, T) responses: no shape is read as p = 0
    for y_bad, x_bad in ((y, X[:, :, 1]), (y, np.ones(5)),
                         (y, X[:, :30, 1:]), (y[0], X[..., 1:])):
        with pytest.raises(DimensionMismatch,
                           match="^design/response shape mismatch$"):
            fit_pooled_quantile(y_bad, x_bad, [0.5])


def test_row_faults_fail_in_precedence_order():
    # non-finite design, then non-finite response, and the rank only of the
    # rows that pass both
    X, y = model1_stack()
    X[2, 0, 1], y[2, 0] = np.nan, np.inf
    y[4, 3] = np.nan
    X[6, :, 2] = 2.0 * X[6, :, 1]
    X[8, :, 2], y[8, 0] = X[8, :, 1], np.nan
    response = (DegenerateOutcome, "response has non-finite entries")
    gammas, certified, failed = fit_quantile(X, y, [0.5])
    assert {i: (type(e), str(e)) for i, e in failed.items()} == {
        2: (SingularDesign, "design matrix has non-finite entries"),
        4: response,
        6: (SingularDesign, "design matrix is rank deficient"),
        8: response}
    assert not gammas[:, list(failed)].any()
    assert not certified[:, list(failed)].any()


def test_singular_normal_matrix_fails_the_chunk_as_nonconvergence(
        monkeypatch):
    X, y = model1_stack()
    j = 7
    interior_point = quantile._interior_point

    def singular_with_row_j(A, yc, tau):
        if ((yc == y[j]).all(axis=1) & (tau == 0.5)).any():
            raise np.linalg.LinAlgError("Singular matrix")
        return interior_point(A, yc, tau)

    plain = fit_quantile_bundle(X, y, 0.5)
    monkeypatch.setattr(quantile, "_interior_point", singular_with_row_j)
    # 5 problems per chunk: the centre fits of rows 5..9 share a chunk with
    # row 7's, which meets a singular normal matrix
    monkeypatch.setattr(types, "BLOCK_ENTRIES", 5 * X.shape[1] * 3)
    bundle = fit_quantile_bundle(X, y, 0.5)
    hit = [5, 6, 7, 8, 9]
    assert sorted(bundle.failed) == hit
    assert all(isinstance(exc, NonConvergence)
               for exc in bundle.failed.values())
    others = ~np.isin(np.arange(12), hit)
    assert not set(np.flatnonzero(others)) & set(bundle.failed)
    assert set(hit) <= set(bundle.failed)
    for level in ("center", "upper", "lower"):
        gamma = getattr(bundle, level).gamma
        assert np.all(gamma[hit] == 0.0)
        assert np.array_equal(gamma[others],
                              getattr(plain, level).gamma[others])
    failed = fit_quantile(X[j:j + 1], y[j:j + 1], [0.5])[2]
    assert isinstance(failed[0], NonConvergence)
    assert "Singular matrix" in str(failed[0])


def test_rank_deficient_row_fails_alone():
    X, y = model1_stack()
    X[3, :, 2] = 2.0 * X[3, :, 1]
    bundle = fit_quantile_bundle(X, y, 0.5)
    unc = hk_covariance(bundle, X)
    assert list(bundle.failed) == [3]
    assert isinstance(bundle.failed[3], SingularDesign)
    others = np.arange(12) != 3
    assert 3 in bundle.failed
    assert not set(np.flatnonzero(others)) & set(bundle.failed)
    assert np.all(bundle.center.gamma[3] == 0.0)
    assert np.all(unc.sigma[3] == 0.0) and not unc.crossed[3]
    solo = fit_quantile_bundle(X[3:4], y[3:4], 0.5)
    assert isinstance(solo.failed[0], SingularDesign)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["design", "response"])
def test_non_finite_design_fails_only_its_row(where, bad):
    X, y = model1_stack(T=60, error_dist="normal")
    X_bad, y_bad = X.copy(), y.copy()
    if where == "design":
        X_bad[4, 7, 1] = bad
        error, message = SingularDesign, "design matrix has non-finite entries"
    else:
        y_bad[4, 7] = bad
        error, message = DegenerateOutcome, "response has non-finite entries"
    bundle = fit_quantile_bundle(X_bad, y_bad, 0.5)
    unc = hk_covariance(bundle, X_bad)
    assert list(bundle.failed) == [4] and not unc.failed
    assert type(bundle.failed[4]) is error
    assert str(bundle.failed[4]) == message
    rest = np.delete(np.arange(12), 4)
    alone = fit_quantile_bundle(X[rest], y[rest], 0.5)
    alone_unc = hk_covariance(alone, X[rest])
    assert not alone.failed
    for level in ("center", "upper", "lower"):
        gamma = getattr(bundle, level).gamma
        assert np.array_equal(gamma[rest], getattr(alone, level).gamma)
        assert not gamma[4].any()
    assert np.array_equal(unc.sigma[rest], alone_unc.sigma)
    assert np.array_equal(unc.crossed[rest], alone_unc.crossed)
    assert not unc.sigma[4].any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_covariate_drops_its_row_or_fails_the_pooled_fit(bad):
    from panelcluster.simulation import estimate_panel
    from panelcluster.types import PanelDataset

    clean, _ = gen_model1(12, 60, "normal", 11)
    rest = np.delete(np.arange(12), 2)
    alone = estimate_panel(PanelDataset(clean.covariates[rest],
                                        clean.responses[rest]), "qr-slopes")
    for name, error in (("covariates", "SingularDesign"),
                        ("responses", "DegenerateOutcome")):
        panel, _ = gen_model1(12, 60, "normal", 11)
        getattr(panel, name)[2, 0] = bad  # written after the panel's check
        table = estimate_panel(panel, "qr-slopes")
        assert table.dropped == [(2, error)]
        assert table.ids == rest.tolist()
        assert np.array_equal(table.betas, alone.betas)
        assert np.array_equal(table.sigmas, alone.sigmas)
    for name, error, message in (
            ("covariates", SingularDesign,
             "design matrix has non-finite entries"),
            ("responses", DegenerateOutcome,
             r"response has non-finite entries \(individual 2\)")):
        panel, _ = gen_model3(9, 60, "normal", 11)
        getattr(panel, name)[2, 0] = bad
        for call in (lambda: estimate_panel(panel, "qr-pooled"),
                     lambda: fit_pooled_quantile(panel.responses,
                                                 panel.covariates, [0.5])):
            with pytest.raises(error, match=message):
                call()


def test_singular_b_row_fails_alone():
    X, y = model1_stack()
    bundle = fit_quantile_bundle(X, y, 0.5)
    # a design that lost rank after its fit leaves B singular however its
    # densities are floored
    X[7, :, 2] = X[7, :, 1]
    unc = hk_covariance(bundle, X)
    assert list(unc.failed) == [7] and np.all(unc.sigma[7] == 0.0)
    assert isinstance(unc.failed[7], SingularB)
    solo = QuantileFitBundle(*(CoefficientEstimate(f.gamma[7:8], tau=f.tau)
                               for f in (bundle.center, bundle.upper,
                                         bundle.lower)), bundle.bandwidth)
    assert isinstance(hk_covariance(solo, X[7:8]).failed[0], SingularB)


def overflowing_panel(gen, factor=1e200):
    """A 9-individual panel whose individual 4 has its responses scaled by
    factor: its covariance overflows from factor 1e160 on."""
    panel, _ = gen(9, 40, "normal", 1)
    panel.responses[4] *= factor
    return panel


@pytest.mark.parametrize("gen,model", [(gen_model1, "qr-slopes"),
                                       (gen_model3, "qr-pooled")])
def test_overflowing_covariance_is_dropped_alone(gen, model):
    from panelcluster.simulation import estimate_panel

    ids = [f"u{i}" for i in range(9)]
    # the suite turns a RuntimeWarning into an error
    table = estimate_panel(overflowing_panel(gen), model, ids=ids)
    assert table.dropped == [("u4", "NonFiniteCovariance")]
    assert table.ids == ids[:4] + ids[5:]
    assert np.isfinite(table.sigmas).all()
    whole = estimate_panel(overflowing_panel(gen, 1.0), model, ids=ids)
    if model == "qr-slopes":  # rows are fit one by one: the rest is as is
        keep = [i for i in range(9) if i != 4]
        assert np.array_equal(table.betas, whole.betas[keep])
        assert np.array_equal(table.sigmas, whole.sigmas[keep])


def test_hk_lists_an_overflowing_sandwich_as_failed():
    panel = overflowing_panel(gen_model1)
    X = panel.designs
    unc = hk_covariance(fit_quantile_bundle(X, panel.responses, 0.5), X)
    assert list(unc.failed) == [4] and np.all(unc.sigma[4] == 0.0)
    assert isinstance(unc.failed[4], NonFiniteCovariance)
    assert not unc.crossed[4] and np.isfinite(unc.sigma).all()


def test_intercept_variance_overflows_to_inf_silently():
    variance = intercept_variance(np.array([1e200, 1.0]),
                                  np.array([-1e200, 0.0]), 0.5, 0.1)
    assert variance[0, 0, 0] == np.inf and np.isfinite(variance[1])


def criterion_5c_instances():
    """The 100 random instances of acceptance criterion 5c, same draws."""
    rng = np.random.default_rng(2)
    for _ in range(100):
        T = int(rng.integers(20, 80))
        s = int(rng.integers(1, 4))
        X = np.column_stack([np.ones(T), rng.normal(size=(T, s - 1))]) \
            if s > 1 else np.ones((T, 1))
        y = rng.normal(size=T) + rng.standard_t(df=3, size=T)
        yield X, y, float(rng.uniform(0.1, 0.9))


def criterion_5d_instances():
    """The 8 random instances of acceptance criterion 5d, same draws."""
    rng = np.random.default_rng(3)
    for _ in range(8):
        T = 12
        s = int(rng.integers(2, 4))
        X = np.column_stack([np.ones(T), rng.normal(size=(T, s - 1))])
        yield X, rng.normal(size=T), float(rng.uniform(0.2, 0.8))


def stacked_engine_fits(instances):
    """Fit the instances with the stacked engine, one stack per design
    shape: (X, y, tau, gamma, certified) of every fit."""
    groups = {}
    for instance in instances:
        groups.setdefault(instance[0].shape, []).append(instance)
    for members in groups.values():
        X, y, taus = (np.array(column) for column in zip(*members))
        gammas, certified, errors = quantile._fit_stack(
            X, y, np.arange(len(members)), taus)
        assert not errors
        yield from zip(X, y, taus, gammas, certified)


def test_stacked_engine_certifies_criterion_5c_instances():
    fits = list(stacked_engine_fits(criterion_5c_instances()))
    assert len(fits) == 100
    for X, y, tau, gamma, certified in fits:
        assert certified and subgradient_certificate(X, y, gamma, tau)


def test_stacked_engine_matches_enumeration_on_criterion_5d_instances():
    fits = list(stacked_engine_fits(criterion_5d_instances()))
    assert len(fits) == 8
    for X, y, tau, gamma, certified in fits:
        assert certified
        assert quantile_objective(X, y, gamma, tau) == pytest.approx(
            brute_force_objective(X, y, tau), abs=1e-9)


@pytest.mark.parametrize("call,error,message", [
    (lambda X, y: fit_quantile(X, y, [0.5, 1.0]), ValueError,
     "tau must lie in (0, 1)"),
    # one period each: n observations for n intercepts and two slopes
    (lambda X, y: fit_pooled_quantile(y[:, :1], X[:, :1, 1:], [0.5]),
     SingularDesign, "too few observations for the pooled fit"),
    (lambda X, y: intercept_variance(y[:, 0], y[:, 1], 0.5, 0.0), ValueError,
     "bandwidth must be positive"),
    (lambda X, y: intercept_variance(y[:, 0], y[:, 1], 0.5, np.nan),
     ValueError, "bandwidth must be finite"),
    (lambda X, y: intercept_variance(y[:, 0], y[:, 1], 0.5, np.inf),
     ValueError, "bandwidth must be finite"),
    (lambda X, y: fit_quantile(X, y, []), ValueError,
     "tau must hold at least one level"),
    (lambda X, y: fit_pooled_quantile(y, X[:, :, 1:], []), ValueError,
     "tau must hold at least one level"),
    (lambda X, y: fit_pooled_quantile(y, X[:, :, :0], []), ValueError,
     "tau must hold at least one level"),
    (lambda X, y: hall_sheather_bandwidth(12.5, 0.5), ValueError,
     "T must be an integer, got 12.5"),
    (lambda X, y: hall_sheather_bandwidth("50", 0.5), ValueError,
     "T must be an integer, got '50'"),
    (lambda X, y: hall_sheather_bandwidth(True, 0.5), ValueError,
     "T must be an integer, got True"),
])
def test_quantile_inputs_are_checked(call, error, message):
    X, y = model1_stack(n=3, T=20)
    with pytest.raises(error) as info:
        call(X, y)
    assert str(info.value) == message


@pytest.mark.parametrize("max_iter", [2, 3])
def test_interior_point_stopped_early_is_certified_or_failed(monkeypatch,
                                                             max_iter):
    # at T = 12 the purified vertex of an unfinished fit is often optimal
    X, y = model1_stack(n=30, T=12)
    monkeypatch.setattr(quantile, "IP_MAX_ITER", max_iter)
    bundle = fit_quantile_bundle(X, y, 0.5)
    assert 0 < len(bundle.failed) < len(X)
    for fit in (bundle.center, bundle.upper, bundle.lower):
        ok = subgradient_certificate(X, y, fit.gamma, fit.tau,
                                     quantile.CERT_TOL)
        assert fit.converged == ok.all()
        for i in range(len(X)):
            assert ok[i] != (i in bundle.failed)
