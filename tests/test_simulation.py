import warnings

import numpy as np
import pytest

from panelcluster import quantile, simulation
from panelcluster.io import result_payload
from panelcluster.simulation import (
    SimulationConfig,
    derive_seed,
    gen_logistic,
    gen_model1,
    gen_model2,
    gen_model3,
    gen_model4,
    run_batch,
    run_rep,
    splitmix64,
)
from panelcluster.spectral import build_dissimilarity
from panelcluster.types import DimensionMismatch, PanelDataset


def test_splitmix64_is_stable():
    # frozen outputs of the standard splitmix64 mixing constants
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 0x910A2DEC89025CC1


def test_derived_seeds_differ_across_reps():
    seeds = [derive_seed(0, r) for r in range(1000)]
    assert len(set(seeds)) == 1000


def test_gen_logistic_is_deterministic():
    p1, t1 = gen_logistic(10, 20, seed=7)
    p2, t2 = gen_logistic(10, 20, seed=7)
    assert np.array_equal(p1.covariates, p2.covariates)
    assert np.array_equal(p1.responses, p2.responses)
    assert np.array_equal(t1, t2)
    p3, _ = gen_logistic(10, 20, seed=8)
    assert not np.array_equal(p1.responses, p3.responses)


def test_gen_logistic_covariate_variances():
    n, T = 1000, 100
    panel, _ = gen_logistic(n, T, seed=1)
    # remove the per-individual mean level (0.5 alpha + eta) and check the
    # idiosyncratic variances of the two covariates
    x1 = panel.covariates[:, :, 0]
    x2 = panel.covariates[:, :, 1]
    v1 = np.mean(np.var(x1, axis=1, ddof=1))
    v2 = np.mean(np.var(x2, axis=1, ddof=1))
    assert abs(v1 - 4.0) < 0.2
    assert abs(v2 - 0.04) < 0.002


def test_gen_logistic_group_frequencies():
    draws = 10_000
    _, truth = gen_logistic(draws, 2, seed=2)
    counts = np.bincount(truth, minlength=4)[1:]
    sigma = np.sqrt(draws * (1 / 3) * (2 / 3))
    assert np.abs(counts - draws / 3).max() < 3 * sigma


def test_gen_model1_marginals():
    n, T = 800, 125
    panel, truth = gen_model1(n, T, "normal", seed=3)
    assert set(np.unique(truth)) <= {1, 2, 3}
    x2 = panel.covariates[:, :, 1]
    assert 0.0 <= x2.min() and x2.max() <= 1.0
    assert abs(x2.mean() - 0.5) < 0.01
    x1_centered = panel.covariates[:, :, 0] - np.mean(
        panel.covariates[:, :, 0], axis=1, keepdims=True)
    assert abs(np.var(x1_centered) - 1.0) < 0.05


def test_gen_model2_has_four_groups():
    _, truth = gen_model2(400, 2, "normal", seed=4)
    assert set(np.unique(truth)) == {1, 2, 3, 4}


def test_gen_model3_equal_allocation():
    _, truth = gen_model3(30, 5, "normal", seed=5)
    assert np.bincount(truth)[1:].tolist() == [10, 10, 10]
    with pytest.raises(ValueError):
        gen_model3(31, 5, "normal", seed=5)


def test_gen_model4_equal_allocation_and_t3():
    panel, truth = gen_model4(30, 40, "t3", seed=6)
    assert np.bincount(truth)[1:].tolist() == [10, 10, 10]
    assert np.isfinite(panel.responses).all()


def test_the_tables_a_rep_reads_are_read_only():
    # a kept batch worker sees a rebinding of these names, not an edit
    with pytest.raises(TypeError):
        simulation.MODEL_GROUPS["model1"] = 4
    with pytest.raises(TypeError):
        simulation._BETAS["model1"] = np.zeros((3, 2))
    for betas in simulation._BETAS.values():
        with pytest.raises(ValueError, match="read-only"):
            betas[0, 0] = 1.0


REFERENCE_BETAS = {
    "logistic": np.array([[-4.0, 1.0], [0.0, 1.0], [4.0, 1.0]]),
    "model1": np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]]),
    "model2": np.array([[0.1, 0.1], [0.2, 0.2], [3.0, 3.0], [3.1, 3.1]]),
    "model4": np.array([[-5.0, 1.0], [0.0, 1.0], [3.0, 1.0]]),
}


def reference_panel(model, n, T, error_dist, seed):
    """The per-model fill loop that each generator once wrote out, one
    individual after the other: (covariates, responses, truth)."""
    from panelcluster.simulation import _draw_errors, make_rng

    rng = make_rng(seed)
    covs = np.empty((n, T, 1 if model == "model3" else 2))
    ys = np.empty((n, T))
    truth = np.empty(n, dtype=int)
    for i in range(n):
        if model == "logistic":
            group = int(rng.integers(1, 4))
            alpha = 1.0
            eta = rng.standard_normal()
            x1 = 0.5 * alpha + eta + 2.0 * rng.standard_normal(T)
            x2 = 0.5 * alpha + eta + 0.2 * rng.standard_normal(T)
            beta = REFERENCE_BETAS["logistic"][group - 1]
            eps = rng.logistic(size=T)
            covs[i] = np.column_stack([x1, x2])
            ys[i] = (alpha + x1 * beta[0] + x2 * beta[1] >= eps).astype(float)
        elif model == "model3":
            group = i % 3 + 1
            alpha = float(group)
            x = rng.standard_normal() + rng.standard_normal(T)
            e = _draw_errors(rng, T, error_dist)
            covs[i, :, 0] = x
            ys[i] = alpha + x * 1.0 + (1.0 + 0.1 * x) * e
        else:
            if model == "model1":
                alpha = rng.uniform()
                group = int(rng.integers(1, 4))
                x1 = 0.3 * alpha + rng.standard_normal(T)
                x2 = rng.uniform(size=T)
                noise = 0.5 * x2 * _draw_errors(rng, T, error_dist)
            elif model == "model2":
                alpha = 1.0
                group = int(rng.integers(1, 5))
                x1 = 0.3 * alpha + rng.standard_normal(T)
                x2 = rng.uniform(size=T)
                noise = 0.5 * x2 * _draw_errors(rng, T, error_dist)
            else:
                alpha = 1.0
                group = i % 3 + 1
                eta = rng.standard_normal()
                x1 = 0.5 * alpha + eta + rng.standard_normal(T)
                x2 = 0.5 * alpha + eta + np.sqrt(0.05) * rng.standard_normal(T)
                noise = _draw_errors(rng, T, error_dist)
            beta = REFERENCE_BETAS[model][group - 1]
            covs[i] = np.column_stack([x1, x2])
            ys[i] = alpha + x1 * beta[0] + x2 * beta[1] + noise
        truth[i] = group
    return covs, ys, truth


GENERATORS = {"logistic": lambda n, T, error_dist, seed: gen_logistic(n, T,
                                                                       seed),
              "model1": gen_model1, "model2": gen_model2,
              "model3": gen_model3, "model4": gen_model4}


@pytest.mark.parametrize("seed", [7, 2 ** 63 + 11])
@pytest.mark.parametrize("n", [0, 9, 30])
# the logistic design draws logistic errors only
@pytest.mark.parametrize("model,error_dist", [("logistic", None)] + [
    (model, error_dist) for model in ("model1", "model2", "model3", "model4")
    for error_dist in ("normal", "t3")])
def test_generators_match_the_per_model_reference_loops(model, error_dist, n,
                                                        seed):
    panel, truth = GENERATORS[model](n, 12, error_dist, seed)
    covs, ys, expected = reference_panel(model, n, 12, error_dist, seed)
    assert np.array_equal(panel.covariates, covs)
    assert np.array_equal(panel.responses, ys)
    assert np.array_equal(truth, expected) and truth.dtype == expected.dtype


@pytest.mark.parametrize("gen", [gen_model3, gen_model4])
def test_equal_allocation_models_reject_n_not_divisible_by_3(gen):
    for n in (1, 10, 29):
        with pytest.raises(ValueError, match="divisible by 3"):
            gen(n, 12, "normal", 7)


def test_t3_errors_are_heavier_tailed():
    from panelcluster.simulation import _draw_errors, make_rng

    normal = _draw_errors(make_rng(9), 200_000, "normal")
    heavy = _draw_errors(make_rng(9), 200_000, "t3")
    assert np.mean(np.abs(heavy) > 4) > 5 * max(np.mean(np.abs(normal) > 4),
                                                1e-5)
    with pytest.raises(ValueError):
        _draw_errors(make_rng(9), 5, "cauchy")


def test_config_accepts_numpy_integers():
    config = SimulationConfig(model="model1", n=np.int64(9), T=np.int32(40),
                              reps=np.int64(1), G_max=np.uint8(4))
    assert config.n == 9 and config.G_max == 4


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(model="nope", n=10, T=10, reps=1)
    with pytest.raises(ValueError):
        SimulationConfig(model="model1", n=10, T=10, reps=0)
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        SimulationConfig(model="model1", n=9, T=40, reps=1, restarts=0)
    # seeds equal modulo 2**64 would give the same repetitions
    for seed in (-1, -5, 2 ** 64, 2 ** 65):
        with pytest.raises(ValueError, match="seed must lie in 0..2"):
            SimulationConfig(model="model1", n=9, T=40, reps=1, seed=seed)
    for seed in (0, 2 ** 64 - 5, 2 ** 64 - 1):
        assert SimulationConfig(model="model1", n=9, T=40, reps=1,
                                seed=seed).seed == seed
    with pytest.raises(ValueError):
        SimulationConfig(model="model3", n=10, T=10, reps=1)
    with pytest.raises(ValueError):
        SimulationConfig(model="model1", n=10, T=10, reps=1, tau=1.5)
    with pytest.raises(ValueError):
        SimulationConfig(model="model1", n=10, T=10, reps=1,
                         methods=("bogus",))
    assert SimulationConfig(model="model2", n=8, T=10, reps=1).true_groups == 4


def test_single_rep_is_reproducible():
    config = SimulationConfig(model="model1", n=9, T=40, reps=1, seed=123,
                              restarts=5)
    r1 = run_rep(config, 0)
    r2 = run_rep(config, 0)
    assert np.array_equal(r1.truth, r2.truth)
    assert np.array_equal(r1.labels["spectral"], r2.labels["spectral"])
    assert r1.scores["spectral"].average == r2.scores["spectral"].average


def test_batch_replay_is_byte_identical():
    import json

    config = SimulationConfig(model="model1", n=9, T=40, reps=3, seed=11,
                              restarts=5, select_groups=True)
    first = json.dumps(result_payload(run_batch(config)), sort_keys=True)
    second = json.dumps(result_payload(run_batch(config)), sort_keys=True)
    assert first == second


def test_identity_method_clusters_identity_weighted_dissimilarity(monkeypatch):
    # spectral_identity's sup-norm of the raw differences must equal, bit
    # for bit, build_dissimilarity with a combined covariance of exactly I
    seen = {}
    build, cluster = simulation.build_dissimilarity, simulation.spectral_cluster

    def recording_build(estimates, *args, **kwargs):
        seen["betas"] = estimates
        return build(estimates, *args, **kwargs)

    def recording_cluster(V, *args, **kwargs):
        seen["V"] = V
        return cluster(V, *args, **kwargs)

    monkeypatch.setattr(simulation, "build_dissimilarity", recording_build)
    monkeypatch.setattr(simulation, "spectral_cluster", recording_cluster)
    config = SimulationConfig(model="model1", n=9, T=40, reps=1, seed=3,
                              restarts=5, methods=("spectral_identity",))
    run_rep(config, 0)
    betas = seen["betas"]
    identity = [0.5 * np.eye(betas.shape[1])] * len(betas)
    assert np.array_equal(seen["V"],
                          build_dissimilarity(betas, identity))


def test_quantile_rep_drops_a_failed_fit(monkeypatch):
    gen = simulation.gen_model1

    def rank_deficient_third(n, T, error_dist, seed):
        # individual 2's second covariate repeats its first: rank 2 of 3
        panel, truth = gen(n, T, error_dist, seed)
        panel.covariates[2, :, 1] = panel.covariates[2, :, 0]
        return panel, truth

    monkeypatch.setattr(simulation, "gen_model1", rank_deficient_third)
    config = SimulationConfig(model="model1", n=9, T=40, reps=1, seed=3,
                              restarts=5, select_groups=True)
    rep = run_rep(config, 0)
    assert rep.dropped == 1
    assert len(rep.truth) == len(rep.labels["spectral"]) == 8


def test_quantile_fit_failing_its_certificate_is_dropped(monkeypatch):
    certified = quantile._certified
    panel, _ = gen_model1(9, 40, "normal", seed=4)
    failing = panel.responses[5]

    def failing_for_row_5(A, y, gamma, tau, tol):
        ok = certified(A, y, gamma, tau, tol)
        return ok & ~(y == failing).all(axis=-1)

    monkeypatch.setattr(quantile, "_certified", failing_for_row_5)
    ids = [f"u{i}" for i in range(9)]
    table = simulation.estimate_panel(panel, "qr-slopes", ids=ids)
    assert table.dropped == [("u5", "NonConvergence")]
    assert table.ids == ids[:5] + ids[6:]


def test_estimate_panel_drops_and_reports_failed_fits():
    panel, _ = gen_logistic(6, 40, seed=3)
    responses = panel.responses.copy()
    responses[4] = 0.0
    panel = type(panel)(panel.covariates, responses)
    ids = [f"u{i}" for i in range(6)]
    table = simulation.estimate_panel(panel, "logistic", ids=ids)
    assert ("u4", "DegenerateOutcome") in table.dropped
    assert table.ids == [i for i in ids
                         if i not in dict(table.dropped)]
    assert table.sigmas.shape == (table.n, 2, 2) and table.d_T is None


def test_logistic_round_redraws_a_draw_whose_covariance_fails(
        monkeypatch, tmp_path):
    from panelcluster.cli import main
    from panelcluster.types import SingularHessian

    fit = simulation._logistic_slopes
    rounds = []

    def singular_third_draw(panel):
        slopes, sigma, failed = fit(panel)
        rounds.append(panel.n)
        if len(rounds) == 1:
            failed = {**failed, 2: SingularHessian("injected")}
        return slopes, sigma, failed

    monkeypatch.setattr(simulation, "_logistic_slopes", singular_third_draw)
    config = SimulationConfig(model="logistic", n=9, T=100, reps=1, seed=5,
                              restarts=5)
    table, truth = simulation._fit_logistic_rep(
        config, simulation.make_rng(11))
    assert (2, "SingularHessian") in table.dropped
    assert 2 not in table.ids and len(rounds) > 1
    assert table.n == len(truth) == 9
    rounds.clear()
    rep = run_rep(config, 0)
    assert len(rep.truth) == 9 and rep.dropped >= 1
    rounds.clear()
    path = tmp_path / "config.json"
    path.write_text('{"model": "logistic", "n": 9, "T": 100, "reps": 1}')
    assert main(["simulate", str(path), "--out",
                 str(tmp_path / "out.json")]) == 0


def test_logistic_rep_runs_and_scores():
    config = SimulationConfig(model="logistic", n=9, T=100, reps=1, seed=5,
                              restarts=10)
    rep = run_rep(config, 0)
    assert 0.0 <= rep.scores["spectral"].average <= 1.0
    assert len(rep.truth) == 9


def test_model3_rep_runs():
    config = SimulationConfig(model="model3", n=9, T=60, reps=1, seed=5,
                              restarts=10)
    rep = run_rep(config, 0)
    assert rep.scores["spectral"].average >= 1 / 3


def test_aggregate_shapes():
    config = SimulationConfig(model="model2", n=8, T=60, reps=2, seed=2,
                              restarts=5,
                              methods=("spectral", "kmeans_raw"),
                              select_groups=True)
    result = run_batch(config)
    agg = result.aggregates
    assert agg["reps"] == 2
    for method in ("spectral", "kmeans_raw"):
        assert 0.0 <= agg[method]["perfect_match"] <= 1.0
        assert 0.0 <= agg[method]["average_match"] <= 1.0
    table = agg["group_count_table"]
    assert set(table) == {"1", "2", "3", "4", "5+"}
    assert sum(table.values()) == pytest.approx(1.0)


PANELS = [(gen_logistic, (9, 40, 3)), (gen_model1, (9, 40, "normal", 1)),
          (gen_model3, (9, 40, "normal", 1))]


@pytest.mark.parametrize("gen,args", PANELS)
@pytest.mark.parametrize("part,bad", [("responses", np.nan),
                                      ("responses", -np.inf),
                                      ("covariates", np.inf),
                                      ("covariates", np.nan)])
def test_panel_names_the_first_individual_with_a_non_finite_entry(
        gen, args, part, bad):
    panel, _ = gen(*args)
    values = {"covariates": panel.covariates, "responses": panel.responses}
    values[part][7, 3] = bad
    values[part][5, 0] = bad
    with pytest.raises(ValueError,
                       match=f"^individual 5 has non-finite {part}$"):
        PanelDataset(**values)


def test_panel_names_responses_and_covariates_in_index_order():
    panel, _ = gen_model1(9, 40, "normal", 1)
    panel.covariates[6, 0, 1] = np.nan
    panel.responses[6, 1] = np.inf
    with pytest.raises(ValueError, match="individual 6 has non-finite "
                                         "responses"):
        PanelDataset(panel.covariates, panel.responses)
    panel.covariates[2, 5, 0] = -np.inf
    with pytest.raises(ValueError, match="individual 2 has non-finite "
                                         "covariates"):
        PanelDataset(panel.covariates, panel.responses)


@pytest.mark.parametrize("covariates,responses,message", [
    (np.zeros((3, 4)), np.zeros((3, 4)),
     "covariates must have shape (n, T, p)"),
    (np.zeros((3, 4, 1)), np.zeros((3, 5)), "responses must have shape (n, T)"),
])
def test_panel_rejects_mismatched_shapes(covariates, responses, message):
    with pytest.raises(DimensionMismatch) as info:
        PanelDataset(covariates, responses)
    assert str(info.value) == message


@pytest.mark.parametrize("kwargs,error,message", [
    ({"model": "qr-slopes", "ids": ["a", "b"]}, DimensionMismatch,
     "one id per individual required"),
    ({"model": "ols"}, ValueError, "unknown model 'ols'"),
])
def test_estimate_panel_rejects_bad_arguments(kwargs, error, message):
    panel, _ = gen_model1(9, 40, "normal", 1)
    with pytest.raises(error) as info:
        simulation.estimate_panel(panel, **kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("gen,args,model", [
    (gen_logistic, (9, 100, 3), "logistic"),
    (gen_model1, (9, 40, "normal", 1), "qr-slopes")])
def test_overflowing_design_is_dropped_and_not_computed_again(
        capfd, gen, args, model):
    panel, _ = gen(*args)
    panel.covariates[4] *= 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = simulation.estimate_panel(panel, model)
    assert table.dropped == [(4, "SingularDesign")]
    # neither numpy nor LAPACK reports on the dropped row
    assert capfd.readouterr() == ("", "")
