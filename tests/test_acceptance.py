"""End-to-end acceptance gate: Monte-Carlo targets and property bundles.

Each check prints a PASS/FAIL line so a full run doubles as a report.
The batches reuse module-scoped fixtures, so the expensive simulations run
exactly once each.
"""

import itertools
import json

import numpy as np
import pytest

from panelcluster.io import result_payload
from panelcluster.logistic import fit_logistic, log_likelihood, plugin_hessian
from panelcluster.metrics import average_match
from panelcluster.quantile import (
    fit_quantile,
    quantile_objective,
    subgradient_certificate,
)
from panelcluster.simulation import SimulationConfig, run_batch
from panelcluster.spectral import (
    _affinity,
    build_dissimilarity,
    kmeans,
    select_num_groups,
)

REPS = 100

# tolerance bands are inclusive; the guard keeps a boundary value such as
# |0.82 - 0.92| <= 0.10 from failing on binary float representation alone
TOL_EPS = 1e-9


def check(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def run(model, n, T, **kw):
    kw.setdefault("reps", REPS)
    return run_batch(SimulationConfig(model=model, n=n, T=T, seed=20230823,
                                      **kw)).aggregates


@pytest.fixture(scope="module")
def logistic_n30_t150():
    return run("logistic", 30, 150)


@pytest.fixture(scope="module")
def logistic_n30_t30():
    return run("logistic", 30, 30)


@pytest.fixture(scope="module")
def model1_n30_t120():
    return run("model1", 30, 120,
               methods=("spectral", "spectral_identity"))


@pytest.fixture(scope="module")
def model1_n30_t60():
    return run("model1", 30, 60)


@pytest.fixture(scope="module")
def model3_n30_t60():
    return run("model3", 30, 60)


@pytest.fixture(scope="module")
def model2_t400():
    return run("model2", 40, 400)


def select_table(model, n, T):
    agg = run(model, n, T, select_groups=True, cluster_at_true_g=False)
    return agg["group_count_table"]


def test_criterion_1_logistic_membership(logistic_n30_t150, logistic_n30_t30):
    perfect = logistic_n30_t150["spectral"]["perfect_match"]
    average = logistic_n30_t150["spectral"]["average_match"]
    check("1a logistic n=30 T=150 perfect in 0.97±0.10",
          abs(perfect - 0.97) <= 0.10 + TOL_EPS, f"perfect={perfect:.3f}")
    check("1b logistic n=30 T=150 average >= 0.99",
          average >= 0.99, f"average={average:.4f}")
    short = logistic_n30_t30["spectral"]["average_match"]
    check("1c logistic n=30 T=30 average >= 0.90",
          short >= 0.90, f"average={short:.4f}")


def test_criterion_2_quantile_model1(model1_n30_t120):
    agg = model1_n30_t120
    perfect = agg["spectral"]["perfect_match"]
    average = agg["spectral"]["average_match"]
    gap = average - agg["spectral_identity"]["average_match"]
    check("2a model1 n=30 T=120 perfect in 0.92±0.10",
          abs(perfect - 0.92) <= 0.10 + TOL_EPS, f"perfect={perfect:.3f}")
    check("2b model1 n=30 T=120 average in 0.997±0.01",
          abs(average - 0.997) <= 0.01 + TOL_EPS, f"average={average:.4f}")
    check("2c covariance weighting beats identity ablation by >= 0.2",
          gap >= 0.2, f"gap={gap:.3f}")


def test_criterion_3_pooled_model3(model3_n30_t60):
    perfect = model3_n30_t60["spectral"]["perfect_match"]
    average = model3_n30_t60["spectral"]["average_match"]
    check("3a model3 n=30 T=60 perfect in 0.95±0.07",
          abs(perfect - 0.95) <= 0.07 + TOL_EPS, f"perfect={perfect:.3f}")
    check("3b model3 n=30 T=60 average >= 0.99",
          average >= 0.99, f"average={average:.4f}")


def test_criterion_4_group_count_selection():
    freq = select_table("model2", 40, 160)["4"]
    check("4a model2 n=40 T=160 selects G=4 in >= 90% of reps",
          freq >= 0.90, f"rate={freq:.2f}")
    freq = select_table("model3", 60, 30)["3"]
    check("4b model3 n=60 T=30 selects G=3 in >= 90% of reps",
          freq >= 0.90, f"rate={freq:.2f}")
    freq = select_table("model1", 60, 120)["3"]
    check("4c model1 n=60 T=120 selects G=3 in >= 90% of reps",
          freq >= 0.90, f"rate={freq:.2f}")


def test_criterion_6_perfect_recovery_at_large_T(model2_t400):
    perfect = model2_t400["spectral"]["perfect_match"]
    check("6 model2 n=40 T=400 perfect recovery in >= 95% of reps",
          perfect >= 0.95, f"perfect={perfect:.3f}")


# --- criterion 5: property bundles that run without any simulation table ---


def test_criterion_5_laplacian_spectrum_and_block_multiplicity():
    def laplacian(V):  # L = I - N
        return np.eye(len(V)) - _affinity(V)

    rng = np.random.default_rng(0)
    ok = True
    for _ in range(20):
        M = np.abs(rng.normal(size=(12, 12)))
        V = np.triu(M, 1) + np.triu(M, 1).T
        eig = np.linalg.eigvalsh(laplacian(V))
        ok &= eig.min() > -1e-8 and eig.max() < 2 + 1e-8
    V = np.full((12, 12), 1e4)
    for block in (slice(0, 3), slice(3, 7), slice(7, 12)):
        V[block, block] = 0.0
    np.fill_diagonal(V, 0.0)
    eig = np.sort(np.linalg.eigvalsh(laplacian(V)))
    ok &= np.abs(eig[:3]).max() < 1e-10
    ok &= np.abs(eig[3:] - 1.0).max() < 1e-10
    check("5a Laplacian spectrum in [0,2]; zero eigenvalue multiplicity = "
          "block count", bool(ok))


def test_criterion_5_dissimilarity_scale_invariance_and_symmetry():
    rng = np.random.default_rng(1)
    betas = [rng.normal(size=3) for _ in range(6)]
    sigmas = []
    for _ in range(6):
        A = rng.normal(size=(3, 3))
        sigmas.append(A @ A.T + 0.1 * np.eye(3))

    def table(bs, ss):
        return build_dissimilarity(bs, ss)

    base = table(betas, sigmas)
    c = 7.0
    scaled = table([c * b for b in betas], [c ** 2 * s for s in sigmas])
    ok = (np.abs(base - scaled).max() <= 1e-12
          and np.abs(base - base.T).max() == 0.0
          and np.all(np.diag(base) == 0.0))
    check("5b dissimilarity scale invariance and symmetry", bool(ok))


def test_criterion_5_subgradient_certificates_100_instances():
    rng = np.random.default_rng(2)
    failures = 0
    for _ in range(100):
        T = int(rng.integers(20, 80))
        s = int(rng.integers(1, 4))
        X = np.column_stack([np.ones(T), rng.normal(size=(T, s - 1))]) \
            if s > 1 else np.ones((T, 1))
        y = rng.normal(size=T) + rng.standard_t(df=3, size=T)
        tau = float(rng.uniform(0.1, 0.9))
        gamma = fit_quantile(X[None], y[None], [tau])[0][0, 0]
        if not subgradient_certificate(X, y, gamma, tau):
            failures += 1
    check("5c quantile subgradient certificate on 100 random instances",
          failures == 0, f"failures={failures}")


def test_criterion_5_basic_solution_enumeration():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(8):
        T = 12
        s = int(rng.integers(2, 4))
        X = np.column_stack([np.ones(T), rng.normal(size=(T, s - 1))])
        y = rng.normal(size=T)
        tau = float(rng.uniform(0.2, 0.8))
        gamma = fit_quantile(X[None], y[None], [tau])[0][0, 0]
        best = min(
            quantile_objective(X, y,
                               np.linalg.solve(X[list(sub)], y[list(sub)]),
                               tau)
            for sub in itertools.combinations(range(T), s)
            if abs(np.linalg.det(X[list(sub)])) > 1e-12)
        worst = max(worst,
                    abs(quantile_objective(X, y, gamma, tau) - best))
    check("5d quantile solutions match basic-solution enumeration",
          worst < 1e-9, f"max objective gap={worst:.2e}")


def test_criterion_5_logistic_hessian_finite_differences():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(5):
        T = 120
        X = np.column_stack([np.ones(T), rng.normal(size=(T, 2))])
        gamma_star = rng.normal(scale=0.8, size=3)
        prob = 1 / (1 + np.exp(-(X @ gamma_star)))
        y = (rng.uniform(size=T) < prob).astype(float)
        gamma = fit_logistic(X[None], y[None]).gamma[0]
        analytic = plugin_hessian(X, gamma)
        step = 1e-5
        numeric = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                deltas = 0.0
                for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                    g = gamma.copy()
                    g[i] += si * step
                    g[j] += sj * step
                    deltas += si * sj * log_likelihood(X, y, g)
                numeric[i, j] = -deltas / (4 * step ** 2)
        worst = max(worst,
                    np.abs(analytic - numeric).max() / np.abs(analytic).max())
    check("5e logistic Hessian matches finite differences to 1e-4",
          worst < 1e-4, f"max rel err={worst:.2e}")


def test_criterion_5_assignment_matches_enumeration():
    rng = np.random.default_rng(5)
    ok = True
    for _ in range(100):
        G = int(rng.integers(2, 7))
        n = int(rng.integers(G, 30))
        truth = rng.integers(1, G + 1, size=n)
        estimate = rng.integers(1, G + 1, size=n)
        truth[:G] = np.arange(1, G + 1)
        estimate[:G] = rng.permutation(np.arange(1, G + 1))
        best = max(
            np.mean(np.array([perm[v - 1] for v in truth]) == estimate)
            for perm in itertools.permutations(range(1, G + 1)))
        ok &= average_match(truth, estimate).average == pytest.approx(best)
    check("5f assignment-based match equals exhaustive enumeration", bool(ok))


def test_criterion_5_kmeans_monotone_and_deterministic():
    rng = np.random.default_rng(6)
    pts = np.vstack([rng.normal(size=(20, 2)),
                     rng.normal(loc=5.0, size=(20, 2))])
    # Lloyd monotonicity is asserted inside every call
    l1, _, o1 = kmeans(pts, 3, seed=9)
    l2, _, o2 = kmeans(pts, 3, seed=9)
    check("5g k-means objective monotone and deterministic given seed",
          bool(np.array_equal(l1, l2) and o1 == o2))


def test_criterion_5_determinism_replay_of_a_batch():
    config = dict(model="model1", n=12, T=60, reps=5, seed=99, restarts=10,
                  select_groups=True)
    first = json.dumps(result_payload(
        run_batch(SimulationConfig(**config))), sort_keys=True)
    second = json.dumps(result_payload(
        run_batch(SimulationConfig(**config))), sort_keys=True)
    check("5h simulation batch replay is byte-identical", first == second)


# --- statistical invariants stated alongside the table targets ---


def test_ablation_ordering_logistic(capsys):
    agg = run("logistic", 30, 90, methods=("spectral", "kmeans_raw"))
    gap = (agg["spectral"]["average_match"]
           - agg["kmeans_raw"]["average_match"])
    check("logistic n=30 T=90: weighting beats raw k-means by >= 0.1",
          gap >= 0.1, f"gap={gap:.3f}")


def test_model1_monotone_in_T(model1_n30_t60, model1_n30_t120):
    short = model1_n30_t60["spectral"]["perfect_match"]
    long = model1_n30_t120["spectral"]["perfect_match"]
    check("model1 n=30: perfect match at T=120 >= T=60",
          long >= short, f"T=60: {short:.3f}, T=120: {long:.3f}")
