import numpy as np
import pytest

from panelcluster import spectral
from panelcluster.spectral import (
    _inverse_sqrt_stack,
    _laplacian,
    build_dissimilarity,
    kmeans,
    matrix_inverse_sqrt,
    select_num_groups,
    spectral_cluster,
)
from panelcluster.metrics import average_match, perfect_match
from panelcluster.types import (
    ALREADY_SCALED,
    PER_OBSERVATION,
    DimensionMismatch,
    EstimateTable,
    NonPositiveCombined,
    NotSymmetric,
    validate_covariance,
)


def test_inverse_sqrt_identity():
    assert np.allclose(matrix_inverse_sqrt(np.eye(3)), np.eye(3))


def test_inverse_sqrt_diagonal():
    out = matrix_inverse_sqrt(np.diag([4.0, 9.0]))
    assert np.allclose(out, np.diag([0.5, 1.0 / 3.0]))


@pytest.mark.parametrize("small", [0.0, -1e-11])
def test_inverse_sqrt_floors_small_eigenvalues(small):
    # floored at 1e-10 * the largest eigenvalue
    out = matrix_inverse_sqrt(np.diag([1.0, small]))
    assert np.allclose(out, np.diag([1.0, 1e5]))


def test_inverse_sqrt_rejects_negative_eigenvalue():
    with pytest.raises(NonPositiveCombined):
        matrix_inverse_sqrt(np.diag([1.0, -1e-9]))


@pytest.mark.parametrize("seed", range(5))
def test_inverse_sqrt_reconstruction(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(4, 4))
    S = A @ A.T + 0.1 * np.eye(4)
    R = matrix_inverse_sqrt(S)
    assert np.linalg.norm(R @ S @ R - np.eye(4)) < 1e-8


def test_inverse_sqrt_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        matrix_inverse_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_dissimilarity_zero_for_equal_betas():
    betas = [np.array([1.0, 2.0])] * 3
    V = build_dissimilarity(betas, [np.eye(2)] * 3)
    assert np.all(V == 0)


def test_dissimilarity_scalar_case():
    sigmas = [np.array([[0.5]]), np.array([[0.5]])]
    V = build_dissimilarity([np.array([1.0]), np.array([3.0])], sigmas)
    assert V[0, 1] == pytest.approx(2.0, rel=1e-12)


def test_dissimilarity_joint_rescale_invariance():
    rng = np.random.default_rng(0)
    betas = [rng.normal(size=2) for _ in range(4)]
    sigmas = []
    for _ in range(4):
        A = rng.normal(size=(2, 2))
        sigmas.append(A @ A.T + 0.2 * np.eye(2))
    base = build_dissimilarity(betas, sigmas)
    c = 7.0
    scaled = build_dissimilarity([c * b for b in betas],
                                 [c ** 2 * s for s in sigmas])
    assert np.abs(base - scaled).max() <= 1e-12


def test_dissimilarity_two_dimensional_hand_case():
    # combined covariance diag(4, 0.04); whitened difference (1, 1)
    sigmas = [np.diag([2.0, 0.02]), np.diag([2.0, 0.02])]
    V = build_dissimilarity([np.zeros(2), np.array([2.0, 0.2])], sigmas)
    assert V[0, 1] == pytest.approx(1.0, rel=1e-12)


def scalar_table(sigma, **kwargs):
    return EstimateTable(["a", "b"], [[0.0], [1.0]], [[[sigma]]] * 2, **kwargs)


def test_dissimilarity_per_observation_divides_by_T():
    table = scalar_table(50.0, scale=PER_OBSERVATION)
    V = build_dissimilarity(table.betas, table.variances(100))
    assert V[0, 1] == pytest.approx(1.0, rel=1e-12)


def test_dissimilarity_weights_override_common_T():
    table = scalar_table(1.0, weights=np.array([4.0, 4.0]))
    V = build_dissimilarity(table.betas, table.variances(999))
    assert V[0, 1] == pytest.approx(np.sqrt(2.0), rel=1e-12)


@pytest.mark.parametrize("weights", [[4.0, 0.0], [4.0, -5.0], [4.0, np.nan],
                                     [4.0, np.inf], [4.0]])
def test_dissimilarity_rejects_bad_weights(weights):
    # a table with bad weights cannot be built, so it never reaches V
    with pytest.raises(ValueError, match="finite and > 0"):
        scalar_table(1.0, weights=np.array(weights))


def test_weights_require_per_observation_scale():
    with pytest.raises(ValueError, match="per_observation"):
        scalar_table(1.0, weights=np.array([4.0, 4.0]), scale=ALREADY_SCALED)


@pytest.mark.parametrize("T", [None, 0, -5, 2.5])
def test_per_observation_variances_require_integer_T(T):
    with pytest.raises(ValueError, match=f"T={T!r}"):
        scalar_table(1.0).variances(T)


def reference_dissimilarity(betas, sigmas, T, scale, weights=None):
    """The pairwise loop over matrix_inverse_sqrt that build_dissimilarity
    batches; the batched version must reproduce it bit for bit."""
    n = len(betas)
    if weights is not None:
        scaled = [sigma / w for sigma, w in zip(sigmas, weights)]
    elif scale == PER_OBSERVATION:
        scaled = [sigma / T for sigma in sigmas]
    else:
        scaled = list(sigmas)
    V = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            whitener = matrix_inverse_sqrt(scaled[i] + scaled[j])
            V[i, j] = V[j, i] = np.abs(whitener @ (betas[i] - betas[j])).max()
    return V


def random_estimates(n, s, seed):
    rng = np.random.default_rng(seed)
    betas = rng.normal(size=(n, s))
    # pairs of these rank-1 covariances have a singular combined covariance
    # when s > 1, which exercises the eigenvalue floor
    u = np.arange(1.0, s + 1.0)
    sigmas = np.empty((n, s, s))
    for i in range(n):
        A = rng.normal(size=(s, s))
        sigmas[i] = np.outer(u, u) if i % 7 == 0 else A @ A.T + 0.1 * np.eye(s)
    return betas, sigmas


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("scale,weighted", [(PER_OBSERVATION, False),
                                            (ALREADY_SCALED, False),
                                            (PER_OBSERVATION, True)])
def test_batched_dissimilarity_equals_pairwise_loop(monkeypatch, s, scale,
                                                     weighted):
    # 7 140 pairs in chunks of 1024 / s**2: several chunks, the last ragged
    monkeypatch.setattr(spectral, "PAIR_CHUNK_ENTRIES", 2 ** 10)
    n = 120
    betas, sigmas = random_estimates(n, s, seed=10 * s + weighted)
    weights = (np.random.default_rng(s).integers(20, 200, size=n)
               .astype(float) if weighted else None)
    table = EstimateTable(list(range(n)), betas, sigmas, scale=scale,
                          weights=weights)
    V = build_dissimilarity(table.betas, table.variances(37))
    assert np.array_equal(V, reference_dissimilarity(betas, sigmas, 37, scale,
                                                     weights))


def test_batched_dissimilarity_equals_pairwise_loop_at_default_chunk():
    n = 300  # 44 850 pairs: six chunks at s = 2
    assert n * (n - 1) // 2 > spectral.PAIR_CHUNK_ENTRIES // 4
    betas, sigmas = random_estimates(n, 2, seed=3)
    table = EstimateTable(list(range(n)), betas, sigmas)
    V = build_dissimilarity(table.betas, table.variances(120))
    assert np.array_equal(V, reference_dissimilarity(betas, sigmas, 120,
                                                     PER_OBSERVATION))


def test_negative_combined_in_last_chunk_is_rejected(monkeypatch):
    monkeypatch.setattr(spectral, "PAIR_CHUNK_ENTRIES", 2 ** 8)
    n = 40  # 780 pairs in chunks of 64; only the last pair is negative
    betas, sigmas = random_estimates(n, 2, seed=5)
    sigmas[:] = 10.0 * np.eye(2)
    sigmas[-2:] = -0.5 * np.eye(2)
    with pytest.raises(NonPositiveCombined):
        build_dissimilarity(betas, sigmas)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_inverse_sqrt_stack_rejects_negative_last_matrix(s):
    # PSD-checked variances sum to PSD matrices, so build_dissimilarity
    # reaches this branch only through rounding; test the stack directly
    m = 7
    stack = np.array([(k + 1.0) * np.eye(s) for k in range(m)])
    stack[-1, -1, -1] = -0.5
    with pytest.raises(NonPositiveCombined):
        _inverse_sqrt_stack(stack)
    out = _inverse_sqrt_stack(stack[:-1])
    assert np.allclose(out, np.array([np.eye(s) / np.sqrt(k + 1.0)
                                      for k in range(m - 1)]))


NON_FINITE_COVARIANCES = [[[np.nan]], [[1.0, np.inf], [np.inf, 1.0]]]


@pytest.mark.parametrize("sigma", NON_FINITE_COVARIANCES)
def test_estimate_table_rejects_non_finite_covariance(sigma):
    s = len(sigma)
    with pytest.raises(ValueError, match=r"row 1 \(id=b\): .*non-finite"):
        EstimateTable(["a", "b"], np.zeros((2, s)),
                      np.array([np.eye(s), sigma]))


@pytest.mark.parametrize("sigma", NON_FINITE_COVARIANCES)
def test_dissimilarity_rejects_non_finite_sigmas_before_eigh(monkeypatch,
                                                              sigma):
    def no_eigendecomposition(*args, **kwargs):
        raise AssertionError("eigendecomposition reached")

    monkeypatch.setattr(np.linalg, "eigh", no_eigendecomposition)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigendecomposition)
    s = len(sigma)
    sigmas = np.array([np.eye(s), sigma, np.eye(s)])
    with pytest.raises(ValueError, match="non-finite"):
        build_dissimilarity(np.zeros((3, s)), sigmas)


@pytest.mark.parametrize("betas,sigmas", [
    (np.zeros(3), np.ones((3, 1, 1))),
    (np.zeros((3, 2)), np.ones((3, 1, 1))),
    (np.zeros((3, 1)), np.ones((2, 1, 1))),
])
def test_dissimilarity_rejects_mismatched_shapes(betas, sigmas):
    with pytest.raises(DimensionMismatch):
        build_dissimilarity(betas, sigmas)


def test_dissimilarity_rejects_unknown_scale():
    with pytest.raises(ValueError, match="unknown scale"):
        scalar_table(1.0, scale="per_period")


def block_dissimilarity(sizes, across=50.0):
    n = sum(sizes)
    V = np.full((n, n), across)
    start = 0
    for size in sizes:
        V[start:start + size, start:start + size] = 0.0
        start += size
    np.fill_diagonal(V, 0.0)
    return V, np.repeat(np.arange(1, len(sizes) + 1), sizes)


def test_spectral_single_group():
    V, _ = block_dissimilarity([4])
    labels = spectral_cluster(V, 1)
    assert np.all(labels == labels[0])


def test_spectral_recovers_two_blocks():
    V, truth = block_dissimilarity([5, 5])
    labels = spectral_cluster(V, 2)
    assert perfect_match(truth, labels)
    eigenvalues = np.linalg.eigvalsh(_laplacian(V))
    assert eigenvalues.min() > -1e-8
    assert eigenvalues.max() < 2 + 1e-8


def test_spectral_singletons_when_k_equals_n():
    V = np.zeros((3, 3))
    labels = spectral_cluster(V, 3)
    assert sorted(labels) == [1, 2, 3]


def test_spectral_deterministic_given_seed():
    rng = np.random.default_rng(11)
    M = np.abs(rng.normal(size=(8, 8)))
    V = np.triu(M, 1) + np.triu(M, 1).T
    a1 = spectral_cluster(V, 3, seed=42)
    a2 = spectral_cluster(V, 3, seed=42)
    assert np.array_equal(a1, a2)


@pytest.mark.parametrize("seed", range(10))
def test_spectral_equivariant_under_permutation(seed):
    V, truth = block_dissimilarity([4, 3, 5], across=30.0)
    base = spectral_cluster(V, 3, seed=0)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(V.shape[0])
    Vp = V[np.ix_(perm, perm)]
    permuted = spectral_cluster(Vp, 3, seed=0)
    # the permuted clustering must equal the permuted base labels up to
    # renaming of the label alphabet
    assert perfect_match(base[perm], permuted)


def test_laplacian_zero_multiplicity_on_exact_blocks():
    # with huge across-block dissimilarity the adjacency is numerically
    # block-diagonal: eigenvalue 0 with multiplicity = number of blocks,
    # all remaining eigenvalues 1
    V, _ = block_dissimilarity([3, 4, 5], across=1e4)
    eigvals = np.sort(np.linalg.eigvalsh(_laplacian(V)))
    assert np.abs(eigvals[:3]).max() < 1e-10
    assert np.abs(eigvals[3:] - 1.0).max() < 1e-10


def test_monotone_shift_of_dissimilarity_keeps_labels():
    V, truth = block_dissimilarity([5, 5], across=8.0)
    shifted = V + 2.0
    np.fill_diagonal(shifted, 0.0)
    a1 = spectral_cluster(V, 2, seed=0)
    a2 = spectral_cluster(shifted, 2, seed=0)
    assert perfect_match(a1, a2)


def test_select_two_perfect_blocks():
    V, _ = block_dissimilarity([5, 5], across=1e4)
    sel = select_num_groups(V, T=100)
    assert sel.G_hat == 2


def test_select_three_blocks():
    V, _ = block_dissimilarity([6, 6, 6], across=1e4)
    assert select_num_groups(V, T=200).G_hat == 3


def test_select_stays_in_range_on_uninformative_input():
    n = 12
    V = np.full((n, n), 1e6)
    np.fill_diagonal(V, 0.0)
    sel = select_num_groups(V, T=50)
    assert 1 <= sel.G_hat <= 10


def test_select_requires_min_sizes():
    V = np.zeros((2, 2))
    with pytest.raises(ValueError):
        select_num_groups(V, T=50)


def test_spectral_returns_one_based_label_array():
    V, _ = block_dissimilarity([3, 4])
    labels = spectral_cluster(V, 2)
    assert isinstance(labels, np.ndarray) and labels.shape == (7,)
    assert labels.dtype.kind == "i" and set(labels) == {1, 2}


def bad_dissimilarity(kind):
    V, _ = block_dissimilarity([2, 2], across=3.0)
    if kind == "nan":
        V[0, 2] = V[2, 0] = np.nan
    elif kind == "negative":
        V[0, 2] = V[2, 0] = -1.0
    elif kind == "asymmetric":
        V[0, 2] = 4.0
    elif kind == "diagonal":
        V[1, 1] = 0.5
    else:
        V = V[:, :3]
    return V


BAD_DISSIMILARITIES = [
    ("nan", ValueError, "dissimilarity contains non-finite entries"),
    ("negative", ValueError, "dissimilarity entries must be non-negative"),
    ("asymmetric", ValueError, "dissimilarity must be symmetric"),
    ("diagonal", ValueError, "dissimilarity diagonal must be zero"),
    ("non-square", DimensionMismatch, "dissimilarity matrix must be square"),
]


@pytest.mark.parametrize("kind,error,message", BAD_DISSIMILARITIES)
def test_spectral_cluster_checks_a_raw_dissimilarity(kind, error, message):
    with pytest.raises(error, match=message):
        spectral_cluster(bad_dissimilarity(kind), 2)


@pytest.mark.parametrize("kind,error,message", BAD_DISSIMILARITIES)
def test_select_num_groups_checks_a_raw_dissimilarity(kind, error, message):
    with pytest.raises(error, match=message):
        select_num_groups(bad_dissimilarity(kind), T=50)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dissimilarity_rejects_non_finite_estimates(bad):
    betas = np.zeros((3, 2))
    betas[1, 0] = bad
    with pytest.raises(ValueError, match="estimates contain non-finite"):
        build_dissimilarity(betas, np.ones((3, 1, 1)) * np.eye(2))


@pytest.mark.parametrize("betas,variances,message", [
    ([[1e308], [-1e308]], [[[1.0]], [[1.0]]], "non-finite dissimilarity"),
    ([[1e300], [0.0]], [[[0.0]], [[0.0]]], "non-finite dissimilarity"),
    ([[0.0], [1.0]], [[[1e308]], [[1e308]]], "non-finite dissimilarity"),
])
def test_dissimilarity_rejects_overflow_of_finite_inputs(betas, variances,
                                                         message):
    # the suite turns RuntimeWarning into an error, so a silent overflow
    # would fail here as a warning, not as this ValueError
    with pytest.raises(ValueError, match=message):
        build_dissimilarity(np.array(betas), np.array(variances))


def test_validate_covariance_halves_before_it_sums():
    with pytest.raises(NonPositiveCombined):
        validate_covariance(np.diag([1e308, -1e308]))
    with pytest.raises(NotSymmetric):
        validate_covariance(np.array([[1.0, 1e308], [-1e308, 1.0]]))


def test_weighted_variances_overflowing_are_rejected_downstream():
    table = scalar_table(1e308, weights=np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match="non-finite"):
        build_dissimilarity(table.betas, table.variances())


def test_select_num_groups_accepts_a_huge_finite_dissimilarity():
    V, _ = block_dissimilarity([3, 3], across=1.7e308)
    assert select_num_groups(V, T=3).G_hat == 2


def test_kmeans_single_cluster_is_mean():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(20, 2))
    labels, centers, objective = kmeans(pts, 1)
    assert np.allclose(centers[0], pts.mean(axis=0))
    assert objective == pytest.approx(((pts - pts.mean(0)) ** 2).sum())


def test_kmeans_two_tight_pairs():
    pts = np.array([[0.0], [0.1], [10.0], [10.1]])
    labels, _, objective = kmeans(pts, 2)
    assert labels[0] == labels[1] and labels[2] == labels[3]
    assert labels[0] != labels[2]
    assert objective == pytest.approx(0.01)


def test_kmeans_duplicated_dataset_same_centers():
    rng = np.random.default_rng(4)
    pts = np.vstack([rng.normal(size=(6, 2)),
                     rng.normal(loc=8.0, size=(6, 2))])
    _, centers, _ = kmeans(pts, 2, seed=1)
    _, centers2, _ = kmeans(np.vstack([pts, pts]), 2, seed=1)
    order = np.argsort(centers[:, 0])
    order2 = np.argsort(centers2[:, 0])
    assert np.allclose(centers[order], centers2[order2])


def test_kmeans_rejects_too_many_clusters():
    with pytest.raises(ValueError):
        kmeans(np.zeros((2, 1)), 3)


def test_kmeans_rejects_zero_restarts():
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        kmeans(np.zeros((4, 1)), 2, restarts=0)


@pytest.mark.parametrize("G_max", [0, -2])
def test_select_num_groups_rejects_g_max_below_one(G_max):
    V = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 5.0], [5.0, 5.0, 0.0]])
    with pytest.raises(ValueError, match=f"G_max must be >= 1, got {G_max}"):
        select_num_groups(V, 30, G_max=G_max)
