import numpy as np
import pytest

from panelcluster import spectral
from panelcluster.spectral import (
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
    DissimilarityMatrix,
    NonPositiveCombined,
    NotSymmetric,
    UncertaintyEstimate,
)


def already_scaled(sigmas):
    return [UncertaintyEstimate(i, s, scale=ALREADY_SCALED)
            for i, s in enumerate(sigmas)]


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
    uncs = already_scaled([np.eye(2)] * 3)
    V = build_dissimilarity(betas, uncs, T=10)
    assert np.all(V.V == 0)


def test_dissimilarity_scalar_case():
    uncs = already_scaled([np.array([[0.5]]), np.array([[0.5]])])
    V = build_dissimilarity([np.array([1.0]), np.array([3.0])], uncs, T=10)
    assert V.V[0, 1] == pytest.approx(2.0, rel=1e-12)


def test_dissimilarity_joint_rescale_invariance():
    rng = np.random.default_rng(0)
    betas = [rng.normal(size=2) for _ in range(4)]
    sigmas = []
    for _ in range(4):
        A = rng.normal(size=(2, 2))
        sigmas.append(A @ A.T + 0.2 * np.eye(2))
    base = build_dissimilarity(betas, already_scaled(sigmas), T=5).V
    c = 7.0
    scaled = build_dissimilarity([c * b for b in betas],
                                 already_scaled([c ** 2 * s for s in sigmas]),
                                 T=5).V
    assert np.abs(base - scaled).max() <= 1e-12


def test_dissimilarity_two_dimensional_hand_case():
    # combined covariance diag(4, 0.04); whitened difference (1, 1)
    uncs = already_scaled([np.diag([2.0, 0.02]), np.diag([2.0, 0.02])])
    V = build_dissimilarity([np.zeros(2), np.array([2.0, 0.2])], uncs, T=3)
    assert V.V[0, 1] == pytest.approx(1.0, rel=1e-12)


def test_dissimilarity_per_observation_divides_by_T():
    uncs = [UncertaintyEstimate(i, np.array([[50.0]]),
                                scale=PER_OBSERVATION) for i in range(2)]
    V = build_dissimilarity([np.array([0.0]), np.array([1.0])], uncs, T=100)
    assert V.V[0, 1] == pytest.approx(1.0, rel=1e-12)


def test_dissimilarity_weights_override_common_T():
    uncs = [UncertaintyEstimate(i, np.array([[1.0]]),
                                scale=PER_OBSERVATION) for i in range(2)]
    V = build_dissimilarity([np.array([0.0]), np.array([1.0])], uncs, T=999,
                            weights=np.array([4.0, 4.0]))
    assert V.V[0, 1] == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_dissimilarity_mixed_scales_rejected():
    uncs = [UncertaintyEstimate(0, np.eye(1), scale=PER_OBSERVATION),
            UncertaintyEstimate(1, np.eye(1), scale=ALREADY_SCALED)]
    with pytest.raises(DimensionMismatch):
        build_dissimilarity([np.zeros(1), np.ones(1)], uncs, T=10)


@pytest.mark.parametrize("weights", [[4.0, 0.0], [4.0, -5.0], [4.0, np.nan],
                                     [4.0, np.inf], [4.0]])
def test_dissimilarity_rejects_bad_weights(weights):
    uncs = [UncertaintyEstimate(i, np.eye(1)) for i in range(2)]
    with pytest.raises(ValueError, match="finite and > 0"):
        build_dissimilarity([np.zeros(1), np.ones(1)], uncs, T=10,
                            weights=np.array(weights))


def reference_dissimilarity(betas, uncs, T, weights=None):
    """The pairwise loop over matrix_inverse_sqrt that build_dissimilarity
    batches; the batched version must reproduce it bit for bit."""
    n = len(betas)
    if weights is not None:
        scaled = [u.sigma / w for u, w in zip(uncs, weights)]
    elif uncs[0].scale == PER_OBSERVATION:
        scaled = [u.sigma / T for u in uncs]
    else:
        scaled = [u.sigma for u in uncs]
    V = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            whitener = matrix_inverse_sqrt(scaled[i] + scaled[j])
            V[i, j] = V[j, i] = np.abs(whitener @ (betas[i] - betas[j])).max()
    return V


def random_estimates(n, s, scale, seed):
    rng = np.random.default_rng(seed)
    betas = rng.normal(size=(n, s))
    # pairs of these rank-1 covariances have a singular combined covariance
    # when s > 1, which exercises the eigenvalue floor
    u = np.arange(1.0, s + 1.0)
    uncs = []
    for i in range(n):
        A = rng.normal(size=(s, s))
        sigma = np.outer(u, u) if i % 7 == 0 else A @ A.T + 0.1 * np.eye(s)
        uncs.append(UncertaintyEstimate(i, sigma, scale=scale))
    return betas, uncs


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("scale,weighted", [(PER_OBSERVATION, False),
                                            (ALREADY_SCALED, False),
                                            (PER_OBSERVATION, True)])
def test_batched_dissimilarity_equals_pairwise_loop(monkeypatch, s, scale,
                                                     weighted):
    # 7 140 pairs in chunks of 1024 / s**2: several chunks, the last ragged
    monkeypatch.setattr(spectral, "PAIR_CHUNK_ENTRIES", 2 ** 10)
    n = 120
    betas, uncs = random_estimates(n, s, scale, seed=10 * s + weighted)
    weights = (np.random.default_rng(s).integers(20, 200, size=n)
               .astype(float) if weighted else None)
    V = build_dissimilarity(betas, uncs, T=37, weights=weights).V
    assert np.array_equal(V, reference_dissimilarity(betas, uncs, 37, weights))


def test_batched_dissimilarity_equals_pairwise_loop_at_default_chunk():
    n = 300  # 44 850 pairs: six chunks at s = 2
    assert n * (n - 1) // 2 > spectral.PAIR_CHUNK_ENTRIES // 4
    betas, uncs = random_estimates(n, 2, PER_OBSERVATION, seed=3)
    V = build_dissimilarity(betas, uncs, T=120).V
    assert np.array_equal(V, reference_dissimilarity(betas, uncs, 120))


def test_negative_combined_in_last_chunk_is_rejected(monkeypatch):
    monkeypatch.setattr(spectral, "PAIR_CHUNK_ENTRIES", 2 ** 8)
    n = 40  # 780 pairs in chunks of 64; only the last pair is negative
    betas, uncs = random_estimates(n, 2, ALREADY_SCALED, seed=5)
    for u in uncs:
        u.sigma = 10.0 * np.eye(2)
    uncs[-2].sigma = uncs[-1].sigma = -0.5 * np.eye(2)
    with pytest.raises(NonPositiveCombined):
        build_dissimilarity(betas, uncs, T=10)


def block_dissimilarity(sizes, across=50.0):
    n = sum(sizes)
    V = np.full((n, n), across)
    start = 0
    for size in sizes:
        V[start:start + size, start:start + size] = 0.0
        start += size
    np.fill_diagonal(V, 0.0)
    return DissimilarityMatrix(V), np.repeat(np.arange(1, len(sizes) + 1),
                                             sizes)


def test_spectral_single_group():
    V, _ = block_dissimilarity([4])
    assignment, _ = spectral_cluster(V, 1)
    assert np.all(assignment.labels == assignment.labels[0])


def test_spectral_recovers_two_blocks():
    V, truth = block_dissimilarity([5, 5])
    assignment, decomp = spectral_cluster(V, 2)
    assert perfect_match(truth, assignment.labels)
    assert decomp.eigenvalues.min() > -1e-8
    assert decomp.eigenvalues.max() < 2 + 1e-8
    assert np.allclose(np.linalg.norm(decomp.embedding, axis=1), 1.0,
                       atol=1e-10)


def test_spectral_singletons_when_k_equals_n():
    V = DissimilarityMatrix(np.zeros((3, 3)))
    assignment, _ = spectral_cluster(V, 3)
    assert sorted(assignment.labels) == [1, 2, 3]


def test_spectral_deterministic_given_seed():
    rng = np.random.default_rng(11)
    M = np.abs(rng.normal(size=(8, 8)))
    V = DissimilarityMatrix(np.triu(M, 1) + np.triu(M, 1).T)
    a1, _ = spectral_cluster(V, 3, seed=42)
    a2, _ = spectral_cluster(V, 3, seed=42)
    assert np.array_equal(a1.labels, a2.labels)


@pytest.mark.parametrize("seed", range(10))
def test_spectral_equivariant_under_permutation(seed):
    V, truth = block_dissimilarity([4, 3, 5], across=30.0)
    base, _ = spectral_cluster(V, 3, seed=0)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(V.V.shape[0])
    Vp = DissimilarityMatrix(V.V[np.ix_(perm, perm)])
    permuted, _ = spectral_cluster(Vp, 3, seed=0)
    # the permuted clustering must equal the permuted base labels up to
    # renaming of the label alphabet
    assert perfect_match(base.labels[perm], permuted.labels)


def test_laplacian_zero_multiplicity_on_exact_blocks():
    # with huge across-block dissimilarity the adjacency is numerically
    # block-diagonal: eigenvalue 0 with multiplicity = number of blocks,
    # all remaining eigenvalues 1
    V, _ = block_dissimilarity([3, 4, 5], across=1e4)
    _, _, L = _laplacian(V.V)
    eigvals = np.sort(np.linalg.eigvalsh(L))
    assert np.abs(eigvals[:3]).max() < 1e-10
    assert np.abs(eigvals[3:] - 1.0).max() < 1e-10


def test_monotone_shift_of_dissimilarity_keeps_labels():
    V, truth = block_dissimilarity([5, 5], across=8.0)
    shifted = V.V + 2.0
    np.fill_diagonal(shifted, 0.0)
    a1, _ = spectral_cluster(V, 2, seed=0)
    a2, _ = spectral_cluster(DissimilarityMatrix(shifted), 2, seed=0)
    assert perfect_match(a1.labels, a2.labels)


def test_select_two_perfect_blocks():
    V, _ = block_dissimilarity([5, 5], across=1e4)
    sel = select_num_groups(V, n=10, T=100)
    assert sel.G_hat == 2


def test_select_three_blocks():
    V, _ = block_dissimilarity([6, 6, 6], across=1e4)
    assert select_num_groups(V, n=18, T=200).G_hat == 3


def test_select_stays_in_range_on_uninformative_input():
    n = 12
    V = np.full((n, n), 1e6)
    np.fill_diagonal(V, 0.0)
    sel = select_num_groups(DissimilarityMatrix(V), n=n, T=50)
    assert 1 <= sel.G_hat <= 10


def test_select_requires_min_sizes():
    V = DissimilarityMatrix(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        select_num_groups(V, n=2, T=50)


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
