import functools
import json
import re
import tracemalloc

import numpy as np
import pytest

from panelcluster import spectral, types
from panelcluster.cli import main
from panelcluster.io import read_estimates
from panelcluster.spectral import (
    _affinity,
    _whiten_entries,
    build_dissimilarity,
    kmeans,
    select_num_groups,
    spectral_cluster,
)
from panelcluster.metrics import average_match, perfect_match
from panelcluster.types import (
    ALREADY_SCALED,
    PER_OBSERVATION,
    SYMMETRY_RTOL,
    DimensionMismatch,
    EigenFailure,
    EstimateTable,
    NonPositiveCombined,
    NotSymmetric,
    ParseError,
    validate_covariance,
)


def eigh_inverse_sqrt_stack(S):
    """The eigh path for every s, as build_dissimilarity whitened before
    the closed form for s <= 2: the reference for the closed form. Every
    eigenvalue is floored at 1e-10 * max(largest, -smallest, 1e-300), the
    floor of types.eigen_floor, and nothing is rejected."""
    eigvals, Q = np.linalg.eigh(S)
    norm = np.maximum(np.maximum(eigvals[:, -1], -eigvals[:, 0]), 1e-300)
    floored = np.maximum(eigvals, 1e-10 * norm[:, None])
    return (Q * floored[:, None, :] ** -0.5) @ Q.swapaxes(1, 2)


@functools.cache
def lower_triangle(s):
    """The (row, column) pairs of the lower triangle of an s x s matrix in
    row-major order, the order _whiten_entries reads; made once per s."""
    return list(zip(*np.tril_indices(s)))


def whiten_stack(S, d):
    """S_k^(-1/2) d_k for each matrix S_k of an (m, s, s) stack and column
    d_k of an (s, m) array, by _whiten_entries on the lower-triangle
    entries of S; returns the (s, m) whitened columns."""
    return np.stack(_whiten_entries(
        [S[:, r, c] for r, c in lower_triangle(d.shape[0])], list(d)))


def inverse_sqrt_stack(S):
    """S^(-1/2) for each matrix of an (m, s, s) stack by whiten_stack:
    column k whitens the k-th unit vector."""
    m, s, _ = S.shape
    return np.stack([whiten_stack(S, np.broadcast_to(unit[:, None], (s, m))).T
                     for unit in np.eye(s)], axis=2)


def checked_inverse_sqrt(S):
    """The checked inverse square root of one matrix: validate_covariance,
    then whiten_stack on a stack of one, as build_dissimilarity checks its
    variances and whitens each pair."""
    validate_covariance(S)
    return inverse_sqrt_stack(S[None])[0]


def test_inverse_sqrt_identity():
    assert np.allclose(checked_inverse_sqrt(np.eye(3)), np.eye(3))


def test_inverse_sqrt_diagonal():
    out = checked_inverse_sqrt(np.diag([4.0, 9.0]))
    assert np.allclose(out, np.diag([0.5, 1.0 / 3.0]))


@pytest.mark.parametrize("small", [0.0, -1e-11])
def test_inverse_sqrt_floors_small_eigenvalues(small):
    # floored at 1e-10 * the largest eigenvalue
    out = checked_inverse_sqrt(np.diag([1.0, small]))
    assert np.allclose(out, np.diag([1.0, 1e5]))


def test_inverse_sqrt_rejects_negative_eigenvalue():
    # the check rejects; the kernel, given the matrix unchecked, floors
    # -1e-9 at 1e-10 * 1
    with pytest.raises(NonPositiveCombined):
        checked_inverse_sqrt(np.diag([1.0, -1e-9]))
    whitened = whiten_stack(np.diag([1.0, -1e-9])[None], np.ones((2, 1)))
    assert np.array_equal(whitened[:, 0], [1.0, 1e-10 ** -0.5])


@pytest.mark.parametrize("seed", range(5))
def test_inverse_sqrt_reconstruction(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(4, 4))
    S = A @ A.T + 0.1 * np.eye(4)
    R = checked_inverse_sqrt(S)
    assert np.linalg.norm(R @ S @ R - np.eye(4)) < 1e-8


def test_inverse_sqrt_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        validate_covariance(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("scale", [1.0, 1e12])
def test_asymmetry_is_judged_by_the_matrix_own_scale(scale):
    # the same relative asymmetry is rejected below unit scale as above it
    with pytest.raises(NotSymmetric):
        validate_covariance(scale * np.array([[1e-12, 1e-11],
                                              [-1e-11, 1e-12]]))


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


@pytest.mark.parametrize("T,message", [
    (None, "T=None"), (0, "T=0"), (-5, "T=-5"),
    (2.5, "T must be an integer, got 2.5"),
    (True, "T must be an integer, got True")])
def test_per_observation_variances_require_integer_T(T, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        scalar_table(1.0).variances(T)


@pytest.mark.parametrize("table", [
    scalar_table(1.0), scalar_table(1.0, scale=ALREADY_SCALED),
    scalar_table(1.0, weights=np.array([4.0, 4.0]))])
def test_a_given_T_is_checked_as_selection_checks_it(table):
    # the same words as select_num_groups, whether or not T is used
    message = "^T must be an integer, got 2.5$"
    with pytest.raises(ValueError, match=message):
        table.variances(2.5)
    with pytest.raises(ValueError, match=message):
        select_num_groups(np.zeros((3, 3)), 2.5)


def scaled_sigmas(sigmas, T, scale, weights=None):
    if weights is not None:
        return np.array([sigma / w for sigma, w in zip(sigmas, weights)])
    if scale == PER_OBSERVATION:
        return np.array([sigma / T for sigma in sigmas])
    return np.array(sigmas)


def reference_dissimilarity(betas, sigmas, T, scale, weights=None,
                            whiten=None):
    """The pairwise loop that build_dissimilarity batches: whiten(S, d)
    whitens one pair, by default as the eigh path did. With
    whiten=whiten_stack the batched version must reproduce it bit for
    bit."""
    n = len(betas)
    scaled = scaled_sigmas(sigmas, T, scale, weights)
    if whiten is None:
        def whiten(S, d):
            return eigh_inverse_sqrt_stack(S)[0] @ d
    # the variances are checked, as build_dissimilarity checks them; their
    # pairs are whitened unchecked
    validate_covariance(scaled)
    V = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            S = scaled[i] + scaled[j]
            whitened = whiten(S[None], (betas[i] - betas[j])[:, None])
            V[i, j] = V[j, i] = np.abs(whitened).max()
    return V


def assert_matches_pairwise_loops(V, betas, sigmas, T, scale, weights=None):
    """V equals the pairwise loop of whiten_stack bit for bit, and the eigh
    loop bit for bit for s = 1 and s >= 3. The 2 x 2 closed form rounds
    differently: for s = 2 it agrees within 1e-13 of |S^(-1/2)| |d|."""
    args = betas, sigmas, T, scale, weights
    assert np.array_equal(V, reference_dissimilarity(*args,
                                                     whiten=whiten_stack))
    eigh_V = reference_dissimilarity(*args)
    if betas.shape[1] != 2:
        assert np.array_equal(V, eigh_V)
        return
    # relative to |S^(-1/2)| |d|, not to V: where the floor engages, a
    # rounding of the eigenvectors moves V by up to eps |S^(-1/2)| |d|, which
    # can far exceed eps V. On one floored pair of the default-chunk table
    # the two differ by 2.0e-13 of V, each 1.0e-13 from the exact value.
    scaled = scaled_sigmas(sigmas, T, scale, weights)
    i, j = np.triu_indices(len(betas), 1)
    eigvals = np.linalg.eigvalsh(scaled[i] + scaled[j])
    floor = 1e-10 * np.maximum(eigvals[:, -1], 1e-300)
    bound = (np.maximum(eigvals[:, 0], floor) ** -0.5
             * np.linalg.norm(betas[i] - betas[j], axis=1))
    assert (np.abs(V - eigh_V)[i, j] <= 1e-13 * bound).all()


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
    # 7 140 pairs in row blocks of at most 1024 / s**2 pairs, or of one
    # longer row (s = 3): 8, 33 and 79 blocks, the last ragged
    monkeypatch.setattr(types, "BLOCK_ENTRIES", 2 ** 10)
    n = 120
    assert len(list(spectral._upper_row_blocks(n, s ** 2))) > 1
    betas, sigmas = random_estimates(n, s, seed=10 * s + weighted)
    weights = (np.random.default_rng(s).integers(20, 200, size=n)
               .astype(float) if weighted else None)
    table = EstimateTable(list(range(n)), betas, sigmas, scale=scale,
                          weights=weights)
    V = build_dissimilarity(table.betas, table.variances(37))
    assert_matches_pairwise_loops(V, betas, sigmas, 37, scale, weights)


def test_batched_dissimilarity_equals_pairwise_loop_at_default_chunk():
    n = 300  # 44 850 pairs: six row blocks at s = 2
    assert len(list(spectral._upper_row_blocks(n, 2 ** 2))) == 6
    betas, sigmas = random_estimates(n, 2, seed=3)
    table = EstimateTable(list(range(n)), betas, sigmas)
    V = build_dissimilarity(table.betas, table.variances(120))
    assert_matches_pairwise_loops(V, betas, sigmas, 120, PER_OBSERVATION)


@pytest.mark.parametrize("n,chunk", [(1, 5), (2, 1), (9, 1), (9, 8),
                                     (9, 36), (9, 100), (300, 8192)])
def test_upper_row_blocks_cover_each_row_once(monkeypatch, n, chunk):
    # blocks of at most `chunk` pairs of one entry each
    monkeypatch.setattr(types, "BLOCK_ENTRIES", chunk)
    blocks = list(spectral._upper_row_blocks(n, 1))
    # consecutive, from row 0 to row n - 2, the last with a pair
    bounds = [0] + [stop for _, stop in blocks]
    assert [start for start, _ in blocks] == bounds[:-1]
    assert bounds[-1] == max(n - 1, 0)
    for start, stop in blocks:
        pairs = sum(n - 1 - row for row in range(start, stop))
        assert pairs <= chunk or stop == start + 1
        # a block ends only where the next row would not fit
        assert stop == n - 1 or pairs + n - 1 - stop > chunk


def test_negative_combined_in_last_chunk_is_rejected(monkeypatch):
    monkeypatch.setattr(types, "BLOCK_ENTRIES", 2 ** 8)
    n = 40  # 780 pairs in row blocks of <= 64; only the last is negative
    betas, sigmas = random_estimates(n, 2, seed=5)
    sigmas[:] = 10.0 * np.eye(2)
    sigmas[-2:] = -0.5 * np.eye(2)
    with pytest.raises(NonPositiveCombined):
        build_dissimilarity(betas, sigmas)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_negative_pairs_in_last_row_block_are_floored(monkeypatch, s):
    # Checked variances can sum to a pair up to about twice its floor below
    # zero (see the p3 table below); let unchecked ones through to reach
    # any negative pair: the kernel floors the last block's pairs (37, 38),
    # (37, 39) and (38, 39), of combined variance -1.1 I, -1.2 I and
    # -1.3 I, as the floored eigh reference does, and rejects nothing
    monkeypatch.setattr(types, "BLOCK_ENTRIES", 2 ** 8)
    monkeypatch.setattr(spectral, "validate_covariance", lambda S: None)
    n = 40
    assert list(spectral._upper_row_blocks(n, s ** 2))[-1][0] <= 37
    sigmas = np.array([10.0 * np.eye(s)] * n)
    sigmas[-3:] = np.array([-0.5, -0.6, -0.7])[:, None, None] * np.eye(s)
    betas = np.random.default_rng(6).normal(size=(n, s))
    V = build_dissimilarity(betas, sigmas)
    i, j = np.triu_indices(n, 1)
    S = sigmas[i] + sigmas[j]
    assert (S[:, 0, 0] < 0).sum() == 3
    expected = eigh_inverse_sqrt_stack(S) @ (betas[i] - betas[j])[:, :, None]
    # multiples of I, whose closed form is exact: equal for every s
    assert np.array_equal(V[i, j], np.abs(expected).max(axis=(1, 2)))
    assert V[38, 39] == np.abs(betas[38] - betas[39]).max() * (
        1e-10 * 1.3) ** -0.5


@pytest.mark.parametrize("s", [1, 2, 3])
def test_only_pairs_i_below_j_are_whitened(s):
    # Var_0 + Var_0 = 2e308 I overflows, Var_0 + Var_j does not: a pair
    # (0, 0) would make the build fail
    n = 30
    betas, sigmas = random_estimates(n, s, seed=20 + s)
    sigmas[0] = 1e308 * np.eye(s)
    V = build_dissimilarity(betas, sigmas)
    assert np.array_equal(V, reference_dissimilarity(
        betas, sigmas, None, ALREADY_SCALED, whiten=whiten_stack))
    assert (V[0, 1:] > 0).all() and (V[0, 1:] < 1e-150).all()


@pytest.mark.parametrize("s", [1, 2, 3])
def test_inverse_sqrt_stack_floors_negative_last_matrix(s):
    # the check rejects the last matrix, by its position; the kernel floors
    # its eigenvalue -0.5 at 1e-10 of the largest |eigenvalue|, 7 (0.5 for
    # s = 1), and leaves the others as they are
    m = 7
    stack = np.array([(k + 1.0) * np.eye(s) for k in range(m)])
    stack[-1, -1, -1] = -0.5
    with pytest.raises(NonPositiveCombined) as raised:
        validate_covariance(stack)
    assert raised.value.index == m - 1
    out = inverse_sqrt_stack(stack)
    assert np.allclose(out[:-1], np.array([np.eye(s) / np.sqrt(k + 1.0)
                                           for k in range(m - 1)]))
    last = np.full(s, 7.0 ** -0.5)
    last[-1] = (1e-10 * (7.0 if s > 1 else 0.5)) ** -0.5
    assert np.allclose(out[-1], np.diag(last))


# Six individuals at s = 3, every variance accepted by validate_covariance;
# the pair (u4, u5) sums to diag(1, 1, -1.8e-10), below minus its floor
# 1e-10, which the pair whitening floors.
P3_TABLE = """# scale=already_scaled
id,beta_1,beta_2,beta_3,c_11,c_12,c_13,c_22,c_23,c_33
u0,0.0,0,0,1.0,0.0,0.0,1.0,0.0,1.0
u1,1.0,0,0,1.0,0.0,0.0,1.0,0.0,1.0
u2,2.0,0,0,1.0,0.0,0.0,1.0,0.0,1.0
u3,3.0,0,0,1.0,0.0,0.0,1.0,0.0,1.0
u4,4.0,0,0,1.0,0.0,0.0,0.0,0.0,-9e-11
u5,5.0,0,0,0.0,0.0,0.0,1.0,0.0,-9e-11
"""


def test_accepted_variances_whose_pair_is_negative_are_floored(tmp_path):
    path = tmp_path / "p3.csv"
    path.write_text(P3_TABLE)
    table = read_estimates(path)
    V = build_dissimilarity(table.betas, table.variances())
    S = table.sigmas[4] + table.sigmas[5]
    assert np.linalg.eigvalsh(S)[0] < -1e-10
    d = table.betas[4] - table.betas[5]
    assert V[4, 5] == np.abs(eigh_inverse_sqrt_stack(S[None])[0] @ d).max()
    assert_matches_pairwise_loops(V, table.betas, table.sigmas, None,
                                  ALREADY_SCALED)


def test_cluster_runs_on_accepted_variances_whose_pair_is_negative(
        tmp_path, capsys):
    path, out = tmp_path / "p3.csv", tmp_path / "report.json"
    path.write_text(P3_TABLE)
    assert main(["cluster", str(path), "--groups", "2",
                 "--out", str(out)]) == 0
    labels = json.loads(out.read_text())["labels"]
    assert labels["u0"] == labels["u1"] == labels["u2"]
    assert labels["u3"] == labels["u4"] == labels["u5"] != labels["u0"]


def closed_form_cases():
    rng = np.random.default_rng(14)
    m = 400
    A = rng.normal(size=(m, 2, 2))
    spd = A @ A.swapaxes(1, 2) + 1e-3 * np.eye(2)
    u = rng.normal(size=(m, 2, 1))
    B = rng.normal(size=(m, 2, 2))
    B = B + B.swapaxes(1, 2)
    near = rng.uniform(0.1, 10.0, (m, 1, 1)) * (
        np.eye(2) + 10.0 ** rng.uniform(-15.0, -9.0, (m, 1, 1)) * B)
    # the upper triangle off by up to 0.9 of what validate_covariance admits,
    # SYMMETRY_RTOL of the largest |entry|
    asymmetric = spd.copy()
    asymmetric[:, 0, 1] += (0.9 * SYMMETRY_RTOL * rng.uniform(-1.0, 1.0, m)
                            * np.abs(spd).max(axis=(1, 2)))
    return {"spd": spd, "rank_one": u * u.swapaxes(1, 2), "near_equal": near,
            "scaled_1e-150": 1e-150 * spd, "scaled_1e150": 1e150 * spd,
            # unscaled, a * c - b * b underflows or overflows
            "scaled_1e-200": 1e-200 * spd, "scaled_1e200": 1e200 * spd,
            "rank_one_1e-200": 1e-200 * u * u.swapaxes(1, 2),
            "asymmetric": asymmetric}


@pytest.mark.parametrize("case", sorted(closed_form_cases()))
def test_closed_form_matches_eigh_within_1e_13(case):
    S = closed_form_cases()[case]
    validate_covariance(S)
    expected = eigh_inverse_sqrt_stack(S)
    error = np.abs(inverse_sqrt_stack(S) - expected).max(axis=(1, 2))
    assert (error <= 1e-13 * np.abs(expected).max(axis=(1, 2))).all()


def test_closed_form_is_exact_on_diagonal_matrices():
    rng = np.random.default_rng(15)
    entries = rng.uniform(0.5, 2.0, (60, 2)) * 10.0 ** rng.integers(
        -150, 151, (60, 1))
    entries[:20, 1] = entries[:20, 0]  # multiples of I
    entries[20:25] = 0.0
    entries[25:30, 1] = 0.0  # floored
    entries[30:35, 0] *= 1e-12  # floored
    S = np.zeros((60, 2, 2))
    S[:, 0, 0], S[:, 1, 1] = entries.T
    d = rng.normal(size=(60, 2))
    whitened = whiten_stack(S, d.T).T
    assert np.array_equal(
        whitened, (eigh_inverse_sqrt_stack(S) @ d[:, :, None])[:, :, 0])
    unfloored = np.r_[0:20, 35:60]
    assert np.array_equal(whitened[unfloored],
                          entries[unfloored] ** -0.5 * d[unfloored])


def floor_cases():
    """Diagonal 1 x 1 and 2 x 2 matrices with one eigenvalue at and around
    the rejection threshold -1e-10 |largest|, for largest eigenvalues down
    to subnormal, zero and negative ones: 168 matrices."""
    cases = []
    for largest in [1.0, 1e-200, 1e-305, 1e-320, 0.0, -1.0, -1e-320]:
        for factor in [0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 1e20]:
            smallest = factor * 1e-10 * abs(largest)
            cases += [np.diag([smallest]), np.diag([smallest, largest]),
                      np.diag([largest, smallest])]
    return cases


def rejects(check, *args):
    """Whether check(*args) raises NonPositiveCombined."""
    try:
        check(*args)
    except NonPositiveCombined:
        return True
    return False


def test_covariance_check_and_pair_kernel_apply_one_floor():
    # Diagonal matrices, where eigvalsh and the closed form both read the
    # exact eigenvalues. A rotated matrix at the threshold is no test of the
    # rule: rotated by 0.3 rad, the closed form reads the smallest
    # eigenvalue as -1.00000016e-10 and eigvalsh as -9.99999944e-11, a
    # difference of rounding only. The check rejects a smallest eigenvalue
    # below minus the floor; the kernel rejects nothing and raises every
    # eigenvalue to the floor.
    disagree = []
    for S in floor_cases():
        s, diagonal = len(S), np.diag(S)
        floor = types.eigen_floor(diagonal.min(keepdims=True),
                                  diagonal.max(keepdims=True))
        entries = [S[r, c][None] for r, c in lower_triangle(s)]
        whitened = _whiten_entries(entries, list(np.ones((s, 1))))
        if (rejects(validate_covariance, S) != (diagonal.min() < -floor[0])
                or not np.array_equal(np.concatenate(whitened),
                                      np.maximum(diagonal, floor) ** -0.5)):
            disagree.append(diagonal)
    assert disagree == []


def test_one_floor_rejects_with_the_stack_position():
    smallest = np.array([0.0, -1e-11, -2e-9, -3e-9])
    with pytest.raises(NonPositiveCombined,
                       match="^matrix has negative eigenvalue -2.000e-09$"
                       ) as raised:
        validate_covariance(np.array([np.diag([1.0, x]) for x in smallest]))
    assert raised.value.index == 2
    # the floor itself raises nothing
    assert np.array_equal(types.eigen_floor(smallest, np.ones(4)),
                          np.full(4, 1e-10))
    with pytest.raises(ParseError, match=r"^row 1 \(id=b\): matrix has "
                       r"negative eigenvalue -1\.000e-09$"):
        EstimateTable(["a", "b"], np.zeros((2, 2)),
                      np.array([np.eye(2), np.diag([1.0, -1e-9])]))


@pytest.mark.parametrize("s", [1, 2])
def test_closed_form_floors_the_matrix_eigh_floors(s):
    # the check names the first negative matrix; the closed form floors
    # both as the eigh reference does, within 1e-13 of its largest entry
    rng = np.random.default_rng(16)
    A = rng.normal(size=(50, s, s))
    S = A @ A.swapaxes(1, 2) + 0.1 * np.eye(s)
    S[[17, 31], -1, -1] = [-0.25, -3.0]
    smallest = np.linalg.eigvalsh(S[17])[0]
    with pytest.raises(NonPositiveCombined, match=re.escape(
            f"matrix has negative eigenvalue {smallest:.3e}")) as raised:
        validate_covariance(S)
    assert raised.value.index == 17
    expected = eigh_inverse_sqrt_stack(S)
    error = np.abs(inverse_sqrt_stack(S) - expected).max(axis=(1, 2))
    assert (error <= 1e-13 * np.abs(expected).max(axis=(1, 2))).all()


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
    (np.zeros((3, 0)), np.zeros((3, 0, 0))),
])
def test_dissimilarity_rejects_mismatched_shapes(betas, sigmas):
    with pytest.raises(DimensionMismatch, match="^estimates must be"):
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


def laplacian(V):
    """The normalized Laplacian L = I - N of V's affinity."""
    return np.eye(len(V)) - _affinity(V)


def test_spectral_single_group():
    V, _ = block_dissimilarity([4])
    labels = spectral_cluster(V, 1)
    assert np.all(labels == labels[0])


def test_spectral_recovers_two_blocks():
    V, truth = block_dissimilarity([5, 5])
    labels = spectral_cluster(V, 2)
    assert perfect_match(truth, labels)
    eigenvalues = np.linalg.eigvalsh(laplacian(V))
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
    eigvals = np.sort(np.linalg.eigvalsh(laplacian(V)))
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


def test_weighted_variances_overflowing_are_rejected_by_the_table():
    # 1e308 / 0.5 overflows: the table is not built, so no overflow can
    # reach variances() or the dissimilarity
    with pytest.raises(ParseError, match=r"^row 0 \(id=a\): covariance / "
                                         r"weight overflows$"):
        scalar_table(1e308, weights=np.array([0.5, 1.0]))


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


def test_kmeans_rejects_a_one_dimensional_array():
    # n values are not one point of n coordinates
    with pytest.raises(DimensionMismatch, match="^points must be an"):
        kmeans(np.arange(6.0), 2)


def test_estimate_table_rejects_one_dimensional_betas():
    with pytest.raises(DimensionMismatch, match="^betas must be an"):
        EstimateTable(["a", "b", "c"], np.array([0.0, 1.0, 2.0]),
                      np.ones((3, 1, 1)))


def test_kmeans_rejects_zero_width_points():
    with pytest.raises(ValueError, match="^points must have at least one "
                                         "coordinate$"):
        kmeans(np.zeros((5, 0)), 2)


def test_kmeans_rejects_zero_restarts():
    with pytest.raises(ValueError, match="restarts must be >= 1"):
        kmeans(np.zeros((4, 1)), 2, restarts=0)


@pytest.mark.parametrize("G_max", [0, -2])
def test_select_num_groups_rejects_g_max_below_one(G_max):
    V = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 5.0], [5.0, 5.0, 0.0]])
    with pytest.raises(ValueError, match=f"G_max must be >= 1, got {G_max}"):
        select_num_groups(V, 30, G_max=G_max)


@pytest.mark.parametrize("bad", [1.5, True, np.True_, -1, 2 ** 128, "3",
                                 None])
def test_kmeans_and_spectral_cluster_reject_a_bad_seed(bad):
    V, _ = block_dissimilarity([3, 3])
    with pytest.raises(ValueError, match=r"seed must be an integer in "
                                         r"0\.\.2\*\*128 - 1"):
        kmeans(np.arange(6.0)[:, None], 2, seed=bad)
    with pytest.raises(ValueError, match="seed must be an integer"):
        spectral_cluster(V, 2, seed=bad)


@pytest.mark.parametrize("seed", [0, 2 ** 128 - 1, np.int64(7),
                                  np.uint64(2 ** 64 - 1)])
def test_kmeans_and_spectral_cluster_accept_integer_seeds(seed):
    V, truth = block_dissimilarity([3, 3])
    labels, _, _ = kmeans(np.array([[0.0], [0.1], [5.0], [5.1]]), 2,
                          seed=seed)
    assert labels[0] == labels[1] != labels[2] == labels[3]
    assert perfect_match(truth, spectral_cluster(V, 2, seed=seed))


COUNT_CALLS = {
    "k": lambda V, bad: kmeans(np.arange(6.0)[:, None], bad),
    "restarts": lambda V, bad: kmeans(np.arange(6.0)[:, None], 2,
                                      restarts=bad),
    "G": lambda V, bad: spectral_cluster(V, bad),
    "G_max": lambda V, bad: select_num_groups(V, 30, bad),
    "T": lambda V, bad: select_num_groups(V, bad),
}


@pytest.mark.parametrize("name", list(COUNT_CALLS))
@pytest.mark.parametrize("bad", [2.0, 2.5, np.float64(2.0), True, np.True_,
                                 "2", None])
def test_counts_must_be_integers(name, bad):
    # neither a float, even integral, nor a bool is a count
    V, _ = block_dissimilarity([3, 3])
    with pytest.raises(ValueError,
                       match=re.escape(f"{name} must be an integer, "
                                       f"got {bad!r}")):
        COUNT_CALLS[name](V, bad)


@pytest.mark.parametrize("name", list(COUNT_CALLS))
def test_counts_accept_numpy_integers(name):
    V, _ = block_dissimilarity([3, 3])
    assert COUNT_CALLS[name](V, np.int64(2)) is not None


# --- the two eigensolver paths ---

def clustered_table(n, seed, T=120):
    """Betas and Var(beta_i) of an n-row table drawn as the CLI benchmark
    draws its table: betas around 4 centres, each with the per-observation
    covariance it reports; and the 1-based true groups."""
    rng = np.random.default_rng(seed)
    centres = np.array([[0.1, 0.1], [0.2, 0.2], [3.0, 3.0], [3.1, 3.1]])
    groups = rng.integers(0, len(centres), n)
    A = rng.standard_normal((n, 2, 2))
    variances = 0.1 * (0.5 * np.eye(2) + 0.25 * A @ A.swapaxes(1, 2)) / T
    noise = np.linalg.cholesky(variances) @ rng.standard_normal((n, 2, 1))
    return centres[groups] + noise[:, :, 0], variances, groups + 1


def clustered_dissimilarity(n, seed):
    betas, variances, truth = clustered_table(n, seed)
    return build_dissimilarity(betas, variances), truth


def assert_top_eigenvalues(lambda_tilde):
    """lambda_tilde are N's top eigenvalues: non-increasing from N's
    largest, 1, whose eigenvector is proportional to sqrt(d)."""
    assert (np.all(np.diff(lambda_tilde) <= 0)
            and abs(lambda_tilde[0] - 1.0) <= 1e-12), lambda_tilde


def forbid_lanczos(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("block Lanczos called")
    monkeypatch.setattr(spectral, "_block_lanczos", fail)


def both_paths(monkeypatch, n, solve):
    """solve() by block Lanczos, then by LAPACK with Lanczos forbidden."""
    monkeypatch.setattr(spectral, "KRYLOV_MIN_N", n)
    lanczos = solve()
    monkeypatch.setattr(spectral, "KRYLOV_MIN_N", n + 1)
    forbid_lanczos(monkeypatch)
    return lanczos, solve()


@pytest.mark.parametrize("n,seed", [(200, 1), (500, 2), (1000, 3)])
def test_lanczos_and_lapack_agree_on_clustered_tables(monkeypatch, n, seed):
    V, truth = clustered_dissimilarity(n, seed)

    def solve():
        return (select_num_groups(V, T=120),
                [spectral_cluster(V, G, seed=seed) for G in (2, 3, 4)])

    (lanczos, lanczos_labels), (lapack, lapack_labels) = both_paths(
        monkeypatch, n, solve)
    assert lanczos.G_hat == lapack.G_hat == 4
    assert len(lanczos.lambda_tilde) == len(lapack.lambda_tilde) == 11
    assert len(lanczos.ratios) == len(lapack.ratios) == 10
    assert np.abs(lanczos.lambda_tilde - lapack.lambda_tilde).max() < 1e-12
    for selection in (lanczos, lapack):
        assert_top_eigenvalues(selection.lambda_tilde)
    for a, b in zip(lanczos_labels, lapack_labels):
        assert np.array_equal(a, b)
    assert average_match(truth, lanczos_labels[2]).average > 0.9


def test_lanczos_reruns_are_bit_identical():
    # fixed start columns: the cluster report of a rerun is byte-identical
    V, _ = clustered_dissimilarity(spectral.KRYLOV_MIN_N, seed=8)
    first, second = (spectral._top_eigen(spectral._affinity(V), 4, True)
                     for _ in range(2))
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])
    assert np.array_equal(select_num_groups(V, T=120).lambda_tilde,
                          select_num_groups(V, T=120).lambda_tilde)


def disconnected_dissimilarity():
    """V of four groups (60, 50, 50 and 40 rows) whose affinity exp(-V)
    underflows to exactly 0 between groups, and the 1-based groups."""
    rng = np.random.default_rng(6)
    V, truth = block_dissimilarity([60, 50, 50, 40], across=800.0)
    within = np.abs(rng.normal(size=V.shape))
    within = np.triu(within, 1) + np.triu(within, 1).T
    V = np.where(V == 0.0, within, V)
    np.fill_diagonal(V, 0.0)
    return V, truth


@pytest.mark.parametrize("case", ["clustered", "disconnected"])
@pytest.mark.parametrize("k,shrink", [(1, 1.0), (4, 1.0), (11, 0.4)])
def test_lanczos_ritz_pairs_meet_the_residual_tolerance(case, k, shrink):
    if case == "clustered":
        V, _ = clustered_dissimilarity(300, seed=9)
    else:
        V, _ = disconnected_dissimilarity()
    N = spectral._affinity(V, shrink)
    mu, Z = spectral._block_lanczos(N, k, vectors=True)
    assert np.all(np.diff(mu) <= 0)
    assert np.abs(Z.T @ Z - np.eye(k)).max() < 1e-12
    residuals = np.linalg.norm(N @ Z - Z * mu, axis=0)
    assert residuals.max() <= spectral.KRYLOV_TOL
    assert np.abs(mu - np.linalg.eigvalsh(N)[::-1][:k]).max() < 1e-12
    values, none = spectral._block_lanczos(N, k, vectors=False)
    assert none is None and np.array_equal(values, mu)


def test_lanczos_values_are_arpacks():
    # the partial solver the package used before: eigsh on N = I - L from
    # the start vector n^(-1/2) 1, to machine precision
    from scipy.sparse.linalg import eigsh

    V, _ = clustered_dissimilarity(500, seed=2)
    for k, shrink in ((4, 1.0), (11, 0.4)):
        N = spectral._affinity(V, shrink)
        arpack = eigsh(N, k, which="LA", tol=0, v0=np.full(500, 500 ** -0.5),
                       return_eigenvectors=False)
        mu, _ = spectral._block_lanczos(N, k, vectors=False)
        assert np.abs(mu - np.sort(arpack)[::-1]).max() < 1e-12


@pytest.mark.parametrize("across", [0.0, 1e4])
def test_lanczos_finds_the_spectrum_past_an_invariant_krylov_space(across):
    # 150 pairs, each pair at distance 0: N = I - L has the eigenvalues 1
    # and 0 (across = 1e4, no affinity between pairs) or 1 once and the
    # rest near 0 (across = 0), so the first blocks span an invariant
    # subspace and the products after them are rounding. Those directions
    # are orthogonalized again; without that the basis lost orthogonality
    # and the values were off by 8.5e3.
    V, _ = block_dissimilarity([2] * 150, across=across)
    N = spectral._affinity(V)
    for k in (4, 11):
        mu, Z = spectral._block_lanczos(N, k, vectors=True)
        assert np.abs(Z.T @ Z - np.eye(k)).max() < 1e-12
        assert np.abs(mu - np.linalg.eigvalsh(N)[::-1][:k]).max() < 1e-12


def test_below_krylov_min_n_never_calls_lanczos(monkeypatch):
    forbid_lanczos(monkeypatch)
    V, _ = clustered_dissimilarity(spectral.KRYLOV_MIN_N - 1, seed=4)
    selection = select_num_groups(V, T=120)
    assert selection.G_hat == 4
    # only LAPACK runs here: no second path would catch a reversed or
    # shifted slice of its ascending spectrum
    assert_top_eigenvalues(selection.lambda_tilde)
    spectral_cluster(V, 4)


def test_k_too_large_for_lanczos_falls_back_to_lapack(monkeypatch):
    monkeypatch.setattr(spectral, "KRYLOV_MIN_N", 2)
    forbid_lanczos(monkeypatch)
    V, _ = block_dissimilarity([3, 4, 5], across=30.0)
    # k = n: all n eigenvectors, and all n values when G_max >= n - 1
    assert sorted(spectral_cluster(V, 12)) == list(range(1, 13))
    selection = select_num_groups(V, T=50, G_max=11)
    assert len(selection.lambda_tilde) == 12 and selection.G_hat == 3


def test_lanczos_non_convergence_is_an_eigen_failure(monkeypatch, tmp_path,
                                                     capsys):
    # two blocks of at most 4 vectors cannot reach a residual of 1e-12
    monkeypatch.setattr(spectral, "KRYLOV_MAX_BLOCKS", 2)
    monkeypatch.setattr(spectral, "KRYLOV_MIN_N", 2)
    V, _ = clustered_dissimilarity(60, seed=5)
    with pytest.raises(EigenFailure, match="block Lanczos"):
        spectral_cluster(V, 4)
    with pytest.raises(EigenFailure, match="block Lanczos"):
        select_num_groups(V, T=120)

    est = tmp_path / "est.csv"
    rows = [f"u{i},{0.1 * (i % 4) + 0.01 * i},0.01" for i in range(60)]
    est.write_text("# scale=already_scaled\nid,beta_1,se\n"
                   + "\n".join(rows) + "\n")
    for flags in (["--groups", "3"], ["--select-g", "--t-periods", "100"]):
        code = main(["cluster", str(est), *flags,
                     "--out", str(tmp_path / "report.json")])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("n", [12, spectral.KRYLOV_MIN_N])
def test_a_failed_lapack_eigensolve_exits_2(monkeypatch, tmp_path, capsys,
                                            n):
    # LAPACK fails on the n x n affinity below KRYLOV_MIN_N, and on block
    # Lanczos's projected matrix from it on; the covariance checks, which
    # solve (n, s, s) stacks, still run
    def failing_on_matrices(solve):
        def solver(a, *args, **kwargs):
            if np.ndim(a) == 2:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return solve(a, *args, **kwargs)
        return solver

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name,
                            failing_on_matrices(getattr(np.linalg, name)))
    est = tmp_path / "est.csv"
    rows = [f"u{i},{0.1 * (i % 4) + 0.01 * i},0.01" for i in range(n)]
    est.write_text("# scale=already_scaled\nid,beta_1,se\n"
                   + "\n".join(rows) + "\n")
    for flags in (["--groups", "2"], ["--select-g", "--t-periods", "100"]):
        code = main(["cluster", str(est), *flags,
                     "--out", str(tmp_path / "report.json")])
        assert code == 2
        assert ("numerical failure: Eigenvalues did not converge"
                in capsys.readouterr().err)


def test_disconnected_affinity_selects_the_same_g_on_both_paths(monkeypatch):
    # exp(-V) underflows to exactly 0 between the 4 groups (V > 745), so
    # lambda_1..lambda_4 = 0. Any basis of that eigenspace is a valid
    # answer, and block Lanczos and LAPACK may pick different ones: G_hat
    # and the labels at G = 4 agree, but at G = 2 and 3 the two paths may
    # merge different groups. Each path keeps every group whole.
    V, truth = disconnected_dissimilarity()

    def solve():
        return (select_num_groups(V, T=120),
                [spectral_cluster(V, G) for G in (2, 3, 4)])

    (lanczos, lanczos_labels), (lapack, lapack_labels) = both_paths(
        monkeypatch, len(V), solve)
    assert lanczos.G_hat == lapack.G_hat == 4
    assert np.abs(lanczos.lambda_tilde[:4] - 1.0).max() < 1e-12
    assert np.abs(lanczos.lambda_tilde - lapack.lambda_tilde).max() < 1e-12
    assert np.array_equal(lanczos_labels[2], lapack_labels[2])
    assert perfect_match(truth, lanczos_labels[2])
    for labels in lanczos_labels + lapack_labels:
        assert all(len(set(labels[truth == g])) == 1 for g in range(1, 5))


def traced_peak(fn, *args, **kwargs):
    """Peak bytes that numpy and Python allocate during fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spectral_layer_holds_one_n_by_n_working_matrix():
    # V itself, or the affinity N, and row-block temporaries: no second
    # n x n array. The index pairs and V + V.T, the shrunk V and L.T, and
    # L.T held the traced peaks at 3.0, 3.0 and 2.0 V; they read 1.06, 1.03
    # and 1.02 V with row blocks and ARPACK, and 1.06, 1.25 and 1.25 V with
    # block Lanczos while its basis and projected matrix were sized for
    # KRYLOV_MAX_BLOCKS blocks of 4 (400 x 2000 and 400 x 400 floats). Grown
    # by doubling as they fill, they read 1.06, 1.14 and 1.07 V.
    n = 2000
    betas, variances, _ = clustered_table(n, seed=7)
    budget = 2.25 * n * n * 8
    assert traced_peak(build_dissimilarity, betas, variances) <= budget
    V = build_dissimilarity(betas, variances)
    assert traced_peak(select_num_groups, V, T=120) <= budget
    assert traced_peak(spectral_cluster, V, 4) <= budget


@pytest.mark.parametrize("kind,error,message", BAD_DISSIMILARITIES[:4])
@pytest.mark.parametrize("row,col", [(250, 260), (260, 250), (5, 299),
                                     (299, 5)])
def test_dissimilarity_check_finds_entries_in_any_row_block(kind, error,
                                                            message, row, col):
    V, _ = block_dissimilarity([150, 150], across=3.0)  # three row blocks
    assert len(types.blocks(300, 300)) == 3
    if kind == "diagonal":
        row = col
    V[row, col] = {"nan": np.nan, "negative": -1.0, "asymmetric": 4.0,
                   "diagonal": 0.5}[kind]
    if kind != "asymmetric":
        V[col, row] = V[row, col]
    with pytest.raises(error, match=message):
        spectral._check_dissimilarity(V)


def test_dissimilarity_check_reports_non_finite_before_negative():
    V, _ = block_dissimilarity([150, 150], across=3.0)
    V[0, 1] = V[1, 0] = -1.0  # first row block
    V[290, 295] = V[295, 290] = np.inf  # last row block
    with pytest.raises(ValueError, match="non-finite"):
        spectral._check_dissimilarity(V)
    V[290, 295] = V[295, 290] = 1.7e308
    V[0, 1], V[1, 0] = -1.7e308, 1.7e308  # the difference would overflow
    with pytest.raises(ValueError, match="non-negative"):
        spectral._check_dissimilarity(V)


def test_dissimilarity_check_holds_no_n_by_n_temporary():
    # V's extremes are reductions and the triangles are compared a block
    # of rows at a time: the traced peak read 0.0165 of V's bytes
    n = 2000
    V, _ = block_dissimilarity([n // 2, n // 2], across=3.0)
    assert traced_peak(spectral._check_dissimilarity, V) <= 0.05 * V.nbytes


@pytest.mark.parametrize("G", [0, 4])
def test_spectral_cluster_rejects_G_outside_1_to_n(G):
    V = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match=r"^G must lie in 1\.\.n$"):
        spectral_cluster(V, G)


@pytest.mark.parametrize("sigma", [np.ones(3), np.ones((2, 3)),
                                   np.ones((4, 2, 3))])
def test_validate_covariance_rejects_a_non_square_matrix(sigma):
    with pytest.raises(NotSymmetric, match="^covariance must be square$"):
        validate_covariance(sigma)


@pytest.mark.parametrize("shape", [(0, 0), (3, 0, 0), (0, 0, 0)])
def test_validate_covariance_rejects_a_zero_width(shape):
    with pytest.raises(DimensionMismatch,
                       match=r"^covariance must be at least 1 x 1$"):
        validate_covariance(np.zeros(shape))


@pytest.mark.parametrize("s", [1, 2])
def test_validate_covariance_accepts_an_empty_stack(s):
    validate_covariance(np.zeros((0, s, s)))


def test_blocks_cover_range_in_order_within_the_budget(monkeypatch):
    monkeypatch.setattr(types, "BLOCK_ENTRIES", 10)
    assert types.blocks(7, 3) == [slice(0, 3), slice(3, 6), slice(6, 7)]
    # an item larger than the budget still makes a block of one
    assert types.blocks(2, 11) == [slice(0, 1), slice(1, 2)]
    assert types.blocks(0, 3) == []


def test_estimate_table_rejects_zero_width_betas():
    with pytest.raises(ParseError, match="^betas must have at least one "
                                         "coefficient$"):
        EstimateTable(["a", "b"], np.zeros((2, 0)), np.zeros((2, 0, 0)))


def test_estimate_table_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="^estimate ids must be unique$"):
        EstimateTable(["a", "b", "a"], np.zeros((3, 1)), np.ones((3, 1, 1)))
