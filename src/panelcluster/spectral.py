"""Dissimilarity construction, spectral clustering, and group-count selection."""

from __future__ import annotations

import numpy as np

from .types import (
    DimensionMismatch,
    EigenFailure,
    GroupCountSelection,
    NonPositiveCombined,
    validate_covariance,
)

EIGENGAP_DENOM_GUARD = 1e-12

# Pairs per batched eigh in build_dissimilarity (~2**15 matrix entries): one
# unchunked batch raised peak memory by ~5 MB at n=300 for no gain in speed.
PAIR_CHUNK_ENTRIES = 2 ** 15


def _inverse_sqrt_stack(S: np.ndarray) -> np.ndarray:
    """matrix_inverse_sqrt of each matrix in an (m, s, s) stack."""
    eigvals, Q = np.linalg.eigh(S)
    norm = np.maximum(eigvals[:, -1], 1e-300)
    negative = eigvals[:, 0] < -1e-10 * norm
    if negative.any():
        raise NonPositiveCombined(f"matrix has negative eigenvalue "
                                  f"{eigvals[negative.argmax(), 0]:.3e}")
    floored = np.maximum(eigvals, 1e-10 * norm[:, None])
    return (Q * floored[:, None, :] ** -0.5) @ Q.swapaxes(1, 2)


def matrix_inverse_sqrt(S: np.ndarray) -> np.ndarray:
    """Symmetric inverse square root via eigendecomposition.

    S is checked by validate_covariance. Eigenvalues are floored at
    1e-10 * max(eigenvalue) so that semi-definite inputs produce a finite
    result; one below -1e-10 * max(eigenvalue) raises NonPositiveCombined.
    """
    S = np.atleast_2d(np.asarray(S, dtype=float))
    validate_covariance(S)
    return _inverse_sqrt_stack(S[None])[0]


def build_dissimilarity(estimates, variances) -> np.ndarray:
    """Pairwise sup-norm of the covariance-whitened coefficient differences.

    estimates: (n, s) finite coefficient vectors; variances: their (n, s, s)
    Var(beta_i), e.g. EstimateTable.variances(T), checked by
    validate_covariance. A pair is whitened by (Var_i + Var_j)^(-1/2).
    Returns the symmetric (n, n) dissimilarity V.
    """
    betas = np.asarray(estimates, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if betas.ndim != 2 or variances.shape != betas.shape + betas.shape[1:]:
        raise DimensionMismatch(
            "estimates must be (n, s) and variances (n, s, s)")
    if not np.isfinite(betas).all():
        raise ValueError("estimates contain non-finite entries")
    validate_covariance(variances)
    n, s = betas.shape

    V = np.zeros((n, n))
    rows, cols = np.triu_indices(n, 1)
    chunk = max(1, PAIR_CHUNK_ENTRIES // s ** 2)
    # the inputs are finite, so only an overflow can make V non-finite
    try:
        with np.errstate(over="raise", invalid="raise"):
            for start in range(0, len(rows), chunk):
                i, j = rows[start:start + chunk], cols[start:start + chunk]
                whitener = _inverse_sqrt_stack(variances[i] + variances[j])
                d = betas[i] - betas[j]
                V[i, j] = np.abs(whitener @ d[:, :, None]).max(axis=(1, 2))
    except FloatingPointError as exc:
        raise ValueError(f"non-finite dissimilarity: {exc}") from None
    # the lower triangle is zero, so adding the transpose mirrors exactly
    return V + V.T


def _check_dissimilarity(V) -> np.ndarray:
    """V as a float array, checked to be a square, finite, non-negative
    and symmetric dissimilarity with a zero diagonal."""
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise DimensionMismatch("dissimilarity matrix must be square")
    if not np.isfinite(V).all():
        raise ValueError("dissimilarity contains non-finite entries")
    if (V < 0).any():
        raise ValueError("dissimilarity entries must be non-negative")
    if np.abs(np.diag(V)).max(initial=0.0) > 0:
        raise ValueError("dissimilarity diagonal must be zero")
    if np.abs(V - V.T).max(initial=0.0) > 1e-12 * max(V.max(initial=0.0), 1.0):
        raise ValueError("dissimilarity must be symmetric")
    return V


def kmeans(points, k: int, restarts: int = 50, seed: int = 0,
           max_iter: int = 300):
    """Lloyd iterations with greedy farthest-point seeding.

    The best objective over `restarts` independent seedings is returned.
    Empty clusters are repaired by promoting the point farthest from its
    center. Returns (labels, centers, objective) with 0-based labels.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = points.shape[0]
    if k > n:
        raise ValueError("more clusters than points")
    rng = np.random.Generator(np.random.Philox(key=seed))

    best = None
    for _ in range(restarts):
        centers = _farthest_point_seed(points, k, rng)
        labels, centers, objective = _lloyd(points, centers, max_iter)
        if best is None or objective < best[2]:
            best = (labels, centers, objective)
    return best


def _farthest_point_seed(points, k, rng):
    n = points.shape[0]
    centers = [points[rng.integers(n)]]
    for _ in range(1, k):
        d = np.min(
            [np.sum((points - c) ** 2, axis=1) for c in centers], axis=0)
        # RNG tie-breaking among (near-)farthest points
        cutoff = d.max() * (1.0 - 1e-12)
        candidates = np.flatnonzero(d >= cutoff)
        centers.append(points[rng.choice(candidates)])
    return np.array(centers)


def _lloyd(points, centers, max_iter):
    n, k = points.shape[0], centers.shape[0]
    prev_objective = np.inf
    labels = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        objective = d2[np.arange(n), labels].sum()
        assert objective <= prev_objective + 1e-9, "Lloyd objective increased"
        for j in range(k):
            members = labels == j
            if members.any():
                centers[j] = points[members].mean(axis=0)
            else:
                farthest = d2[np.arange(n), labels].argmax()
                centers[j] = points[farthest]
                labels[farthest] = j
        if objective >= prev_objective - 1e-12:
            break
        prev_objective = objective
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    objective = float(d2[np.arange(n), labels].sum())
    return labels, centers, objective


def _laplacian(V: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian of the affinity exp(-V), unit diagonal."""
    A = np.exp(-V)
    np.fill_diagonal(A, 1.0)
    degrees = A.sum(axis=1)
    inv_sqrt_d = degrees ** -0.5
    L = inv_sqrt_d[:, None] * (np.diag(degrees) - A) * inv_sqrt_d[None, :]
    return 0.5 * (L + L.T)


def spectral_cluster(V, G: int, seed: int = 0,
                     restarts: int = 50) -> np.ndarray:
    """Normalized-Laplacian spectral clustering of the (n, n)
    dissimilarity V into G groups; returns the (n,) labels, 1-based.
    """
    V = _check_dissimilarity(V)
    n = V.shape[0]
    if not 1 <= G <= n:
        raise ValueError("G must lie in 1..n")
    try:
        _, eigvecs = np.linalg.eigh(_laplacian(V))
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    Z = eigvecs[:, :G]
    row_norms = np.linalg.norm(Z, axis=1)
    U = Z / np.maximum(row_norms, 1e-300)[:, None]
    labels0, _, _ = kmeans(U, G, restarts=restarts, seed=seed)
    return labels0 + 1


def select_num_groups(V, T: int, G_max: int = 10) -> GroupCountSelection:
    """Relative eigen-gap heuristic on the scaled Laplacian.

    The dissimilarity is shrunk by 2 / sqrt(log n * log T), the Laplacian
    spectrum is flipped to lambda_tilde = 1 - lambda, and the selected group
    count maximizes |gap| / max(next value, guard) over g up to
    min(G_max, n - 1).
    """
    V = _check_dissimilarity(V)
    n = V.shape[0]
    if n < 3 or T < 2:
        raise ValueError("selection requires n >= 3 and T >= 2")
    # an entry overflowing to inf gets affinity exp(-inf) = 0 all the same
    with np.errstate(over="ignore"):
        scaled = 2.0 / np.sqrt(np.log(n) * np.log(T)) * V
    try:
        eigvals = np.linalg.eigvalsh(_laplacian(scaled))
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    lambda_tilde = 1.0 - eigvals
    gaps = np.abs(np.diff(lambda_tilde))
    ratios = gaps / np.maximum(lambda_tilde[1:], EIGENGAP_DENOM_GUARD)
    limit = min(G_max, n - 1)
    G_hat = int(np.argmax(ratios[:limit])) + 1
    return GroupCountSelection(G_hat, lambda_tilde, ratios)
