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

# Entries of kmeans' per-chunk working set, ~n * (k + d) per restart: every
# restart of a small-n call runs in one chunk, and a large-n call holds a
# few restarts at a time.
KMEANS_CHUNK_ENTRIES = 2 ** 17


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

    The best objective over `restarts` independent seedings is returned,
    the first such restart on a tie. All seedings are drawn first, in
    restart order; Lloyd is deterministic, so each distinct seeding is
    solved once, on a stack of restarts. Empty clusters are repaired by
    promoting the point farthest from its center. Returns (labels,
    centers, objective) with 0-based labels.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    if k > n:
        raise ValueError("more clusters than points")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    seeds = _farthest_point_seeds(points, k, restarts, rng)
    # distinct seedings in order of first draw, so argmin keeps the first best
    _, first = np.unique(seeds, axis=0, return_index=True)
    seeds = seeds[np.sort(first)]

    best = None
    chunk = max(1, KMEANS_CHUNK_ENTRIES // (n * (k + d)))
    for start in range(0, len(seeds), chunk):
        centers = points[seeds[start:start + chunk]]
        labels, objectives = _lloyd(points, centers, max_iter)
        i = objectives.argmin()
        if best is None or objectives[i] < best[2]:
            best = (labels[i].copy(), centers[i].copy(), float(objectives[i]))
    return best


def _farthest_point_seeds(points, k, restarts, rng):
    """(restarts, k) indices into points, drawn restart by restart."""
    n = points.shape[0]
    # squared distances to each picked point, which many restarts pick
    # again; kept for up to KMEANS_CHUNK_ENTRIES entries
    rows = {}
    seeds = np.empty((restarts, k), dtype=np.intp)
    for r in range(restarts):
        seeds[r, 0] = i = rng.integers(n)
        d = None
        for c in range(1, k):
            row = rows.get(i)
            if row is None:
                row = np.sum((points - points[i]) ** 2, axis=1)
                if (len(rows) + 1) * n <= KMEANS_CHUNK_ENTRIES:
                    rows[i] = row
            d = row if d is None else np.minimum(d, row)
            # RNG tie-breaking among (near-)farthest points
            cutoff = d.max() * (1.0 - 1e-12)
            candidates = (d >= cutoff).nonzero()[0]
            seeds[r, c] = i = candidates[rng.integers(len(candidates))]
    return seeds


def _lloyd(points, centers, max_iter):
    """Lloyd iterations on an (m, k, d) stack of centers, updated in place.

    A restart stops once its objective no longer decreases. Returns the
    (m, n) labels and (m,) objectives of the final centers.
    """
    prev_objective = np.full(len(centers), np.inf)
    active = np.arange(len(centers))
    for _ in range(max_iter):
        if not active.size:
            break
        d2, labels, objective = _assign(points, centers[active])
        assert (objective <= prev_objective[active] + 1e-9).all(), \
            "Lloyd objective increased"
        centers[active] = _update_centers(points, d2, labels)
        stopped = objective >= prev_objective[active] - 1e-12
        prev_objective[active] = objective
        active = active[~stopped]
    _, labels, objective = _assign(points, centers)
    return labels, objective


def _assign(points, centers):
    """Squared distances (m, n, k) from the points to each stack's centers,
    the nearest-center labels (m, n) and the objectives (m,)."""
    m, k, _ = centers.shape
    d2 = np.empty((m, points.shape[0], k))
    for j in range(k):
        d2[:, :, j] = ((points - centers[:, j, None, :]) ** 2).sum(axis=2)
    return d2, d2.argmin(axis=2), d2.min(axis=2).sum(axis=1)


def _update_centers(points, d2, labels):
    """Member means for each stack's (m, n) labels.

    Sums accumulate in point order, as points[members].mean(axis=0) does
    for d >= 2. A restart with an empty cluster is repaired one cluster at
    a time, as a promoted point may leave a cluster whose mean is still to
    be taken.
    """
    m, n, k = d2.shape
    bins = (labels + k * np.arange(m)[:, None]).ravel()
    counts = np.bincount(bins, minlength=m * k).reshape(m, k)
    sums = np.stack([np.bincount(bins, weights=np.tile(column, m),
                                 minlength=m * k) for column in points.T],
                    axis=1).reshape(m, k, -1)
    centers = sums / np.maximum(counts, 1)[:, :, None]
    for r in np.flatnonzero((counts == 0).any(axis=1)):
        labels_r, d2_r = labels[r], d2[r]
        for j in range(k):
            members = labels_r == j
            if members.any():
                centers[r, j] = points[members].mean(axis=0)
            else:
                farthest = d2_r[np.arange(n), labels_r].argmax()
                centers[r, j] = points[farthest]
                labels_r[farthest] = j
    return centers


def _laplacian(V: np.ndarray) -> np.ndarray:
    """Symmetric normalized Laplacian of the affinity exp(-V), unit diagonal.

    L = I - D^{-1/2} A D^{-1/2}, formed in place in the affinity array.
    """
    L = np.negative(V)
    np.exp(L, out=L)
    np.fill_diagonal(L, 1.0)
    degrees = L.sum(axis=1)
    inv_sqrt_d = degrees ** -0.5
    np.negative(L, out=L)
    L *= inv_sqrt_d[:, None]
    L *= inv_sqrt_d[None, :]
    np.fill_diagonal(L, inv_sqrt_d * (degrees - 1.0) * inv_sqrt_d)
    L += L.T
    L *= 0.5
    return L


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
    if G_max < 1:
        raise ValueError(f"G_max must be >= 1, got {G_max}")
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
