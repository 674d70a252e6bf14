"""Dissimilarity construction, spectral clustering, and group-count selection."""

from __future__ import annotations

import numbers

import numpy as np
from scipy.sparse.linalg import ArpackError, eigsh

from . import types
from .types import (
    DimensionMismatch,
    EigenFailure,
    GroupCountSelection,
    NonPositiveCombined,
    validate_covariance,
)

EIGENGAP_DENOM_GUARD = 1e-12

# Size from which the Laplacian spectrum is partial, by ARPACK's Lanczos
# (eigsh); below it LAPACK solves the whole spectrum. On the Laplacians of
# CLI-shaped tables with 4 groups and with 1 (T = 120, two BLAS threads),
# eigsh for 4 vectors and for 11 values took 1.2 and 1.5 ms at n = 40
# against 0.2-0.3 and 0.13 ms for eigh and eigvalsh; at n = 160 eigvalsh
# still won on one group (1.7 against 2.4 ms); n = 200 is the first size
# where eigsh won or tied both (1.6 against 5.3 ms, 1.6-2.6 against
# 2.1-2.6 ms).
KRYLOV_MIN_N = 200

# Lloyd iterations after which a restart stops wherever it stands
LLOYD_MAX_ITER = 300


def _whiten_entries(S, d):
    """S_k^(-1/2) d_k, with the symmetric inverse square root, for m
    symmetric s x s matrices S_k, given as the (m,) arrays of their
    lower-triangle entries in row-major order (a for s = 1; a, b, c for
    [[a, b], [b, c]]), and the s (m,) arrays of coordinates d; returns the
    s (m,) arrays of whitened coordinates.

    The matrices are eigendecomposed in closed form for s <= 2 and by
    LAPACK eigh for s >= 3. Eigenvalues are floored at
    1e-10 * max(eigenvalue) so that semi-definite inputs produce a finite
    result; one below -1e-10 * max(eigenvalue) raises NonPositiveCombined.
    """
    s = len(d)
    if s == 1:
        (a,), (d0,) = S, d
        return [np.maximum(a, _eigen_floor(a, a)) ** -0.5 * d0]
    if s == 2:
        return _whiten_2x2(*S, *d)
    # eigh reads the lower triangle; the upper one is filled for clarity
    stack = np.empty((len(d[0]), s, s))
    for r, c, entry in zip(*np.tril_indices(s), S):
        stack[:, r, c] = stack[:, c, r] = entry
    eigvals, Q = np.linalg.eigh(stack)
    floor = _eigen_floor(eigvals[:, 0], eigvals[:, -1])
    inv_sqrt = np.maximum(eigvals, floor[:, None]) ** -0.5
    whitener = (Q * inv_sqrt[:, None, :]) @ Q.swapaxes(1, 2)
    return list((whitener @ np.stack(d).T[:, :, None])[:, :, 0].T)


def _eigen_floor(smallest, largest):
    """The eigenvalue floor 1e-10 * max(largest, 1e-300) of each matrix of
    a stack, from its (m,) smallest and largest eigenvalues; a smallest one
    below minus the floor raises NonPositiveCombined, naming the first."""
    norm = np.maximum(largest, 1e-300)
    negative = smallest < -1e-10 * norm
    if negative.any():
        raise NonPositiveCombined(f"matrix has negative eigenvalue "
                                  f"{smallest[negative.argmax()]:.3e}")
    return 1e-10 * norm


def _whiten_2x2(a, b, c, d0, d1):
    """_whiten_entries for s = 2: the whitened coordinates of (d0, d1) by
    [[a, b], [b, c]]^(-1/2), in the closed-form eigenbasis of _eigh_2x2."""
    low, high, x, y = _eigh_2x2(a, b, c)
    floor = _eigen_floor(low, high)
    # coordinates in the eigenbasis (-y, x), (x, y), scaled, rotated back
    low = np.maximum(low, floor) ** -0.5 * (x * d1 - y * d0)
    high = np.maximum(high, floor) ** -0.5 * (x * d0 + y * d1)
    return [x * high - y * low, y * high + x * low]


def _eigh_2x2(a, b, c):
    """Eigendecomposition of the symmetric matrices [[a, b], [b, c]] of
    (m,) entries: the smaller and larger eigenvalues and the components
    x, y of the unit eigenvector (x, y) of the larger one, four (m,) arrays.

    Each matrix is first divided by its largest entry, so the determinant
    neither overflows nor underflows. The larger eigenvalue comes from the
    trace and the discriminant, the smaller as det / larger, so neither
    cancels. A diagonal matrix keeps its diagonal entries as eigenvalues
    and a unit vector as eigenvector, as eigh does.
    """
    scale = np.maximum(np.maximum(np.abs(a), np.abs(c)),
                       np.maximum(np.abs(b), 1e-300))
    a_, b_, c_ = a / scale, b / scale, c / scale
    mean, half = 0.5 * (a_ + c_), 0.5 * (a_ - c_)
    root = np.hypot(half, b_)
    top = mean + root
    # top >= mean > 0 where divided; elsewhere mean - root does not cancel
    bottom = np.divide(a_ * c_ - b_ * b_, top, out=mean - root,
                       where=mean > 0)
    diagonal = b == 0
    low = np.where(diagonal, np.minimum(a, c), bottom * scale)
    high = np.where(diagonal, np.maximum(a, c), top * scale)
    # the eigenvector of top from the row of S - top * I that does not
    # cancel; a multiple of the identity takes (1, 0)
    upper = half >= 0
    x = np.where(upper, half + root, b_)
    y = np.where(upper, b_, root - half)
    length = np.hypot(x, y)
    identity = length == 0
    x[identity], length[identity] = 1.0, 1.0
    return low, high, x / length, y / length


def build_dissimilarity(estimates, variances) -> np.ndarray:
    """Pairwise sup-norm of the covariance-whitened coefficient differences.

    estimates: (n, s) finite coefficient vectors; variances: their (n, s, s)
    Var(beta_i), e.g. EstimateTable.variances(T), checked by
    validate_covariance. A pair is whitened by (Var_i + Var_j)^(-1/2).
    Returns the symmetric (n, n) dissimilarity V.

    Each pair i < j (never i = i, whose doubled variance can overflow
    where no pair does) is gathered from (n,) arrays, one per coefficient
    and per lower-triangle variance entry, a block of whole rows of pairs
    at a time, and whitened by _whiten_entries.
    """
    betas = np.asarray(estimates, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if (betas.ndim != 2 or betas.shape[1] < 1
            or variances.shape != betas.shape + betas.shape[1:]):
        raise DimensionMismatch(
            "estimates must be (n, s) with s >= 1 and variances (n, s, s)")
    if not np.isfinite(betas).all():
        raise ValueError("estimates contain non-finite entries")
    validate_covariance(variances)
    n, s = betas.shape

    columns = list(betas.T.copy())
    entries = [variances[:, r, c].copy() for r, c in zip(*np.tril_indices(s))]
    V = np.zeros((n, n))
    # the inputs are finite, so only an overflow can make V non-finite
    try:
        with np.errstate(over="raise", invalid="raise"):
            for start, stop in _upper_row_blocks(n, s ** 2):
                i, j = np.triu_indices(stop - start, 1, n - start)
                i += start
                j += start
                whitened = _whiten_entries([e[i] + e[j] for e in entries],
                                           [x[i] - x[j] for x in columns])
                V[i, j] = np.abs(whitened).max(axis=0)
    except FloatingPointError as exc:
        raise ValueError(f"non-finite dissimilarity: {exc}") from None
    # the lower triangle is zero, so adding the transpose mirrors exactly
    for rows in types.blocks(n, n):
        V[rows.start:, rows] += V[rows, rows.start:].T
    return V


def _upper_row_blocks(n, size):
    """(start, stop) blocks of whole rows of the strict upper triangle of an
    n x n matrix, each of one row or of at most BLOCK_ENTRIES // size pairs,
    packed by the n - 1 - i pairs of row i: types.blocks(n, n * size) counts
    n for every row, about doubles the blocks and made build_dissimilarity
    slower (two BLAS threads, s = 2: n = 2000 378 -> 419 ms, 265 -> 500
    blocks; n = 300 9.2 -> 10.2 ms)."""
    chunk = max(1, types.BLOCK_ENTRIES // size)
    start = 0
    while start < n - 1:
        stop, pairs = start + 1, n - 1 - start
        while stop < n - 1 and pairs + n - 1 - stop <= chunk:
            pairs += n - 1 - stop
            stop += 1
        yield start, stop
        start = stop


def _check_dissimilarity(V) -> np.ndarray:
    """V as a float array, checked to be a square, finite, non-negative
    and symmetric dissimilarity with a zero diagonal, a block of rows at a
    time."""
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise DimensionMismatch("dissimilarity matrix must be square")
    negative, largest, asymmetry = False, 0.0, 0.0
    for block in types.blocks(len(V), len(V)):
        rows = V[block]
        if not np.isfinite(rows).all():
            raise ValueError("dissimilarity contains non-finite entries")
        negative = negative or bool((rows < 0).any())
        largest = max(largest, rows.max())
        # against the rows above, whose entries are known finite; once an
        # entry is negative, the difference could overflow and is not needed
        if not negative:
            asymmetry = max(asymmetry, np.abs(V[block, :block.stop]
                                              - V[:block.stop, block].T).max())
    if negative:
        raise ValueError("dissimilarity entries must be non-negative")
    if np.abs(np.diag(V)).max(initial=0.0) > 0:
        raise ValueError("dissimilarity diagonal must be zero")
    if asymmetry > 1e-12 * max(largest, 1.0):
        raise ValueError("dissimilarity must be symmetric")
    return V


def _check_seed(seed):
    """Reject a seed that is not an integer key of the Philox generator."""
    if (not isinstance(seed, numbers.Integral) or isinstance(seed, bool)
            or not 0 <= seed < 2 ** 128):
        raise ValueError(f"seed must be an integer in 0..2**128 - 1, "
                         f"got {seed!r}")


def kmeans(points, k: int, restarts: int = 50, seed: int = 0):
    """Lloyd iterations with greedy farthest-point seeding.

    Each seeding is a farthest-point chain from a drawn start that takes the
    first near-farthest point at every step, so the generator draws only the
    `restarts` starts. The best objective over the seedings is returned, the
    first such restart on a tie. Lloyd is deterministic, so each distinct
    seeding is solved once, in order of first draw (argmin then keeps the
    first best), on a stack of restarts, for at most LLOYD_MAX_ITER
    iterations. Empty clusters are repaired by promoting the point farthest
    from its center. Returns (labels, centers, objective) with 0-based
    labels.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n, d = points.shape
    types.check_count("k", k)
    types.check_count("restarts", restarts)
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n} (the number of points), "
                         f"got {k}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if d < 1:
        raise ValueError("points must have at least one coordinate")
    if not np.isfinite(points).all():
        raise ValueError("points contain non-finite entries")
    _check_seed(seed)
    rng = np.random.Generator(np.random.Philox(key=seed))
    seeds = _farthest_point_seeds(points, k, restarts, rng)

    best = None
    for block in types.blocks(len(seeds), n * (k + d)):
        centers = points[seeds[block]]
        labels, objectives = _lloyd(points, centers)
        i = objectives.argmin()
        if best is None or objectives[i] < best[2]:
            best = (labels[i].copy(), centers[i].copy(), float(objectives[i]))
    return best


def _farthest_point_seeds(points, k, restarts, rng):
    """The distinct (m, k) seedings (indices into points) of `restarts`
    greedy farthest-point chains (Gonzalez 1985), in order of first draw.

    The generator draws only the starts, at once. Each step takes the
    first point whose distance lies within a relative 1e-12 of the
    farthest, so a chain is a function of its start, whatever the last bits
    of its distances. The chains of the distinct starts are walked
    together, a block (types.blocks) of n-entry distance rows at a time.
    """
    n = len(points)
    coordinates = points.T.copy()
    starts = list(dict.fromkeys(rng.integers(n, size=restarts).tolist()))
    chains = []
    for block in types.blocks(len(starts), n):
        seeds = np.array(starts[block], dtype=np.intp)[:, None]
        d = np.full((len(seeds), n), np.inf)
        for _ in range(1, k):
            np.minimum(d, _square_distances(coordinates, points[seeds[:, -1]]),
                       out=d)
            far = d >= d.max(axis=1, keepdims=True) * (1.0 - 1e-12)
            seeds = np.column_stack([seeds, far.argmax(axis=1)])
        chains.append(seeds)
    return np.concatenate(chains)


def _lloyd(points, centers):
    """Lloyd iterations on an (m, k, d) stack of centers, updated in place.

    A restart stops once its objective no longer decreases, or after
    LLOYD_MAX_ITER iterations. Returns the (m, n) labels and (m,)
    objectives of the final centers.
    """
    prev_objective = np.full(len(centers), np.inf)
    active = np.arange(len(centers))
    for _ in range(LLOYD_MAX_ITER):
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
    """Squared distances (m, k, n) from the points to each stack's centers,
    the nearest-center labels (m, n) and the objectives (m,); a tie goes
    to the first center, as with argmin.
    """
    d2 = _square_distances(points.T.copy(), centers)
    labels = np.zeros((d2.shape[0], d2.shape[2]), dtype=np.intp)
    nearest = d2[:, 0].copy()
    for j in range(1, d2.shape[1]):
        np.copyto(labels, j, where=d2[:, j] < nearest)
        np.minimum(nearest, d2[:, j], out=nearest)
    return d2, labels, nearest.sum(axis=1)


def _square_distances(coordinates, centers):
    """Squared distances (..., n) from the points, as (d, n) coordinates,
    to a (..., d) stack of centers.

    Coordinates are added in index order, as .sum() adds fewer than 8 (it
    adds more pairwise, so distances may differ in their last bits), in
    Lloyd and in the seeding alike.
    """
    d2 = coordinates[0] - centers[..., 0, None]
    d2 *= d2
    diff = np.empty_like(d2)
    for l in range(1, len(coordinates)):
        np.subtract(coordinates[l], centers[..., l, None], out=diff)
        d2 += np.multiply(diff, diff, out=diff)
    return d2


def _update_centers(points, d2, labels):
    """Member means for each stack's (m, n) labels, given the (m, k, n)
    squared distances.

    Sums accumulate in point order, as points[members].mean(axis=0) does
    for d >= 2. A restart with an empty cluster is repaired one cluster at
    a time, as a promoted point may leave a cluster whose mean is still to
    be taken.
    """
    m, k, n = d2.shape
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
                farthest = d2_r[labels_r, np.arange(n)].argmax()
                centers[r, j] = points[farthest]
                labels_r[farthest] = j
    return centers


def _laplacian(V: np.ndarray, shrink: float = 1.0) -> np.ndarray:
    """Symmetric normalized Laplacian of the affinity exp(-shrink * V),
    unit diagonal.

    L = I - D^{-1/2} A D^{-1/2}, formed in place in the affinity array and
    symmetrized a block of rows at a time, as (L + L.T) * 0.5 entry by entry.
    An entry whose shrink * V overflows gets affinity exp(-inf) = 0.
    """
    with np.errstate(over="ignore"):
        L = np.multiply(V, -shrink)
    np.exp(L, out=L)
    np.fill_diagonal(L, 1.0)
    degrees = L.sum(axis=1)
    inv_sqrt_d = degrees ** -0.5
    np.negative(L, out=L)
    L *= inv_sqrt_d[:, None]
    L *= inv_sqrt_d[None, :]
    np.fill_diagonal(L, inv_sqrt_d * (degrees - 1.0) * inv_sqrt_d)
    for rows in types.blocks(len(L), len(L)):
        upper = L[rows, rows.start:]
        upper += L[rows.start:, rows].T
        upper *= 0.5
        L[rows.start:, rows] = upper.T
    return L


def _smallest_eigen(L, k: int, vectors: bool):
    """The k smallest eigenvalues of the normalized Laplacian L, ascending,
    and their (n, k) eigenvectors if `vectors` (else None); L is consumed.

    From KRYLOV_MIN_N on, ARPACK's Lanczos finds the k largest eigenvalues
    of I - L, formed in place, from the fixed start vector n^(-1/2) 1, so
    reruns give the same result; below it, or when k >= n, which ARPACK
    cannot solve, LAPACK solves the whole spectrum.
    """
    n = len(L)
    try:
        if n < KRYLOV_MIN_N or k >= n:
            if not vectors:
                return np.linalg.eigvalsh(L)[:k], None
            eigvals, eigvecs = np.linalg.eigh(L)
            return eigvals[:k], eigvecs[:, :k]
        np.negative(L, out=L)
        L.flat[::n + 1] += 1.0
        found = eigsh(L, k, which="LA", tol=0, v0=np.full(n, n ** -0.5),
                      return_eigenvectors=vectors)
    except (np.linalg.LinAlgError, ArpackError) as exc:
        raise EigenFailure(str(exc)) from exc
    if not vectors:
        return np.sort(1.0 - found), None
    mu, eigvecs = found
    order = np.argsort(mu)[::-1]
    return 1.0 - mu[order], eigvecs[:, order]


def spectral_cluster(V, G: int, seed: int = 0,
                     restarts: int = 50) -> np.ndarray:
    """Normalized-Laplacian spectral clustering of the (n, n)
    dissimilarity V into G groups; returns the (n,) labels, 1-based.
    """
    V = _check_dissimilarity(V)
    n = V.shape[0]
    types.check_count("G", G)
    if not 1 <= G <= n:
        raise ValueError("G must lie in 1..n")
    _check_seed(seed)
    _, Z = _smallest_eigen(_laplacian(V), G, vectors=True)
    row_norms = np.linalg.norm(Z, axis=1)
    U = Z / np.maximum(row_norms, 1e-300)[:, None]
    labels0, _, _ = kmeans(U, G, restarts=restarts, seed=seed)
    return labels0 + 1


def select_num_groups(V, T: int, G_max: int = 10) -> GroupCountSelection:
    """Relative eigen-gap heuristic on the scaled Laplacian.

    The dissimilarity is shrunk by 2 / sqrt(log n * log T), the first
    limit + 1 eigenvalues of its Laplacian are flipped to
    lambda_tilde = 1 - lambda, where limit = min(G_max, n - 1), and the
    selected group count maximizes |gap| / max(next value, guard) over the
    limit ratios, g = 1..limit.
    """
    V = _check_dissimilarity(V)
    n = V.shape[0]
    types.check_count("T", T)
    if n < 3 or T < 2:
        raise ValueError("selection requires n >= 3 and T >= 2")
    types.check_count("G_max", G_max)
    if G_max < 1:
        raise ValueError(f"G_max must be >= 1, got {G_max}")
    limit = min(G_max, n - 1)
    shrink = 2.0 / np.sqrt(np.log(n) * np.log(T))
    eigvals, _ = _smallest_eigen(_laplacian(V, shrink), limit + 1,
                                 vectors=False)
    lambda_tilde = 1.0 - eigvals
    gaps = np.abs(np.diff(lambda_tilde))
    ratios = gaps / np.maximum(lambda_tilde[1:], EIGENGAP_DENOM_GUARD)
    G_hat = int(np.argmax(ratios)) + 1
    return GroupCountSelection(G_hat, lambda_tilde, ratios)
