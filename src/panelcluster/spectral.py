"""Dissimilarity construction, spectral clustering, and group-count selection."""

from __future__ import annotations

import math
import numbers

import numpy as np

from . import types
from .types import (DimensionMismatch, EigenFailure, GroupCountSelection,
                    eigen_floor, validate_covariance)

EIGENGAP_DENOM_GUARD = 1e-12

# Size from which the spectrum of the normalized affinity is partial, by
# block Lanczos (_block_lanczos); below it LAPACK solves the whole
# spectrum. On CLI-shaped tables with 4 groups and with 1 (T = 120, one
# and two BLAS threads, min of 15), block Lanczos won the 4 vectors from
# n = 160 on, but at n = 220 eigvalsh still won the 11 values on 4 groups
# (1.8-1.9 against 2.1 ms); n = 240 is the first size where it won all
# four solves (vectors 1.2-1.4 against 3.2-4.6 ms, values 1.8-2.1 against
# 2.0-2.3 ms).
KRYLOV_MIN_N = 240

# Block Lanczos: blocks of min(k, KRYLOV_BLOCK) vectors. A block of b finds
# an eigenvalue repeated up to b times from its start, and one repeated
# more often only through rounding: on four disconnected groups (n = 1000,
# 4 vectors) b = 4 took 9 blocks and b = 2 took 32. On CLI-shaped tables
# b = 3 and 4 were the fastest at n = 5000 and 10,000 (11 values at
# 10,000: 1.08 s at b = 4, 1.26 s at b = 2, ARPACK 1.62 s); at n = 300
# b = 2, 3 and 4 were within the noise of each other.
KRYLOV_BLOCK = 4
# Blocks after which a solve that has not converged fails: CLI-shaped
# tables take 13 (4 vectors) and 19 (11 values), the four disconnected
# groups up to 79 (11 values, n = 1000)
KRYLOV_MAX_BLOCKS = 100
# Residual bound ||N y - mu y|| that every returned Ritz pair meets
# (N the normalized affinity, ||N|| <= 1): each value is within it of N's
KRYLOV_TOL = 1e-12

# Lloyd iterations after which a restart stops wherever it stands
LLOYD_MAX_ITER = 300


def _whiten_entries(S, d):
    """S_k^(-1/2) d_k, with the symmetric inverse square root, for m
    symmetric s x s matrices S_k, given as the (m,) arrays of their
    lower-triangle entries in row-major order (a for s = 1; a, b, c for
    [[a, b], [b, c]]), and the s (m,) arrays of coordinates d; returns the
    s (m,) arrays of whitened coordinates.

    The matrices are eigendecomposed in closed form for s <= 2 and by
    LAPACK eigh for s >= 3. Every eigenvalue is raised to at least
    types.eigen_floor (1e-10 of the largest), so a singular or slightly
    negative matrix gives a finite result; nothing is rejected here.
    """
    s = len(d)
    if s == 1:
        (a,), (d0,) = S, d
        return [np.maximum(a, eigen_floor(a, a)) ** -0.5 * d0]
    if s == 2:
        return _whiten_2x2(*S, *d)
    # eigh reads the lower triangle; the upper one is filled for clarity
    stack = np.empty((len(d[0]), s, s))
    for r, c, entry in zip(*np.tril_indices(s), S):
        stack[:, r, c] = stack[:, c, r] = entry
    eigvals, Q = np.linalg.eigh(stack)
    floor = eigen_floor(eigvals[:, 0], eigvals[:, -1])
    inv_sqrt = np.maximum(eigvals, floor[:, None]) ** -0.5
    whitener = (Q * inv_sqrt[:, None, :]) @ Q.swapaxes(1, 2)
    return list((whitener @ np.stack(d).T[:, :, None])[:, :, 0].T)


def _whiten_2x2(a, b, c, d0, d1):
    """_whiten_entries for s = 2: the whitened coordinates of (d0, d1) by
    [[a, b], [b, c]]^(-1/2), in the closed-form eigenbasis of _eigh_2x2."""
    low, high, x, y = _eigh_2x2(a, b, c)
    floor = eigen_floor(low, high)
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
    validate_covariance. A pair is whitened by (Var_i + Var_j)^(-1/2), with
    its eigenvalues floored (types.eigen_floor), never rejected.
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
    # (V[i, j] = V[j, i] in the loop: 245 -> 257 ms at n = 2000, not kept)
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
    and symmetric dissimilarity with a zero diagonal: finiteness and sign
    from V's extremes, which a NaN or an infinity reaches, then symmetry a
    block of rows at a time, where no difference of entries overflows."""
    V = np.asarray(V, dtype=float)
    if V.ndim != 2 or V.shape[0] != V.shape[1]:
        raise DimensionMismatch("dissimilarity matrix must be square")
    smallest, largest = V.min(initial=0.0), V.max(initial=0.0)
    if not np.isfinite([smallest, largest]).all():
        raise ValueError("dissimilarity contains non-finite entries")
    if smallest < 0:
        raise ValueError("dissimilarity entries must be non-negative")
    if np.diag(V).any():
        raise ValueError("dissimilarity diagonal must be zero")
    tolerance = 1e-12 * max(largest, 1.0)
    for block in types.blocks(len(V), len(V)):
        if np.abs(V[block, :block.stop]
                  - V[:block.stop, block].T).max() > tolerance:
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
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise DimensionMismatch("points must be an (n, d) array")
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
    # argmin over the centre axis: same labels, 6-26% slower, not kept
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


def _affinity(V: np.ndarray, shrink: float = 1.0) -> np.ndarray:
    """Normalized affinity N = D^{-1/2} A D^{-1/2} = I - L of A =
    exp(-shrink * V), D = diag(A 1), L the normalized Laplacian.

    Formed in place in the affinity array and symmetrized a block of rows
    at a time, as (N + N.T) * 0.5 entry by entry. V's diagonal is zero, so
    A's is 1; an entry whose shrink * V overflows gets affinity 0.
    """
    with np.errstate(over="ignore"):
        N = np.multiply(V, -shrink)
    np.exp(N, out=N)
    inv_sqrt_d = N.sum(axis=1) ** -0.5
    N *= inv_sqrt_d[:, None]
    N *= inv_sqrt_d[None, :]
    for rows in types.blocks(len(N), len(N)):
        upper = N[rows, rows.start:]
        upper += N[rows.start:, rows].T
        upper *= 0.5
        N[rows.start:, rows] = upper.T
    return N


def _top_eigen(N, k: int, vectors: bool):
    """The k largest eigenvalues of the normalized affinity N, descending,
    and their (n, k) eigenvectors if `vectors` (else None): by LAPACK
    below KRYLOV_MIN_N or when k >= n, else by block Lanczos."""
    n = len(N)
    try:
        if n >= KRYLOV_MIN_N and k < n:
            return _block_lanczos(N, k, vectors)
        if not vectors:
            return np.linalg.eigvalsh(N)[:-k - 1:-1], None
        eigvals, eigvecs = np.linalg.eigh(N)
        return eigvals[:-k - 1:-1], eigvecs[:, :-k - 1:-1]
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc


def _block_lanczos(M, k, vectors):
    """The k largest eigenvalues of the symmetric n x n matrix M with
    ||M|| <= 1 (the normalized affinity N), descending, and their (n, k)
    Ritz vectors if `vectors` (else None), by block Lanczos (Golub and
    Underwood 1977) with full reorthogonalization.

    The basis starts from the first b = min(k, KRYLOV_BLOCK) cosine columns
    cos(pi c (i + 1/2) / n), so a rerun repeats bit for bit. Each block of
    products M Q_j is orthogonalized twice against the whole basis, whose
    coefficients fill the projected matrix T column by column, and the QR
    of what is left gives the next block Q_{j+1} and the coupling B_j.
    So M Q = Q T + Q_{j+1} B_j E_j', and a Ritz pair (mu, Q s) of the
    lower triangle of T has the residual ||B_j s_j||, s_j the rows of s on
    the last block. The solve returns once the k largest Ritz pairs all
    have a residual of at most KRYLOV_TOL; a basis of all n columns is
    exact. The residuals need an eigh of T, so they are checked only where
    their fall since the last check predicts the tolerance to be near.
    After KRYLOV_MAX_BLOCKS blocks, or at k > KRYLOV_MAX_BLOCKS * b, it
    raises EigenFailure. The basis and T hold at most
    min(n, KRYLOV_MAX_BLOCKS * b) columns.
    """
    n = len(M)
    b = min(k, KRYLOV_BLOCK)
    width = min(n, KRYLOV_MAX_BLOCKS * b)
    basis = np.empty((width, n))  # orthonormal rows
    T = np.zeros((width, width))
    start = np.cos(np.outer(np.arange(b), np.arange(0.5, n) * (np.pi / n)))
    basis[:b] = start / np.linalg.norm(start, axis=1)[:, None]
    lo, hi, blocks, check, previous = 0, b, 1, 1, None
    while True:
        Q = basis[:hi]
        W = basis[lo:hi] @ M  # M is symmetric: the products, as rows
        H = Q @ W.T
        W -= H.T @ Q
        again = Q @ W.T
        W -= again.T @ Q
        T[:hi, lo:hi] = H + again
        if hi < n:
            following, B = np.linalg.qr(W.T)
            if np.abs(np.diagonal(B)).min() < 1e-8:
                # the products were (nearly) in the basis: the directions
                # QR made of their rounding are orthogonalized again
                following -= Q.T @ (Q @ following)
                following -= Q.T @ (Q @ following)
                following, R = np.linalg.qr(following)
                B = R @ B
        if hi >= k and (blocks >= check or hi == width):
            mu, S = np.linalg.eigh(T[:hi, :hi])
            S = S[:, :-k - 1:-1]
            residual = (np.linalg.norm(B @ S[lo:hi], axis=0).max()
                        if hi < n else 0.0)
            if residual <= KRYLOV_TOL:
                return mu[:-k - 1:-1], Q.T @ S if vectors else None
            # next: 3/4 of the way to the block where the residual, falling
            # at its rate since the last check, meets the tolerance (the
            # fall speeds up as the basis grows); while it does not fall,
            # at twice the blocks
            ahead = blocks
            if previous is not None and residual < previous[1]:
                since, last = previous
                fall = math.log(last / residual) / (blocks - since)
                ahead = min(ahead, max(1, int(
                    0.75 * math.log(residual / KRYLOV_TOL) / fall)))
            previous, check = (blocks, residual), blocks + ahead
        if hi == width:
            raise EigenFailure(f"block Lanczos did not converge in {blocks} "
                               f"blocks of {b} vectors")
        grow = min(b, width - hi)
        basis[hi:hi + grow] = following[:, :grow].T
        T[hi:hi + grow, lo:hi] = B[:grow]
        lo, hi, blocks = hi, hi + grow, blocks + 1


def spectral_cluster(V, G: int, seed: int = 0,
                     restarts: int = 50) -> np.ndarray:
    """Normalized-Laplacian spectral clustering of the (n, n)
    dissimilarity V into G groups, on the G leading eigenvectors of the
    normalized affinity N = I - L; returns the (n,) labels, 1-based.
    """
    V = _check_dissimilarity(V)
    n = V.shape[0]
    types.check_count("G", G)
    if not 1 <= G <= n:
        raise ValueError("G must lie in 1..n")
    _check_seed(seed)
    _, Z = _top_eigen(_affinity(V), G, vectors=True)
    row_norms = np.linalg.norm(Z, axis=1)
    U = Z / np.maximum(row_norms, 1e-300)[:, None]
    labels0, _, _ = kmeans(U, G, restarts=restarts, seed=seed)
    return labels0 + 1


def select_num_groups(V, T: int, G_max: int = 10) -> GroupCountSelection:
    """Relative eigen-gap heuristic on the scaled normalized affinity.

    The dissimilarity is shrunk by 2 / sqrt(log n * log T); lambda_tilde
    are the limit + 1 largest eigenvalues of its normalized affinity
    N = I - L (1 - lambda, lambda L's smallest), where
    limit = min(G_max, n - 1), and the selected group count maximizes
    |gap| / max(next value, guard) over the limit ratios, g = 1..limit.
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
    lambda_tilde, _ = _top_eigen(_affinity(V, shrink), limit + 1,
                                 vectors=False)
    gaps = np.abs(np.diff(lambda_tilde))
    ratios = gaps / np.maximum(lambda_tilde[1:], EIGENGAP_DENOM_GUARD)
    G_hat = int(np.argmax(ratios)) + 1
    return GroupCountSelection(G_hat, lambda_tilde, ratios)
