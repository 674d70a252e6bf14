"""Core data containers and error types shared across the package."""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

# relative asymmetry validate_covariance allows in a covariance
SYMMETRY_RTOL = 1e-10
# largest condition number of a matrix an estimator inverts or solves with
MAX_CONDITION = 1e12
# Array entries a block of batched work holds (see blocks). One block of all
# pairs cost ~5 MB at n = 300 and one of all k-means restarts 50 MiB at
# n = 10,000; 2**16 made the CLI benchmark's clustering slower and larger.
BLOCK_ENTRIES = 2 ** 15


def blocks(count: int, size: int) -> list:
    """The slices of range(count), in order, each of at most BLOCK_ENTRIES
    // size items of `size` array entries, and of at least one item."""
    step = max(1, BLOCK_ENTRIES // max(size, 1))
    return [slice(start, min(start + step, count))
            for start in range(0, count, step)]


def check_count(name, value):
    """Reject a count that is not an integer (a bool is not one)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_stack(X, y):
    """X, an (n, T, k) stack of designs, and its responses y (n, T) as float
    arrays; any other shape raises DimensionMismatch."""
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    if X.ndim != 3 or y.shape != X.shape[:2]:
        raise DimensionMismatch("design/response shape mismatch")
    return X, y


def screen_rows(X, faults):
    """The rows of the (n, T, k) design stack X that can be fit, and
    {row: EstimationError} of the others: a row fails with the first of the
    (mask (n,), error class, message) faults it is in, and a row in none of
    them with SingularDesign if its design is rank deficient (the rank is
    computed for those rows only)."""
    failed = {}
    for mask, error, message in faults:
        for i in np.flatnonzero(mask):
            failed.setdefault(int(i), error(message))
    rows = np.setdiff1d(np.arange(len(X)), list(failed))
    deficient = np.linalg.matrix_rank(X[rows]) < X.shape[2]
    failed.update({int(i): SingularDesign("design matrix is rank deficient")
                   for i in rows[deficient]})
    return rows[~deficient], failed


def ill_conditioned(S: np.ndarray) -> np.ndarray:
    """Whether each symmetric matrix of an (m, k, k) stack has a condition
    number above MAX_CONDITION, read from one eigvalsh (the lower triangle)
    as the ratio of its largest to its smallest |eigenvalue|, not from an
    SVD. A singular matrix, the zero matrix included, and one with a
    non-finite entry are ill-conditioned.
    """
    w = np.abs(np.linalg.eigvalsh(S))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = w.max(axis=-1) / w.min(axis=-1)
    return ~(ratio <= MAX_CONDITION) | ~np.isfinite(S).all(axis=(-2, -1))


class EstimationError(Exception):
    """Base class for numerical failures during estimation."""


class DegenerateOutcome(EstimationError):
    """A binary response is constant or has an outcome other than 0 or 1, or
    a quantile response has a non-finite entry; the individual cannot be
    fit."""


class PerfectSeparation(EstimationError):
    """Logistic MLE diverges because the outcomes are separable."""


class SingularDesign(EstimationError):
    pass


class SingularHessian(EstimationError):
    pass


class SingularB(EstimationError):
    """Density-weighted Gram matrix of the sandwich is numerically singular."""


class NonConvergence(EstimationError):
    pass


class DimensionMismatch(ValueError):
    pass


class NonFiniteCovariance(EstimationError):
    """An individual's covariance estimate overflows to a non-finite value."""


class NonPositiveCombined(EstimationError):
    """A covariance has an eigenvalue below minus its eigen_floor."""


class NotSymmetric(ValueError):
    pass


class EigenFailure(EstimationError):
    pass


class ParseError(ValueError):
    """CSV/config parsing failure; message carries row/column location."""


@dataclass
class PanelDataset:
    """Balanced panel of n individuals observed over T periods.

    covariates has shape (n, T, p); responses has shape (n, T), and every
    entry of both must be finite.
    """

    covariates: np.ndarray
    responses: np.ndarray

    def __post_init__(self):
        self.covariates = np.asarray(self.covariates, dtype=float)
        self.responses = np.asarray(self.responses, dtype=float)
        if self.covariates.ndim != 3:
            raise DimensionMismatch("covariates must have shape (n, T, p)")
        if self.responses.shape != self.covariates.shape[:2]:
            raise DimensionMismatch("responses must have shape (n, T)")
        bad_y = ~np.isfinite(self.responses).all(axis=1)
        bad = bad_y | ~np.isfinite(self.covariates).all(axis=(1, 2))
        if bad.any():
            i = int(bad.argmax())
            part = "responses" if bad_y[i] else "covariates"
            raise ValueError(f"individual {i} has non-finite {part}")

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def T(self) -> int:
        return self.covariates.shape[1]

    @property
    def p(self) -> int:
        return self.covariates.shape[2]

    @property
    def designs(self) -> np.ndarray:
        """(n, T, p+1) stack of the designs: a leading intercept column and
        the covariates of each individual."""
        return np.concatenate([np.ones((self.n, self.T, 1)), self.covariates],
                              axis=2)


@dataclass
class CoefficientEstimate:
    """Fitted coefficients of a stack of n individuals, (n, k).

    gamma holds (intercept, slopes) when the model carries a free intercept,
    otherwise just the slopes; converged holds when every row does (for a
    quantile fit: passes its subgradient certificate). tau is the quantile
    level, which the fitter checks, or None for logistic fits. failed maps
    the rows that hold no estimate to their EstimationError.
    """

    gamma: np.ndarray
    tau: float | None = None
    converged: bool = True
    iterations: int = 0
    failed: dict = field(default_factory=dict)

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=float)
        if not np.isfinite(self.gamma).all():
            raise ValueError("coefficient estimate contains non-finite entries")

    @property
    def slopes(self) -> np.ndarray:
        """Coefficients without the leading intercept (of every row)."""
        return self.gamma[..., 1:]


# scale conventions of EstimateTable.sigmas (see EstimateTable.variances)
PER_OBSERVATION = "per_observation"
ALREADY_SCALED = "already_scaled"


@dataclass
class UncertaintyEstimate:
    """Covariance estimates of a stack of n individuals, (n, s, s), which
    EstimateTable checks once.

    degenerate flags a crossed density quotient (of any row). Per-row flags:
    crossed (n,) and failed, {row: EstimationError} of the rows that hold
    no estimate.
    """

    sigma: np.ndarray
    degenerate: bool = False
    crossed: np.ndarray | None = None
    failed: dict = field(default_factory=dict)


def _reject(bad: np.ndarray, error: type, message: str) -> None:
    """Raise `error` carrying `index`, the first True position of `bad`."""
    if bad.any():
        exc = error(message)
        exc.index = int(bad.argmax())
        raise exc


def validate_covariance(sigma: np.ndarray) -> None:
    """Check that sigma, one (s, s) matrix or an (..., s, s) stack with
    s >= 1, holds finite, symmetric, positive semidefinite covariances, by
    each one's own scale (SYMMETRY_RTOL, eigen_floor); nothing else rejects.

    The error carries `index`, the flat stack position of the first bad
    matrix. Finiteness is checked before any eigendecomposition.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim < 2 or sigma.shape[-1] != sigma.shape[-2]:
        raise NotSymmetric("covariance must be square")
    if not sigma.shape[-1]:
        raise DimensionMismatch("covariance must be at least 1 x 1")
    S = sigma.reshape(-1, *sigma.shape[-2:])
    _reject(~np.isfinite(S).all(axis=(1, 2)), ValueError,
            "covariance has non-finite entries")
    half = 0.5 * S  # halved first, so no difference or sum overflows
    half_T = half.swapaxes(1, 2)
    asymmetry = np.abs(half - half_T).max(axis=(1, 2))
    _reject(asymmetry > 0.5 * SYMMETRY_RTOL * np.abs(S).max(axis=(1, 2)),
            NotSymmetric, "covariance is not symmetric")
    eigvals = np.linalg.eigvalsh(half + half_T)
    negative = eigvals[:, 0] < -eigen_floor(eigvals[:, 0], eigvals[:, -1])
    if negative.any():
        _reject(negative, NonPositiveCombined, f"matrix has negative "
                f"eigenvalue {eigvals[negative.argmax(), 0]:.3e}")


def eigen_floor(smallest: np.ndarray, largest: np.ndarray) -> np.ndarray:
    """1e-10 * max(largest, -smallest, 1e-300), the floor of each matrix of
    a stack from its (m,) extreme eigenvalues: validate_covariance rejects
    a smallest eigenvalue below minus it, the pair whitening floors at it."""
    return 1e-10 * np.maximum(np.maximum(largest, -smallest), 1e-300)


@dataclass
class EstimateTable:
    """Per-individual estimates stacked for the dissimilarity: betas (n, s)
    and their covariances sigmas (n, s, s), rows labelled by ids.

    With scale == "per_observation", sigmas estimate the asymptotic variance
    and Var(beta_i) is sigma_i / T, or sigma_i / w_i with per-individual
    weights (sample sizes T_i, finite and > 0). With "already_scaled",
    sigma_i is Var(beta_i). dropped lists (id, reason) of individuals left
    out.
    """

    ids: list
    betas: np.ndarray
    sigmas: np.ndarray
    scale: str = PER_OBSERVATION
    weights: np.ndarray | None = None
    d_T: float | None = None
    dropped: list = field(default_factory=list)

    def __post_init__(self):
        self.betas = np.asarray(self.betas, dtype=float)
        self.sigmas = np.asarray(self.sigmas, dtype=float)
        if self.betas.ndim != 2:
            raise DimensionMismatch("betas must be an (n, s) array")
        n, p = self.betas.shape
        if p < 1:
            raise ParseError("betas must have at least one coefficient")
        if len(self.ids) != len(set(self.ids)):
            raise ParseError("estimate ids must be unique")
        if len(self.ids) != n or self.sigmas.shape != (n, p, p):
            raise ParseError(f"ids, betas and covariances must have shapes "
                             f"(n,), (n, {p}) and (n, {p}, {p})")
        if self.scale not in (PER_OBSERVATION, ALREADY_SCALED):
            raise ParseError(f"unknown scale {self.scale!r}")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.scale != PER_OBSERVATION:
                raise ParseError("weights require per_observation scale")
            if self.weights.shape != (n,) or not (
                    np.isfinite(self.weights) & (self.weights > 0)).all():
                raise ParseError("weights must be n values, finite and > 0")
        try:
            validate_covariance(self.sigmas)
            if self.weights is not None:
                with np.errstate(over="ignore"):
                    _reject(~np.isfinite(self.variances()).all(axis=(1, 2)),
                            ValueError, "covariance / weight overflows")
        except (ValueError, EstimationError) as exc:
            row = exc.index  # read_estimates maps it to the CSV row number
            raise ParseError(f"row {row} (id={self.ids[row]}): {exc}") from exc

    def variances(self, T: int | None = None) -> np.ndarray:
        """Var(beta_i) of every row, an (n, s, s) stack: sigmas / weights
        when there is a weight column, sigmas / T under per_observation
        scale (T an integer >= 1) and sigmas as given when already_scaled.
        A T that is given is checked to be an integer whichever is used.
        """
        if T is not None:
            check_count("T", T)
        if self.weights is not None:
            return self.sigmas / self.weights[:, None, None]
        if self.scale == ALREADY_SCALED:
            return self.sigmas
        if T is None or T < 1:
            raise ValueError(f"per_observation estimates without weights "
                             f"need T, an integer >= 1; got T={T!r}")
        return self.sigmas / T

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def p(self) -> int:
        return self.betas.shape[1]


@dataclass
class QuantileFitBundle:
    """Quantile fits of a stack of n designs at tau and tau +/- bandwidth,
    used by the sandwich.

    Each fit holds (n, k) coefficients; failed maps the rows that could not
    be fit, or whose three fits do not all pass the subgradient certificate,
    to their EstimationError.
    """

    center: CoefficientEstimate
    upper: CoefficientEstimate
    lower: CoefficientEstimate
    bandwidth: float
    failed: dict = field(default_factory=dict)


@dataclass
class GroupCountSelection:
    """Result of the relative eigen-gap heuristic: the first limit + 1
    values lambda_tilde and the limit ratios that selection reads, where
    limit = min(G_max, n - 1)."""

    G_hat: int
    lambda_tilde: np.ndarray
    ratios: np.ndarray

    def __post_init__(self):
        n = len(self.lambda_tilde)
        if not 1 <= self.G_hat <= n - 1:
            raise ValueError("selected group count out of range")


@dataclass
class MatchScore:
    """Best-permutation agreement between two labelings."""

    perfect: bool
    average: float
