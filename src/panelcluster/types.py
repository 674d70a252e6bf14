"""Core data containers and error types shared across the package."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class EstimationError(Exception):
    """Base class for numerical failures during estimation."""


class DegenerateOutcome(EstimationError):
    """Binary response is all zeros or all ones; the individual cannot be fit."""


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


class NonPositiveCombined(EstimationError):
    """A combined covariance has a negative eigenvalue beyond tolerance."""


class NotSymmetric(ValueError):
    pass


class EigenFailure(EstimationError):
    pass


class ParseError(ValueError):
    """CSV/config parsing failure; message carries row/column location."""


@dataclass
class PanelDataset:
    """Balanced panel of n individuals observed over T periods.

    covariates has shape (n, T, p); responses has shape (n, T).
    kind is "continuous" or "binary".
    """

    covariates: np.ndarray
    responses: np.ndarray
    kind: str

    def __post_init__(self):
        self.covariates = np.asarray(self.covariates, dtype=float)
        self.responses = np.asarray(self.responses, dtype=float)
        if self.covariates.ndim != 3:
            raise DimensionMismatch("covariates must have shape (n, T, p)")
        if self.responses.shape != self.covariates.shape[:2]:
            raise DimensionMismatch("responses must have shape (n, T)")
        if self.kind not in ("continuous", "binary"):
            raise ValueError(f"unknown panel kind {self.kind!r}")
        if self.kind == "binary" and not np.isin(self.responses, (0.0, 1.0)).all():
            raise ValueError("binary panel requires responses in {0, 1}")

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def T(self) -> int:
        return self.covariates.shape[1]

    @property
    def p(self) -> int:
        return self.covariates.shape[2]

    def design(self, i: int) -> np.ndarray:
        """T x (p+1) design of individual i with a leading intercept column."""
        return np.column_stack([np.ones(self.T), self.covariates[i]])


@dataclass
class CoefficientEstimate:
    """Fitted coefficient vector of one individual.

    gamma holds (intercept, slopes) when the model carries a free intercept,
    otherwise just the slopes. tau is the quantile level, or None for
    logistic fits.
    """

    individual: int
    gamma: np.ndarray
    tau: float | None = None
    converged: bool = True
    iterations: int = 0

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=float)
        if not np.isfinite(self.gamma).all():
            raise ValueError("coefficient estimate contains non-finite entries")
        if self.tau is not None and not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0, 1)")

    @property
    def slopes(self) -> np.ndarray:
        """Coefficient vector without the leading intercept."""
        return self.gamma[1:]


# scale conventions of EstimateTable.sigmas and build_dissimilarity
PER_OBSERVATION = "per_observation"
ALREADY_SCALED = "already_scaled"


@dataclass
class UncertaintyEstimate:
    """Symmetric covariance estimate attached to one individual.

    degenerate flags floored/zero density estimates.
    """

    individual: int
    sigma: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        self.sigma = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        validate_covariance(self.sigma)


def _reject(bad: np.ndarray, error: type, message: str) -> None:
    """Raise `error` carrying `index`, the first True position of `bad`."""
    if bad.any():
        exc = error(message)
        exc.index = int(bad.argmax())
        raise exc


def validate_covariance(sigma: np.ndarray, rtol: float = 1e-10) -> None:
    """Check that sigma, one (s, s) matrix or an (..., s, s) stack, holds
    finite, symmetric, positive semidefinite covariances.

    The error carries `index`, the flat stack position of the first bad
    matrix. Finiteness is checked before any eigendecomposition.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim < 2 or sigma.shape[-1] != sigma.shape[-2]:
        raise NotSymmetric("covariance must be square")
    S = sigma.reshape(-1, *sigma.shape[-2:])
    _reject(~np.isfinite(S).all(axis=(1, 2)), ValueError,
            "covariance has non-finite entries")
    S_T = S.swapaxes(1, 2)
    scale = np.maximum(np.abs(S).max(axis=(1, 2)), 1.0)
    _reject(np.abs(S - S_T).max(axis=(1, 2)) > rtol * scale,
            NotSymmetric, "covariance is not symmetric")
    eigvals = np.linalg.eigvalsh(0.5 * (S + S_T))
    norm = np.maximum(np.abs(eigvals).max(axis=1), 1e-300)
    negative = eigvals[:, 0] < -1e-10 * norm
    smallest = eigvals[negative.argmax(), 0] if negative.any() else 0.0
    _reject(negative, NonPositiveCombined,
            f"covariance has negative eigenvalue {smallest:.3e}")


@dataclass
class EstimateTable:
    """Per-individual estimates stacked for the dissimilarity: betas (n, s)
    and their covariances sigmas (n, s, s), rows labelled by ids.

    With scale == "per_observation", sigmas estimate the asymptotic variance
    and a pair combines as (sigma_i + sigma_j) / T, or as sigma_i / w_i +
    sigma_j / w_j with per-individual weights (sample sizes T_i). With
    "already_scaled", sigma is Var(beta_i) and pairs combine by plain
    addition. dropped lists (id, reason) of individuals left out.
    """

    ids: list
    betas: np.ndarray
    sigmas: np.ndarray
    scale: str = PER_OBSERVATION
    weights: np.ndarray | None = None
    d_T: float | None = None
    dropped: list = field(default_factory=list)

    def __post_init__(self):
        self.betas = np.atleast_2d(np.asarray(self.betas, dtype=float))
        self.sigmas = np.asarray(self.sigmas, dtype=float)
        n, p = self.betas.shape
        if len(self.ids) != len(set(self.ids)):
            raise ParseError("estimate ids must be unique")
        if len(self.ids) != n or self.sigmas.shape != (n, p, p):
            raise ParseError(f"ids, betas and covariances must have shapes "
                             f"(n,), (n, {p}) and (n, {p}, {p})")
        try:
            validate_covariance(self.sigmas)
        except (ValueError, EstimationError) as exc:
            row = exc.index
            raise ParseError(f"row {row} (id={self.ids[row]}): {exc}") from exc

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def p(self) -> int:
        return self.betas.shape[1]


@dataclass
class QuantileFitBundle:
    """Quantile fits at tau and tau +/- bandwidth, used by the sandwich."""

    center: CoefficientEstimate
    upper: CoefficientEstimate
    lower: CoefficientEstimate
    bandwidth: float

    def __post_init__(self):
        tau = self.center.tau
        if not (0.0 < tau - self.bandwidth and tau + self.bandwidth < 1.0):
            raise ValueError("bandwidth pushes tau +/- d_T outside (0, 1)")


@dataclass
class DissimilarityMatrix:
    """Symmetric n x n matrix of covariance-whitened sup-norm distances."""

    V: np.ndarray

    def __post_init__(self):
        self.V = np.asarray(self.V, dtype=float)
        V = self.V
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

    @property
    def n(self) -> int:
        return self.V.shape[0]


@dataclass
class SpectralDecomposition:
    """Intermediate quantities of the spectral clustering pipeline."""

    eigenvalues: np.ndarray
    embedding: np.ndarray  # row-normalized first G eigenvectors


@dataclass
class GroupAssignment:
    """Cluster labels in 1..G for each individual."""

    labels: np.ndarray
    G: int
    kmeans_objective: float = 0.0

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        if self.labels.min(initial=1) < 1 or self.labels.max(initial=1) > self.G:
            raise ValueError("labels must lie in 1..G")


@dataclass
class GroupCountSelection:
    """Result of the relative eigen-gap heuristic."""

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
    best_permutation: dict = field(default_factory=dict)
    padded: bool = False
