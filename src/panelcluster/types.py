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


# scale conventions for UncertaintyEstimate.sigma
PER_OBSERVATION = "per_observation"
ALREADY_SCALED = "already_scaled"


@dataclass
class UncertaintyEstimate:
    """Symmetric covariance estimate attached to one individual.

    With scale == "per_observation", sigma estimates the asymptotic variance
    and the pairwise combination is (sigma_i + sigma_j) / T. With
    "already_scaled", sigma is Var(beta_i) directly and pairs combine by
    plain addition. degenerate flags floored/zero density estimates.
    """

    individual: int
    sigma: np.ndarray
    scale: str = PER_OBSERVATION
    degenerate: bool = False

    def __post_init__(self):
        self.sigma = np.atleast_2d(np.asarray(self.sigma, dtype=float))
        if self.scale not in (PER_OBSERVATION, ALREADY_SCALED):
            raise ValueError(f"unknown scale {self.scale!r}")
        validate_covariance(self.sigma)


def validate_covariance(sigma: np.ndarray, rtol: float = 1e-10) -> None:
    """Check symmetry and positive semidefiniteness of a covariance matrix."""
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise NotSymmetric("covariance must be square")
    scale = max(np.abs(sigma).max(), 1.0)
    if np.abs(sigma - sigma.T).max() > rtol * scale:
        raise NotSymmetric("covariance is not symmetric")
    eigvals = np.linalg.eigvalsh(0.5 * (sigma + sigma.T))
    norm = max(abs(eigvals[0]), abs(eigvals[-1]), 1e-300)
    if eigvals[0] < -1e-10 * norm:
        raise NonPositiveCombined(
            f"covariance has negative eigenvalue {eigvals[0]:.3e}"
        )


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

    adjacency: np.ndarray
    degrees: np.ndarray
    laplacian: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # n x G, the retained columns
    embedding: np.ndarray  # row-normalized eigenvectors


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
