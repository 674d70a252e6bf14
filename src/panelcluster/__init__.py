"""Latent group recovery for panel data.

Per-individual models (logistic and quantile regression) are fit first,
their coefficient estimates and covariance estimates are combined into a
covariance-weighted dissimilarity matrix, and normalized-Laplacian spectral
clustering assigns individuals to groups. The number of groups can be
selected by a relative eigen-gap heuristic.
"""

__version__ = "0.1.0"

from .logistic import fit_logistic, logistic_covariance
from .metrics import average_match, perfect_match
from .quantile import (
    fit_pooled_quantile,
    fit_quantile,
    fit_quantile_bundle,
    hall_sheather_bandwidth,
    hk_covariance,
    intercept_variance,
)
from .simulation import (
    SimulationConfig,
    estimate_panel,
    gen_logistic,
    gen_model1,
    gen_model2,
    gen_model3,
    gen_model4,
    run_batch,
)
from .spectral import (
    build_dissimilarity,
    kmeans,
    matrix_inverse_sqrt,
    select_num_groups,
    spectral_cluster,
)
from .types import (
    CoefficientEstimate,
    EstimateTable,
    GroupCountSelection,
    MatchScore,
    PanelDataset,
    QuantileFitBundle,
    UncertaintyEstimate,
)

__all__ = [
    "CoefficientEstimate",
    "EstimateTable",
    "GroupCountSelection",
    "MatchScore",
    "PanelDataset",
    "QuantileFitBundle",
    "SimulationConfig",
    "UncertaintyEstimate",
    "average_match",
    "build_dissimilarity",
    "estimate_panel",
    "fit_logistic",
    "fit_pooled_quantile",
    "fit_quantile",
    "fit_quantile_bundle",
    "gen_logistic",
    "gen_model1",
    "gen_model2",
    "gen_model3",
    "gen_model4",
    "hall_sheather_bandwidth",
    "hk_covariance",
    "intercept_variance",
    "kmeans",
    "logistic_covariance",
    "matrix_inverse_sqrt",
    "perfect_match",
    "run_batch",
    "select_num_groups",
    "spectral_cluster",
]
