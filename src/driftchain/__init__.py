"""Markov-chain models of surface drift from Lagrangian trajectories.

The pipeline turns drifter tracks into a box-to-box transition matrix
(Ulam counting), closes it with absorbing states for domain exit and
beaching, and then answers three questions: where does drifting material
accumulate (spectral analysis), where did observed debris come from
(Bayesian source inversion), and along which routes (time-constrained
most probable paths).
"""

from .absorb import AugmentedChain, absorption_split, augment
from .bayes import (
    Observation,
    PosteriorResult,
    absorption_cdf,
    estimate_source,
    first_absorption_pmf,
    joint_likelihood,
    load_observations,
    posterior,
    sticky_fit_map,
)
from .errors import (
    ConfigError,
    NumericalError,
    UnreachableTargetError,
    ZeroEvidenceError,
)
from .grid import OUT_OF_DOMAIN, GridCovering, StateRoles, build_grid, load_roles, load_wet_mask
from .ingest import (
    Season,
    Trajectory,
    TransitionPairs,
    extract_pairs,
    parse_trajectories,
    season_split,
)
from .paths import (
    PathResult,
    PathSet,
    most_probable_path,
    most_probable_paths,
    path_to_geojson,
    unconstrained_best_path,
)
from .schedule import SeasonalSchedule
from .spectral import (
    BasinResult,
    EigenResult,
    analyze_basin,
    basin_of_attraction,
    dominant_eigs,
    retention_time,
    zonal_profile,
)
from .ulam import (
    AnnualOperator,
    TransitionMatrix,
    annual_operator,
    compose_annual,
    estimate,
    load_matrix,
    markov_test,
    push_forward,
    save_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedChain", "absorption_split", "augment",
    "Observation", "PosteriorResult", "absorption_cdf", "estimate_source",
    "first_absorption_pmf", "joint_likelihood", "load_observations", "posterior",
    "sticky_fit_map",
    "ConfigError", "NumericalError", "UnreachableTargetError",
    "ZeroEvidenceError",
    "OUT_OF_DOMAIN", "GridCovering", "StateRoles", "build_grid", "load_roles",
    "load_wet_mask",
    "Season", "Trajectory", "TransitionPairs", "extract_pairs",
    "parse_trajectories", "season_split",
    "PathResult", "PathSet", "most_probable_path", "most_probable_paths",
    "path_to_geojson", "unconstrained_best_path",
    "SeasonalSchedule",
    "BasinResult", "EigenResult", "analyze_basin", "basin_of_attraction",
    "dominant_eigs", "retention_time", "zonal_profile",
    "AnnualOperator", "TransitionMatrix", "annual_operator", "compose_annual", "estimate",
    "load_matrix", "markov_test", "push_forward", "save_matrix",
    "__version__",
]
