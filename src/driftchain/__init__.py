"""Markov-chain models of surface drift from Lagrangian trajectories.

The pipeline turns drifter tracks into a box-to-box transition matrix
(Ulam counting), closes it with absorbing states for domain exit and
beaching, and then answers three questions: where does drifting material
accumulate (spectral analysis), where did observed debris come from
(Bayesian source inversion), and along which routes (time-constrained
most probable paths).

The exported names load on first access (PEP 562), so importing the
package, or the CLI for ``--help``, does not import numpy or any pipeline
module.
"""

import importlib

__version__ = "0.1.0"

#: Each submodule with the names the package exports from it.
_EXPORTS = {
    "absorb": ("AugmentedChain", "absorption_split", "augment"),
    "bayes": ("Observation", "PosteriorResult", "absorption_cdf", "estimate_source",
              "first_absorption_pmf", "joint_likelihood", "load_observations", "posterior",
              "sticky_fit_map"),
    "errors": ("ConfigError", "NumericalError", "UnreachableTargetError",
               "ZeroEvidenceError"),
    "grid": ("OUT_OF_DOMAIN", "GridCovering", "StateRoles", "build_grid", "load_roles"),
    "ingest": ("Season", "Trajectory", "TransitionPairs", "extract_pairs",
               "parse_trajectories", "season_split"),
    "paths": ("PathResult", "PathSet", "most_probable_path", "most_probable_paths",
              "path_to_geojson", "unconstrained_best_path"),
    "schedule": ("SeasonalSchedule",),
    "spectral": ("BasinResult", "EigenResult", "analyze_basin", "basin_of_attraction",
                 "dominant_eigs", "retention_time", "zonal_profile"),
    "ulam": ("AnnualOperator", "TransitionMatrix", "annual_operator", "compose_annual",
             "estimate", "load_matrix", "markov_test", "push_forward", "save_matrix"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
