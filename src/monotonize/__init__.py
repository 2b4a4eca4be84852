"""Monotonization toolkit for gridded function estimates.

Sort-based rearrangement and projection-based isotonization of
multivariate gridded functions, with the matching machinery around them:
confidence-band monotonization, nonparametric mean and quantile
estimators with pairs bootstrap, a simulation harness, and a CLI.

Importing the package loads the repair core (errors, grid, rearrange,
isotonic) and numpy.  The names of bands, estimators and montecarlo are
resolved on first access, which imports their module then (PEP 562), so a
program that only repairs never loads the estimators or the harness.
"""

import importlib

from .errors import NumericalError, ValidationError
from .grid import (
    INF,
    Axis,
    GriddedFunction,
    is_monotone,
    lp_distance,
    lp_length,
    make_grid_function,
    sample_quantile,
)
from .isotonic import blend, isotonize_average, isotonize_axis, isotonize_pi, monotonize, pava
from .rearrange import (
    all_orderings,
    eta_p,
    rearrange_1d,
    rearrange_average,
    rearrange_axis,
    rearrange_pi,
)

#: Each public name that is resolved on first access, and its module.
_LAZY = {
    name: module
    for module, names in {
        "bands": "Band assemble_band covers critical_value_max_t monotonize_band "
        "order_statistic_quantile",
        "estimators": "MEAN_LOSS Dataset EstimatorSpec FitResult Loss basis_eval bootstrap "
        "fit fit_quantile_process",
        "montecarlo": "DEFAULT_KNOTS BENCHMARK_BETA McConfig McReport config_from_dict "
        "default_estimators design_vector run_experiment simulate_rep true_cef true_cqf",
    }.items()
    for name in names.split()
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


__version__ = "0.1.0"

__all__ = [
    "Axis",
    "Band",
    "Dataset",
    "DEFAULT_KNOTS",
    "EstimatorSpec",
    "FitResult",
    "GriddedFunction",
    "INF",
    "Loss",
    "MEAN_LOSS",
    "McConfig",
    "McReport",
    "NumericalError",
    "BENCHMARK_BETA",
    "ValidationError",
    "all_orderings",
    "assemble_band",
    "basis_eval",
    "blend",
    "bootstrap",
    "config_from_dict",
    "covers",
    "critical_value_max_t",
    "default_estimators",
    "design_vector",
    "eta_p",
    "fit",
    "fit_quantile_process",
    "is_monotone",
    "isotonize_average",
    "isotonize_axis",
    "isotonize_pi",
    "lp_distance",
    "lp_length",
    "make_grid_function",
    "monotonize",
    "monotonize_band",
    "order_statistic_quantile",
    "pava",
    "rearrange_1d",
    "rearrange_average",
    "rearrange_axis",
    "rearrange_pi",
    "run_experiment",
    "sample_quantile",
    "simulate_rep",
    "true_cef",
    "true_cqf",
    "__version__",
]
