"""Stratified mean/gradient estimation with per-stratum memory.

Library layout:

* :mod:`stratgrad.population` - stratified scalar populations and the
  synthetic drift families;
* :mod:`stratgrad.estimators` - the four estimators, the mixing-coefficient
  kernel, the blended variance of the optimal mix and the estimator race;
* :mod:`stratgrad.mlp` - a plain-numpy feedforward classifier with exact
  hand-derived gradients;
* :mod:`stratgrad.trainer` - the memory-type stratified trainer and the
  baseline trainers;
* :mod:`stratgrad.dataio` - IDX ingestion and CSV/SVG/manifest emission;
* :mod:`stratgrad.rng` - the seeded PCG64 streams, built in batches;
* :mod:`stratgrad.cli` - the ``stratgrad`` experiment subcommands.
"""

__version__ = "0.1.0"

from .estimators import (
    Race,
    blended_variance,
    gmst_step,
    gst_estimate,
    optimal_coefficients_elementwise,
    trace_estimators,
)
from .population import (
    PopulationRound,
    Trend,
    generate_family,
    sample_strata,
)

__all__ = [
    "__version__",
    "Race", "blended_variance", "gmst_step", "gst_estimate",
    "optimal_coefficients_elementwise", "trace_estimators",
    "PopulationRound", "Trend", "generate_family", "sample_strata",
]
