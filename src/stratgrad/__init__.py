"""Stratified mean/gradient estimation with per-stratum memory.

Library layout:

* :mod:`stratgrad.population` - stratified scalar populations and the
  synthetic drift families;
* :mod:`stratgrad.estimators` - the four estimators, mixing coefficients,
  and variance predictions/bounds;
* :mod:`stratgrad.mlp` - a plain-numpy feedforward classifier with exact
  hand-derived gradients;
* :mod:`stratgrad.trainer` - the memory-type stratified trainer and the
  baseline trainers;
* :mod:`stratgrad.dataio` - IDX ingestion and CSV/SVG/manifest emission;
* :mod:`stratgrad.cli` - the ``stratgrad`` experiment subcommands.
"""

__version__ = "0.1.0"

from .estimators import (
    Coefficients,
    Degenerate,
    MemoryState,
    Race,
    batch_estimate,
    gmst_init,
    gmst_step,
    gst_estimate,
    optimal_coefficients,
    predicted_variance_vsp,
    sgd_estimate,
    stratified_variance,
    trace_estimators,
    unbiased_condition_holds,
    variance_bound,
)
from .population import (
    PopulationRound,
    StratumStats,
    Trend,
    gen_normal_rounds,
    gen_uniform_rounds,
    generate_family,
    sample_strata,
)

__all__ = [
    "__version__",
    "Coefficients", "Degenerate", "MemoryState", "Race",
    "batch_estimate", "gmst_init", "gmst_step", "gst_estimate",
    "optimal_coefficients", "predicted_variance_vsp", "sgd_estimate",
    "stratified_variance", "trace_estimators", "unbiased_condition_holds",
    "variance_bound",
    "PopulationRound", "StratumStats", "Trend", "gen_normal_rounds",
    "gen_uniform_rounds", "generate_family", "sample_strata",
]
