"""Stratified mean/gradient estimation with per-stratum memory.

Each module's docstring says what it holds and the rules its functions
share; README.md gives the layout, the CLI and the output formats.
"""

__version__ = "0.1.0"

from .estimators import (
    Race,
    blended_variance,
    gmst_estimate,
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
    "Race", "blended_variance", "gmst_estimate", "gst_estimate",
    "optimal_coefficients_elementwise", "trace_estimators",
    "PopulationRound", "Trend", "generate_family", "sample_strata",
]
