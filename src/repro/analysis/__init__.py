"""Analysis utilities: statistics, yield-loss modelling, escape analysis."""

from .._lazy import lazy_exports
from .statistics import (StatisticsError, SummaryStatistics, Z_95,
                         gaussian_exceedance_probability, per_test_to_per_run,
                         percentile, proportion_ci, summarize)
from .yield_loss import (YieldLossPoint, analytic_yield_loss,
                         empirical_yield_loss, yield_loss_sweep)

__all__ = [
    "EscapeAnalysisResult", "EscapeRecord", "analyze_escapes",
    "StatisticsError", "SummaryStatistics", "YieldLossPoint", "Z_95", "analytic_yield_loss",
    "empirical_yield_loss", "gaussian_exceedance_probability",
    "per_test_to_per_run", "percentile", "proportion_ci", "summarize",
    "yield_loss_sweep",
]

# Only a study with an escape stage runs the escape analysis: loaded on first
# use.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".escape_analysis": ("EscapeAnalysisResult", "EscapeRecord",
                         "analyze_escapes")})
