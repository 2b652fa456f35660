"""Analysis utilities: statistics, yield-loss modelling, escape analysis."""

from .escape_analysis import (EscapeAnalysisResult, EscapeRecord,
                              analyze_escapes)
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
