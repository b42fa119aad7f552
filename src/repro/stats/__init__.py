"""Statistics used by the evaluation harness.

Implemented from scratch (and cross-checked against scipy in the test
suite): Efron's bootstrap for standard errors and confidence intervals
(Table 3's ``± SE`` columns), the one-tailed Mann-Whitney U test (Table 3's
significance claim), and ordinary least squares with slope standard error
(Coz's profile ranking metric).
"""

from repro import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, {
    "repro.stats.bootstrap": ("bootstrap_ci", "bootstrap_se", "speedup_stats"),
    "repro.stats.mannwhitney": ("mann_whitney_u",),
    "repro.stats.rankcorr": ("RankCorrelation", "rank_correlation", "top_k_disagreement"),
    "repro.stats.regression": ("linear_regression",),
})

__all__ = [
    "bootstrap_ci",
    "bootstrap_se",
    "speedup_stats",
    "mann_whitney_u",
    "linear_regression",
    "RankCorrelation",
    "rank_correlation",
    "top_k_disagreement",
]
