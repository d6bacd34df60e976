"""Post-run analysis: schedule validation, statistics, trace tooling."""

from repro.analysis.validation import check_schedule
from repro.analysis.stats import (
    summarize_results,
    geometric_mean,
    jain_fairness_index,
    load_balance_index,
)
from repro.analysis.export import to_csv
from repro.analysis.bounds import makespan_bounds, efficiency_report, Bounds
from repro.analysis.ascii_plot import hbar_chart, grouped_bars, series_plot

__all__ = [
    "check_schedule",
    "summarize_results",
    "geometric_mean",
    "jain_fairness_index",
    "load_balance_index",
    "to_csv",
    "makespan_bounds",
    "efficiency_report",
    "Bounds",
    "hbar_chart",
    "grouped_bars",
    "series_plot",
]
