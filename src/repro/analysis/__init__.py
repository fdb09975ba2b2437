"""Analysis harness (system S24): stretch distributions, table
scaling sweeps, and the Fig. 1 regeneration entry point."""

from repro.analysis.experiments import (
    SchemeRow,
    ScalingPoint,
    assert_rows_sound,
    fig1_comparison,
    format_rows,
    log_log_slope,
    table_scaling,
)
from repro.analysis.report import generate_report
from repro.analysis.stretch import StretchDistribution, stretch_distribution

__all__ = [
    "SchemeRow",
    "ScalingPoint",
    "fig1_comparison",
    "format_rows",
    "assert_rows_sound",
    "table_scaling",
    "log_log_slope",
    "StretchDistribution",
    "generate_report",
    "stretch_distribution",
]
