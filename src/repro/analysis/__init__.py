"""Experiment harness: runners, sweeps, tables, and Figure 1 regeneration."""

from .asciiplot import plot_series, sparkline
from .checkpoint import (
    SweepCheckpoint,
    make_key,
    record_from_jsonable,
    record_to_jsonable,
)
from .figure1 import Figure1Data, Figure1Measured, figure1_data, figure1_measured
from .fitting import (
    FitResult,
    fit_affine,
    fit_power_law,
    fit_theorem1_b_sweep,
    shape_report,
)
from .latex import escape, format_latex_series, format_latex_table
from .regression import Drift, capture_baseline, compare_to_baseline, measure_metrics
from .registry import EXPERIMENTS, Experiment, by_id, index_table
from .report import generate_report
from .runner import (
    RunRecord,
    RunTimeout,
    error_record,
    make_inputs,
    run_protocol,
    safe_run_protocol,
    wall_clock_limit,
)
from .statistics import (
    Summary,
    bootstrap_ci,
    geometric_mean,
    significantly_less,
    summarize,
)
from .sweep import (
    SweepPoint,
    aggregate,
    random_schedule_spec,
    run_point,
    sweep_b,
    sweep_f,
)
from .tables import format_series, format_table

__all__ = [
    "Drift",
    "EXPERIMENTS",
    "Experiment",
    "capture_baseline",
    "compare_to_baseline",
    "measure_metrics",
    "Figure1Data",
    "Figure1Measured",
    "FitResult",
    "by_id",
    "escape",
    "format_latex_series",
    "format_latex_table",
    "index_table",
    "RunRecord",
    "RunTimeout",
    "SweepCheckpoint",
    "error_record",
    "fit_affine",
    "fit_power_law",
    "fit_theorem1_b_sweep",
    "generate_report",
    "plot_series",
    "shape_report",
    "sparkline",
    "Summary",
    "SweepPoint",
    "aggregate",
    "bootstrap_ci",
    "geometric_mean",
    "significantly_less",
    "summarize",
    "figure1_data",
    "figure1_measured",
    "format_series",
    "format_table",
    "make_inputs",
    "make_key",
    "random_schedule_spec",
    "record_from_jsonable",
    "record_to_jsonable",
    "run_point",
    "run_protocol",
    "safe_run_protocol",
    "sweep_b",
    "sweep_f",
    "wall_clock_limit",
]
