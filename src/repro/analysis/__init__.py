"""Experiment harness: runners, sweeps, tables, and Figure 1 regeneration.

Names are imported on first access (see :mod:`repro._lazy`): a protocol
run needs :mod:`.runner` but not :mod:`.figure1`, :mod:`.fitting` or
:mod:`.report`, which load numpy and :mod:`repro.lowerbound`.
"""

from .._lazy import export_table, facade

_EXPORTS = export_table({
    "asciiplot": "plot_series sparkline",
    "families": "",
    "figure1": "Figure1Data Figure1Measured figure1_data figure1_measured",
    "fitting": "FitResult fit_power_law fit_theorem1_b_sweep",
    "latex": "escape format_latex_table",
    "regression": "Drift capture_baseline compare_to_baseline measure_metrics",
    "registry": "EXPERIMENTS Experiment index_table",
    "report": "generate_report",
    "runner": "RunRecord RunTimeout error_record make_inputs run_protocol "
              "safe_run_protocol wall_clock_limit",
    "sweep": "SweepPoint aggregate random_schedule_spec run_point sweep_b "
             "sweep_f",
    "tables": "format_series format_table",
})

#: The re-exported names; submodules stay out, as they always have.
__all__ = sorted(name for name, module in _EXPORTS.items() if name != module)

__getattr__, __dir__ = facade(__name__, _EXPORTS, globals())
