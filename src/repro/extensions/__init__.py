"""Extensions built on the paper's protocols: quantiles and monitoring."""

from .monitoring import (
    EpochResult,
    MonitoringOutcome,
    drifting_inputs,
    run_monitoring,
)
from .quantiles import (
    QueryOutcome,
    distributed_average,
    distributed_median,
    distributed_select,
    probe_budget,
)

__all__ = [
    "EpochResult",
    "MonitoringOutcome",
    "QueryOutcome",
    "distributed_average",
    "distributed_median",
    "distributed_select",
    "drifting_inputs",
    "probe_budget",
    "run_monitoring",
]
