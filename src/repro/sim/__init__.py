"""Synchronous local-broadcast network simulator (the paper's model).

Names are imported on first access (see :mod:`repro._lazy`): a protocol
run needs :mod:`.network` and its monitors, not the bundle recorder,
replay, the tracers or the model validator.
"""

from .._lazy import export_table, facade

_EXPORTS = export_table({
    "faults": "FaultCounts FaultInjector MessageFaults ScheduledCrashes",
    "flooding": "FloodManager",
    "message": "TAG_BITS Envelope Part id_bits total_bits value_bits",
    "monitors": "CCEnvelopeMonitor FBudgetMonitor InvariantViolation Monitor "
                "MonitorEvent OracleMonitor RootSafetyMonitor "
                "standard_monitors theorem1_cc_envelope violations_of",
    "network": "NEVER ROOT_CRASH_ERROR Network",
    "node": "NodeHandler",
    "recorder": "BUNDLE_FORMAT BUNDLE_VERSION ExecutionRecord RecordingError "
                "RecordingInjector make_execution_record serialize_topology",
    "replay": "ReplayDivergence ReplayInjector ReplayOutcome replay_bundle",
    "specs": "",
    "stats": "SimStats",
    "trace": "CrashEvent DeliverEvent SendEvent SendTracer Tracer",
    "validation": "Violation assert_model validate_model",
})

#: The re-exported names; submodules stay out, as they always have.
__all__ = sorted(name for name, module in _EXPORTS.items() if name != module)

__getattr__, __dir__ = facade(__name__, _EXPORTS, globals())
