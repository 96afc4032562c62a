"""Synchronous local-broadcast network simulator (the paper's model)."""

from .faults import FaultCounts, FaultInjector, MessageFaults, ScheduledCrashes
from .flooding import FloodManager
from .message import TAG_BITS, Envelope, Part, id_bits, total_bits, value_bits
from .monitors import (
    CCEnvelopeMonitor,
    FBudgetMonitor,
    InvariantViolation,
    Monitor,
    MonitorEvent,
    OracleMonitor,
    RootSafetyMonitor,
    standard_monitors,
    theorem1_cc_envelope,
    violations_of,
)
from .network import NEVER, ROOT_CRASH_ERROR, Network
from .node import NodeHandler
from .recorder import (
    BUNDLE_FORMAT,
    BUNDLE_VERSION,
    ExecutionRecord,
    RecordingError,
    RecordingInjector,
    is_failure,
    make_execution_record,
    serialize_topology,
)
from .replay import ReplayDivergence, ReplayInjector, ReplayOutcome, replay_bundle
from .stats import SimStats
from .trace import CrashEvent, DeliverEvent, SendEvent, SendTracer, Tracer
from .validation import Violation, assert_model, validate_model

__all__ = [
    "BUNDLE_FORMAT",
    "BUNDLE_VERSION",
    "CCEnvelopeMonitor",
    "CrashEvent",
    "DeliverEvent",
    "Envelope",
    "ExecutionRecord",
    "RecordingError",
    "RecordingInjector",
    "ReplayDivergence",
    "ReplayInjector",
    "ReplayOutcome",
    "ROOT_CRASH_ERROR",
    "is_failure",
    "make_execution_record",
    "replay_bundle",
    "serialize_topology",
    "FBudgetMonitor",
    "FaultCounts",
    "FaultInjector",
    "FloodManager",
    "InvariantViolation",
    "MessageFaults",
    "Monitor",
    "MonitorEvent",
    "NEVER",
    "Network",
    "NodeHandler",
    "OracleMonitor",
    "Part",
    "RootSafetyMonitor",
    "ScheduledCrashes",
    "SendEvent",
    "SendTracer",
    "SimStats",
    "TAG_BITS",
    "Tracer",
    "Violation",
    "assert_model",
    "id_bits",
    "standard_monitors",
    "theorem1_cc_envelope",
    "validate_model",
    "total_bits",
    "value_bits",
    "violations_of",
]
