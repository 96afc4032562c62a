"""Self-healing runtime: reliable transport, root failover, degradation.

Everything in this package runs *beyond* the paper's Section-2 model —
message loss and root crashes — and is strictly opt-in.  The in-model
simulator stays bit-exact when nothing here is enabled.

* :mod:`repro.resilience.transport` — windowed reliable local-broadcast
  shim (dedup, reorder buffering, NACK-driven retransmission with bounded
  exponential backoff); overhead booked separately from protocol CC.
* :mod:`repro.resilience.driver` — the one epoch driver behind failover,
  churn and the Byzantine defence: discard-and-retry epochs up to a
  budget, per-epoch reports and spans, side-runs between epochs, and a
  per-family plan for everything that differs.
* :mod:`repro.resilience.failover` — deterministic root failover: bounded
  min-id flood elects the lowest-id live neighbour of a dead root and the
  protocol restarts in a new epoch on the surviving component.
* :mod:`repro.resilience.partial` — graceful degradation to
  :class:`PartialAggregateResult`: certified coverage sets, deterministic
  error bounds, machine-readable health status.
* :mod:`repro.resilience.epochs` — churn-tolerant epochs: crash-recovery
  rejoins (durable / amnesiac), heartbeat membership detection, neighbour
  anti-entropy snapshots, and exactly-once re-aggregation booked under
  ``(node_id, incarnation)`` nonces.
* :mod:`repro.resilience.detector` — gray-failure detection: φ-accrual
  graded suspicion (trust / suspect / confirm) from frame inter-arrival
  samples, and per-link adaptive retransmission timeouts (EWMA RTT with
  Karn-style sample exclusion).
* :mod:`repro.resilience.byzantine` — Byzantine defense: witness-based
  cross-validation of sub-aggregate claims, accusation/conviction from
  authenticated contradictory frames, eviction through discard-and-retry
  epochs, and influence-bounded certification (|error| <= b * v_max).
"""

from .byzantine import (
    AUDITABLE_CAAFS,
    Accusation,
    ByzantineConfig,
    Conviction,
    EVICT_POLICIES,
    WitnessCoordinator,
    WitnessTap,
    run_with_byzantine,
)

from .detector import (
    LEVEL_CONFIRM,
    LEVEL_SUSPECT,
    LEVEL_TRUST,
    LEVELS,
    AdaptiveRto,
    PhiAccrualDetector,
    PhiConfig,
    SuspicionEvent,
)
from .partial import (
    PartialAggregateResult,
    STATUS_EXACT,
    STATUS_FAILED,
    STATUS_PARTIAL,
    certify,
)
from .transport import (
    FRAME_KIND,
    NACK_KIND,
    RTO_MODES,
    TRANSPORT_KINDS,
    ReliableTransport,
    TransportConfig,
    TransportGap,
    TransportNode,
    as_transport,
    overlay_network,
)
from .driver import (
    EpochOutcome,
    EpochReport,
    RECOVERABLE_PROTOCOLS,
    drive_epochs,
)
from .failover import (
    ELECT_KIND,
    ElectionNode,
    ElectionReport,
    RecoveryPolicy,
    run_with_recovery,
)
from .epochs import (
    ChurnPolicy,
    ContributionLedger,
    HeartbeatTracker,
    SNAP_KIND,
    SNAP_REQ_KIND,
    SnapshotStore,
    neutral_input,
    run_with_churn,
)

__all__ = [
    "AUDITABLE_CAAFS",
    "Accusation",
    "AdaptiveRto",
    "ByzantineConfig",
    "Conviction",
    "EVICT_POLICIES",
    "WitnessCoordinator",
    "WitnessTap",
    "run_with_byzantine",
    "ChurnPolicy",
    "ContributionLedger",
    "HeartbeatTracker",
    "SNAP_KIND",
    "SNAP_REQ_KIND",
    "SnapshotStore",
    "neutral_input",
    "run_with_churn",
    "ELECT_KIND",
    "ElectionNode",
    "ElectionReport",
    "EpochOutcome",
    "EpochReport",
    "FRAME_KIND",
    "LEVEL_CONFIRM",
    "LEVEL_SUSPECT",
    "LEVEL_TRUST",
    "LEVELS",
    "NACK_KIND",
    "PartialAggregateResult",
    "PhiAccrualDetector",
    "PhiConfig",
    "RECOVERABLE_PROTOCOLS",
    "RTO_MODES",
    "RecoveryPolicy",
    "ReliableTransport",
    "SuspicionEvent",
    "STATUS_EXACT",
    "STATUS_FAILED",
    "STATUS_PARTIAL",
    "TRANSPORT_KINDS",
    "TransportConfig",
    "TransportGap",
    "TransportNode",
    "as_transport",
    "certify",
    "drive_epochs",
    "overlay_network",
    "run_with_recovery",
]
