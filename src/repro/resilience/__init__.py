"""Self-healing runtime: reliable transport, root failover, degradation.

Everything in this package runs *beyond* the paper's Section-2 model —
message loss and root crashes — and is strictly opt-in.  The in-model
simulator stays bit-exact when nothing here is enabled.

* :mod:`repro.resilience.transport` — windowed reliable local-broadcast
  shim (dedup, reorder buffering, NACK-driven retransmission with bounded
  exponential backoff); overhead booked separately from protocol CC.
* :mod:`repro.resilience.driver` — the one epoch driver behind failover,
  churn and the Byzantine defence: discard-and-retry epochs up to a
  budget, per-epoch reports and spans, and side-runs between epochs.
  :func:`drive_epochs` is the only way in; a per-family plan
  (:class:`FailoverPlan`, :class:`ChurnPlan`, :class:`ByzantinePlan`)
  validates its inputs when built, supplies everything that differs,
  and grades the finished run.
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

Names are imported on first access (see :mod:`repro._lazy`): a plain
run over the transport needs :mod:`.transport`, not the epoch runtimes.
"""

from .._lazy import export_table, facade

_EXPORTS = export_table({
    "byzantine": "AUDITABLE_CAAFS Accusation ByzantineConfig ByzantinePlan "
                 "Conviction EVICT_POLICIES WitnessCoordinator WitnessTap",
    "detector": "LEVEL_CONFIRM LEVEL_SUSPECT LEVEL_TRUST LEVELS AdaptiveRto "
                "PhiAccrualDetector PhiConfig SuspicionEvent",
    "driver": "EpochOutcome EpochReport RECOVERABLE_PROTOCOLS drive_epochs",
    "epochs": "ChurnPlan ChurnPolicy ContributionLedger HeartbeatTracker "
              "SNAP_KIND SNAP_REQ_KIND SnapshotStore neutral_input",
    "failover": "ELECT_KIND ElectionNode ElectionReport FailoverPlan "
                "RecoveryPolicy",
    "partial": "PartialAggregateResult STATUS_EXACT STATUS_FAILED "
               "STATUS_PARTIAL certify",
    "transport": "FRAME_KIND NACK_KIND RTO_MODES TRANSPORT_KINDS "
                 "ReliableTransport TransportConfig TransportGap "
                 "TransportNode as_transport overlay_network",
})

#: The re-exported names; submodules stay out, as they always have.
__all__ = sorted(name for name, module in _EXPORTS.items() if name != module)

__getattr__, __dir__ = facade(__name__, _EXPORTS, globals())
