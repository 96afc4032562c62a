"""Churn-tolerant epochs: the exactly-once plan of the epoch driver.

:mod:`repro.resilience.failover` heals the run when the *root* dies; this
module heals it when ordinary nodes **come back**.  The paper's crash-stop
model has no rejoin — a crashed node is gone — so everything here is
opt-in, out-of-model machinery in the spirit of the crash-recovery /
anti-entropy literature (Flow Updating, gossip re-aggregation).  Its
:class:`ChurnPlan` tells :func:`repro.resilience.driver.drive_epochs`
what differs under churn:

* **The next epoch's world.**  Every epoch runs the protocol over the
  full topology, under a :class:`repro.families.churn.ChurnSchedule` view
  rebased to the driver's global clock
  (:meth:`~repro.families.churn.ChurnSchedule.shifted`).  Nodes that crash
  mid-epoch fall silent exactly as the model prescribes; durable
  rejoiners resume with their persisted state, amnesiac rejoiners only
  heartbeat (:class:`repro.resilience.transport.AmnesiacInner`) until the
  next epoch re-admits them.  Inputs already booked (or lost) are
  **neutralized to the CAAF identity**, so a rejoined node is never
  double-counted.  A :class:`HeartbeatTracker` injector flags a node
  down after ``HEARTBEAT_GAP`` silent transport windows and up again on
  its first frame: **membership is detected, not assumed** (falling back
  to network liveness when no transport — hence no heartbeat stream — is
  configured).
* **The verdict.**  An epoch's output is certified by matching it
  against aggregates over contributor subsets (the paper's footnote-6
  machinery: survivors are required, churned nodes optional); matched
  contributors are booked once in the :class:`ContributionLedger` under
  a ``(node_id, incarnation)`` nonce.  An output that matches no subset
  is discarded and rerun; nothing from it is booked.  The run is done
  when no live contribution is left pending.
* **Between epochs.**  Amnesiac recovery rides a neighbour anti-entropy
  :class:`SnapshotStore`: before epoch 1 every node announces its input
  to its neighbours (an unclocked driver side-run), and an amnesiac
  rejoiner re-fetches its contribution from a neighbour still holding
  the snapshot via a bounded request/reply side-run.  Announce and
  rejoin traffic is overhead, never protocol CC.  A contribution is
  *lost* only when no copy survives — every holder crashed for good or
  lost its own state — and then the run degrades to a certified partial
  whose ``missing`` set names the node, never a silently wrong value.
  A node whose holders are down but will revive durably stays pending.

The :class:`repro.families.churn.DoubleCountOracle` audits the final claim:
``double-count`` fires if any nonce was booked twice or the certified
value disagrees with its claimed coverage; ``lost-contribution`` fires if
a contribution with a surviving copy is missing from the coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..adversary.schedule import FailureSchedule
from ..graphs.topology import Topology
from ..obs import spans as _spans
from ..families.churn import REJOIN_AMNESIAC, ChurnSchedule, DoubleCountOracle
from ..sim.faults import FaultInjector
from ..sim.message import Part, TAG_BITS, id_bits, value_bits
from ..sim.network import Network, ROOT_CRASH_ERROR
from ..sim.node import NodeHandler
from ..sim.specs import JsonFields
from .driver import (
    DONE,
    FAIL,
    NEXT,
    RETRY,
    EpochWorld,
    shift_crash_map,
    whole_run_oracle,
)
from .partial import certify
from .transport import TransportConfig

#: Wire kinds of the anti-entropy mini-protocols.
SNAP_KIND = "churn_snap"
SNAP_REQ_KIND = "churn_req"

#: Largest number of churned (hence coverage-optional) contributors per
#: epoch the subset-matching certifier will enumerate (2**16 subsets).
MAX_OPTIONAL_CONTRIBUTORS = 16


def neutral_input(caaf) -> int:
    """A raw input that a booked node can submit without contributing.

    Later epochs re-run the protocol with already-booked nodes'
    inputs replaced by this value; it must *prepare* to the CAAF's
    identity so the epoch aggregate only carries unbooked contributions.
    SUM/MAX/OR/XOR/GCD use 0, AND uses 1, MIN its sentinel — COUNT has no
    such input (every node prepares to 1) and cannot be re-aggregated
    across epochs.
    """
    candidate = caaf.identity
    try:
        ok = caaf.prepare(candidate) == caaf.identity
    except Exception:
        ok = False
    if not ok:
        raise ValueError(
            f"churn re-aggregation needs an input that prepares to the "
            f"{caaf.name} identity element; none exists (e.g. COUNT books "
            "every node as 1, so booked nodes cannot be neutralized)"
        )
    return candidate


#: Transport windows of silence before the heartbeat tracker presumes a
#: node down.
HEARTBEAT_GAP = 2


@dataclass(frozen=True)
class ChurnPolicy(JsonFields):
    """What the churn-tolerant runtime is allowed to do.

    Attributes:
        transport: Reliable-transport config for every epoch and the
            anti-entropy side-runs; ``None`` runs the raw network (then
            heartbeats are unavailable and membership falls back to
            network liveness).
        max_epochs: Total protocol epochs (first run included).
    """

    transport: Optional[TransportConfig] = None
    max_epochs: int = 4

    # Older bundles carry two retired knobs; only their fixed values can
    # be replayed faithfully.
    RETIRED = {"heartbeat_gap": HEARTBEAT_GAP, "snapshots": True}

    def __post_init__(self) -> None:
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")

    @classmethod
    def default(cls, retransmit_budget: int = 5) -> "ChurnPolicy":
        """The CLI's ``--churn`` stack: reliable transport + snapshots.

        The same retransmit budget as :meth:`RecoveryPolicy.default` —
        every observed frame loss at the chaos harness's reference rates
        stays recoverable, so certification failures mean churn, not
        transport noise.
        """
        return cls(transport=TransportConfig(retransmits=retransmit_budget))


class ContributionLedger:
    """Exactly-once booking of leaf contributions by nonce.

    One entry per node, keyed by ``(node_id, incarnation)``; a second
    booking attempt for the same node is *refused* and remembered in
    :attr:`double_booked` — the :class:`DoubleCountOracle` turns any such
    record into a ``double-count`` verdict.
    """

    def __init__(self) -> None:
        #: node -> (node, incarnation, prepared value), in booking order.
        self._entries: Dict[int, Tuple[int, int, int]] = {}
        #: Refused second bookings, as ``(node, incarnation, value)``.
        self.double_booked: List[Tuple[int, int, int]] = []

    def book(self, node: int, incarnation: int, value: int) -> bool:
        """Book one contribution; False (and a record) if already booked."""
        if node in self._entries:
            self.double_booked.append((node, incarnation, value))
            return False
        self._entries[node] = (node, incarnation, value)
        return True

    def booked(self, node: int) -> bool:
        return node in self._entries

    @property
    def booked_nodes(self) -> Set[int]:
        return set(self._entries)

    def as_entries(self) -> List[Tuple[int, int, int]]:
        """All booked ``(node, incarnation, value)`` nonces, by node id."""
        return [self._entries[node] for node in sorted(self._entries)]

    def __len__(self) -> int:
        return len(self._entries)


class SnapshotStore:
    """Neighbour anti-entropy caches: who still holds whose contribution.

    Seeded by the round-0 announce; a holder that amnesiac-rejoins loses
    its whole cache (its memory died with the old incarnation).
    """

    def __init__(self) -> None:
        #: holder -> {node: raw input value}.
        self._caches: Dict[int, Dict[int, int]] = {}

    def seed(self, holder: int, node: int, value: int) -> None:
        self._caches.setdefault(holder, {})[node] = value

    def drop_holder(self, holder: int) -> None:
        """An amnesiac rejoin wipes the holder's cache."""
        self._caches.pop(holder, None)

    def cache_of(self, holder: int) -> Dict[int, int]:
        return dict(self._caches.get(holder, {}))

    def holders_of(self, node: int) -> List[int]:
        """Holders still caching ``node``'s contribution, by id."""
        return sorted(
            holder
            for holder, cache in self._caches.items()
            if node in cache
        )


class HeartbeatTracker(FaultInjector):
    """Observed membership: down after a silent gap, up on the next frame.

    Purely observational — it watches physical broadcasts (under the
    reliable transport every live node emits at least one frame per
    window, so silence is meaningful) and records deterministic
    transitions the epoch orchestrator uses instead of peeking at the
    fault schedule.
    """

    def __init__(self, gap_rounds: int) -> None:
        super().__init__()
        if gap_rounds < 1:
            raise ValueError(f"gap_rounds must be >= 1, got {gap_rounds}")
        self.gap_rounds = gap_rounds
        self._last_seen: Dict[int, int] = {}
        self._down: Set[int] = set()
        #: Observed transitions: ``(round, node, "down" | "up")``.
        self.transitions: List[Tuple[int, int, str]] = []

    def attach(self, network) -> None:
        super().attach(network)
        for node in network.adjacency:
            self._last_seen.setdefault(node, 0)

    def on_broadcast(self, rnd: int, node: int, parts, bits: int) -> None:
        self._last_seen[node] = rnd
        if node in self._down:
            self._down.discard(node)
            self.transitions.append((rnd, node, "up"))

    def end_round(self, rnd: int) -> None:
        for node, seen in self._last_seen.items():
            if node not in self._down and rnd - seen >= self.gap_rounds:
                self._down.add(node)
                self.transitions.append((rnd, node, "down"))

    def down_now(self) -> Set[int]:
        """Nodes currently presumed down."""
        return set(self._down)


class SnapshotNode(NodeHandler):
    """Anti-entropy side-run node: announce, request and serve snapshots.

    In the round-0 announce every node broadcasts its input and caches
    what its neighbours announce (:attr:`heard`).  In a rejoin handshake
    requesters broadcast a ``SNAP_REQ`` naming themselves, every live
    neighbour still caching their snapshot replies with the value, and
    the requester adopts the first reply (inbox order is deterministic).
    """

    def __init__(
        self,
        node_id: int,
        snap_bits: int,
        req_bits: int,
        *,
        announce: Optional[int] = None,
        requesting: bool = False,
        cache: Optional[Dict[int, int]] = None,
    ) -> None:
        self.node_id = node_id
        self.snap_bits = snap_bits
        self.req_bits = req_bits
        self.announce = announce
        self.requesting = requesting
        self.cache = dict(cache or {})
        #: Snapshots heard: node -> raw value.
        self.heard: Dict[int, int] = {}
        #: The recovered raw input (None until a reply lands).
        self.recovered: Optional[int] = None
        self._replies_due: List[Tuple[int, int]] = []

    def on_round(self, rnd: int, inbox) -> List[Part]:
        for envelope in inbox:
            for part in envelope.parts:
                if part.kind == SNAP_REQ_KIND:
                    (who,) = part.payload
                    if who in self.cache:
                        self._replies_due.append((who, self.cache[who]))
                elif part.kind == SNAP_KIND:
                    node, value = part.payload
                    self.heard.setdefault(node, value)
                    if node == self.node_id and self.requesting:
                        self.recovered = self.heard[node]
        out: List[Part] = []
        if rnd == 1 and self.announce is not None:
            out.append(Part(SNAP_KIND, (self.node_id, self.announce), self.snap_bits))
        if rnd == 1 and self.requesting:
            out.append(Part(SNAP_REQ_KIND, (self.node_id,), self.req_bits))
        due, self._replies_due = sorted(set(self._replies_due)), []
        for node, value in due:
            out.append(Part(SNAP_KIND, (node, value), self.snap_bits))
        return out

    def wants_to_stop(self) -> bool:
        return False


def _ever_down(network: Network, node: int, rounds: int) -> bool:
    """Whether ``node`` was down at any executed round of this epoch."""
    if network.crash_rounds.get(node, float("inf")) <= rounds:
        return True
    return any(
        start <= rounds
        for start, _end in network.down_intervals.get(node, ())
    )


def _match_contributors(
    caaf,
    value: int,
    required: Sequence[int],
    optional: Sequence[int],
    prepared: Dict[int, int],
) -> Optional[Tuple[int, ...]]:
    """Find contributors whose aggregate certifies ``value``.

    ``required`` nodes stayed up and root-connected all epoch, so a
    correct crash-tolerant protocol must have included them; ``optional``
    nodes churned mid-epoch and may or may not have landed.  Enumerates
    optional subsets largest-first (footnote-6 style) and returns the
    first — hence deterministic — match, or ``None``: no matching subset
    means the output cannot be certified against any honest coverage.
    """
    base = [prepared[u] for u in required]
    opts = sorted(optional)
    for k in range(len(opts), -1, -1):
        for extra in combinations(opts, k):
            if caaf.combine(base + [prepared[u] for u in extra]) == value:
                return tuple(sorted(set(required) | set(extra)))
    return None


class ChurnPlan:
    """Exactly-once re-aggregation under churn as an epoch plan.

    Epochs run until every live contribution is booked (or provably
    lost), the epoch budget runs out, or an epoch output defies
    certification; the run ends with the :class:`DoubleCountOracle`
    audit (the caller's, found among ``monitors``, or a fresh one in
    ``mode``).  The certificate's coverage is the union of all booked
    contributions; its value is the CAAF-combine of the per-epoch
    outputs, which equals the aggregate over the coverage by
    construction of the nonce ledger.
    """

    family = "churn"
    # The per-run termination oracle grades one full protocol execution
    # against the full input set; later epochs run on neutralized inputs,
    # so it (and the churn oracle itself) stays out of the epoch stack —
    # the ledger certification is the churn-path authority.
    whole_run_rules = ("oracle", "exactly-once")
    discards_as_overhead = False

    def __init__(
        self,
        topology: Topology,
        inputs: Dict[int, int],
        churn: ChurnSchedule,
        schedule: Optional[FailureSchedule] = None,
        *,
        f: Optional[int] = None,
        caaf=None,
        policy: Optional[ChurnPolicy] = None,
        monitors: Sequence = (),
        mode: str = "record",
    ) -> None:
        from ..core.caaf import SUM

        if topology.root in churn.cycles and not churn.allow_root_crash:
            raise ValueError(ROOT_CRASH_ERROR)
        self.caaf = caaf or SUM
        self.neutral = neutral_input(self.caaf)
        policy = policy or ChurnPolicy.default()
        #: Every epoch's and side-run's transport.
        self.max_epochs, self.transport = policy.max_epochs, policy.transport
        self.topology, self.inputs, self.churn = topology, inputs, churn
        self.schedule = schedule or FailureSchedule()
        self.f = f
        self.oracle, self.monitors = whole_run_oracle(
            monitors, DoubleCountOracle, inputs, caaf=self.caaf, mode=mode
        )
        self.ledger = ContributionLedger()
        self.store = SnapshotStore()
        self.lost: Set[int] = set()
        self.recovered: Set[int] = set()
        #: Amnesiac rejoiners whose handshake failed while a holder of
        #: their snapshot survived: pending, but with no input to submit.
        self.unrecovered: Set[int] = set()
        self.handshakes = 0
        self.epoch_values: List[int] = []
        self.certified = True
        self.reason = "clean"
        self.budget_exhausted = False
        self.tracker: Optional[HeartbeatTracker] = None
        self.all_nodes = sorted(topology.nodes())
        self.prepared = {
            u: self.caaf.prepare(inputs[u]) for u in self.all_nodes
        }
        #: Bits of a snapshot request ``(node)`` and of a snapshot
        #: ``(node, value)`` on the anti-entropy side-runs.
        self.req_bits = TAG_BITS + id_bits(max(self.all_nodes) + 1)
        self.snap_bits = self.req_bits + value_bits(
            max(1, max(inputs.values(), default=1))
        )

    def _open(self, node: int) -> bool:
        """Whether ``node``'s input still has to be aggregated."""
        return not (
            self.ledger.booked(node)
            or node in self.lost
            or node in self.unrecovered
        )

    def world(self, epoch: int, run, transport) -> EpochWorld:
        if epoch == 1:
            handlers = self._snapshot_run(run, 2, announce=True)
            for holder in self.topology.nodes():
                for node, value in handlers[holder].heard.items():
                    self.store.seed(holder, node, value)
        self.tracker = (
            HeartbeatTracker(HEARTBEAT_GAP * transport.window)
            if transport
            else None
        )
        inputs = {
            u: self.inputs[u] if self._open(u) else self.neutral
            for u in self.all_nodes
        }
        crashes = dict(self.schedule.crash_rounds)
        return EpochWorld(
            self.topology,
            inputs,
            FailureSchedule(
                shift_crash_map(crashes, run.elapsed, self.all_nodes)
                if run.elapsed
                else crashes
            ),
            self.f,
            # A fresh shifted view keeps the caller's schedule pristine
            # (revive logs and incarnation bases mutate per epoch).
            injectors=(self.churn.shifted(run.elapsed),)
            + ((self.tracker,) if self.tracker else ()),
            attrs={"contributors": sum(map(self._open, self.all_nodes))},
        )

    def judge(self, report, out, run, last: bool) -> str:
        network, elapsed, v_e = out.network, run.elapsed, out.result
        # Amnesiac rejoins (observed or enacted) void the holder's cache.
        for rnd_g, node, mode in self.churn.revive_events():
            if rnd_g <= elapsed and mode == REJOIN_AMNESIAC:
                self.store.drop_holder(node)
        if v_e is None:
            if not last:
                return RETRY
            return self._fail(f"epoch {report.epoch} produced no output")

        # ---- certify the epoch output against contributor subsets ---- #
        contributors = [u for u in self.all_nodes if self._open(u)]
        down = {
            u for u in self.all_nodes if not network.is_alive(u, out.rounds)
        }
        component = self.topology.alive_component(down)
        required = [
            u
            for u in contributors
            if not _ever_down(network, u, out.rounds) and u in component
        ]
        optional = [u for u in contributors if u not in required]
        if len(optional) > MAX_OPTIONAL_CONTRIBUTORS:
            return self._fail(
                f"epoch {report.epoch}: {len(optional)} churned contributors "
                f"exceed the {MAX_OPTIONAL_CONTRIBUTORS}-node "
                "certification cap",
                v_e,
            )
        matched = _match_contributors(
            self.caaf, v_e, required, optional, self.prepared
        )
        if matched is None:
            if not last:
                return RETRY
            return self._fail(
                f"epoch {report.epoch} output {v_e} matches no contributor "
                "subset (uncertifiable coverage)",
                v_e,
            )
        self.epoch_values.append(v_e)
        for u in matched:
            self.ledger.book(
                u, self.churn.incarnation_at(u, elapsed), self.prepared[u]
            )
        if _spans.enabled:
            _spans.active().event(
                "epoch.booked",
                cat="epoch",
                tid=self.topology.root,
                round=elapsed,
                epoch=report.epoch,
                booked=len(matched),
            )

        # ---- decide whether another epoch is needed ------------------- #
        down_end = self.tracker.down_now() if self.tracker is not None else down
        unbooked = [
            u
            for u in self.all_nodes
            if not self.ledger.booked(u) and u not in self.lost
        ]
        pending_now = [u for u in unbooked if u not in down_end]
        view = self.churn.shifted(elapsed)
        pending_later = [
            u
            for u in unbooked
            if u in down_end
            and any(
                revive_r is not None
                for _c, revive_r, _m in view.cycles.get(u, ())
            )
        ]
        report.booked = matched
        report.pending = tuple(sorted(pending_now + pending_later))
        if not pending_now and not pending_later:
            return DONE
        if last:
            self.budget_exhausted = True
            self.reason = "churn epoch budget exhausted"
            return DONE

        # ---- rejoin handshake for amnesiac pending nodes -------------- #
        needs_recovery = [
            u
            for u in pending_now
            if u not in self.recovered
            and any(
                revive_r is not None
                and revive_r <= elapsed
                and mode == REJOIN_AMNESIAC
                for _c, revive_r, mode in self.churn.cycles.get(u, ())
            )
        ]
        if needs_recovery:
            self.handshakes += 1
            handlers = self._snapshot_run(
                run, 3, requesters=needs_recovery, down=down
            )
            for u in needs_recovery:
                if u not in down and handlers[u].recovered is not None:
                    self.recovered.add(u)
                    self.unrecovered.discard(u)
                elif self.surviving_holders(u, run.elapsed):
                    self.unrecovered.add(u)
                else:
                    self.lost.add(u)
        return NEXT

    def _fail(self, reason: str, value: Optional[int] = None) -> str:
        """Stop on an epoch nothing can certify; its value still counts."""
        self.certified, self.reason = False, reason
        if value is not None:
            self.epoch_values.append(value)
        return FAIL

    def surviving_holders(self, node: int, now: int) -> List[int]:
        """Holders still keeping ``node``'s snapshot at global round ``now``.

        A holder keeps its copy unless it crashed for good, or an amnesiac
        rejoin wiped (or, while it is still down, will wipe) its cache.
        A holder that is down but will revive durably still keeps it.
        """

        def keeps_copy(holder: int) -> bool:
            if self.schedule.crash_rounds.get(holder, float("inf")) <= now:
                return False
            return not any(
                crash_r <= now and (revive_r is None or mode == REJOIN_AMNESIAC)
                for crash_r, revive_r, mode in self.churn.cycles.get(holder, ())
            )

        return [h for h in self.store.holders_of(node) if keeps_copy(h)]

    def _snapshot_run(
        self,
        run,
        logical_rounds: int,
        *,
        announce: bool = False,
        requesters: Sequence[int] = (),
        down: Set[int] = frozenset(),
    ) -> Dict[int, SnapshotNode]:
        """One anti-entropy side-run: the round-0 announce (off the churn
        clock) or a rejoin handshake with ``down`` nodes crashed."""
        handlers = {
            u: SnapshotNode(
                u,
                self.snap_bits,
                self.req_bits,
                announce=self.inputs[u] if announce else None,
                requesting=u in requesters,
                cache=self.store.cache_of(u),
            )
            for u in self.topology.nodes()
        }
        run.side_run(
            self.topology,
            handlers,
            {u: 1 for u in down},
            logical_rounds,
            clocked=not announce,
            transport=self.transport,
        )
        return handlers

    def certify(self, run):
        value = (
            self.caaf.combine(self.epoch_values) if self.epoch_values else None
        )
        certified, reason, lost = self.certified, self.reason, self.lost
        if value is not None and run.live_gaps:
            certified = False
            reason += f"; {run.live_gaps} unexcused transport gap(s)"
        if lost and certified:
            why = f"{len(lost)} contribution(s) lost (no surviving snapshot copy)"
            reason = f"{reason}; {why}" if reason != "clean" else why
        transports = run.transports
        extra: Dict[str, int] = {
            "epochs_discarded": sum(1 for e in run.epochs if e.discarded),
            "handshakes": self.handshakes,
            "snapshots_recovered": len(self.recovered),
            "contributions_lost": len(lost),
            "rejoins_durable": sum(t.rejoins_durable for t in transports),
            "rejoins_amnesiac": sum(t.rejoins_amnesiac for t in transports),
            "stale_nacks": sum(t.stale_nacks for t in transports),
        }
        run.partial = certify(
            value,
            all_nodes=self.all_nodes,
            covered=self.ledger.booked_nodes,
            inputs=self.inputs,
            caaf=self.caaf,
            certified=certified,
            reason=reason,
            epochs=len(run.epochs),
            overhead_bits=run.stats.max_overhead_bits,
            live_gaps=run.live_gaps,
            incarnations={
                node: inc for node, inc, _value in self.ledger.as_entries()
            },
            extra=extra,
        )
        self._audit(run.partial, run)

    def _audit(self, partial, run) -> None:
        """Grade the ledger and the final claim with the churn oracle."""
        self.oracle.grade_ledger(
            self.ledger.as_entries(), self.ledger.double_booked
        )
        # A lost contribution with a surviving copy, or a live pending
        # node left unbooked while epochs remained, is a real violation;
        # a certified-partial after budget exhaustion is honest.
        recoverable = {
            u for u in self.lost if self.surviving_holders(u, run.elapsed)
        }
        if not self.budget_exhausted and partial.certified:
            network = run.network
            recoverable |= {
                u
                for u in self.all_nodes
                if not self.ledger.booked(u)
                and u not in self.lost
                and network.is_alive(u, network.round)
            }
        self.oracle.grade_final(
            partial.value,
            partial.coverage,
            partial.certified,
            recoverable=recoverable,
        )


    def grade(self, run) -> Tuple[int, bool, Dict[str, int]]:
        oracle = self.oracle
        return 0, oracle.double_counts == 0, {
            "double_counted": oracle.double_counts,
            "lost_contributions": oracle.lost_contributions,
        }
