"""Churn-tolerant epochs: exactly-once re-aggregation under crash-recovery.

:mod:`repro.resilience.failover` heals the run when the *root* dies; this
module heals it when ordinary nodes **come back**.  The paper's crash-stop
model has no rejoin — a crashed node is gone — so everything here is
opt-in, out-of-model machinery in the spirit of the crash-recovery /
anti-entropy literature (Flow Updating, gossip re-aggregation):

* An **epoch** is one full protocol run over the full topology, executed
  under a :class:`repro.sim.faults.ChurnSchedule` view rebased to the
  epoch's local clock (:meth:`~repro.sim.faults.ChurnSchedule.shifted` —
  the same shifting idiom failover uses between its epochs).  Nodes that
  crash mid-epoch fall silent exactly as the model prescribes; durable
  rejoiners resume with their persisted state, amnesiac rejoiners only
  heartbeat (:class:`repro.resilience.transport.AmnesiacInner`) until the
  next epoch boundary re-admits them.
* **Membership changes are detected, not assumed**: a
  :class:`HeartbeatTracker` injector watches physical broadcasts and
  flags a node down after ``heartbeat_gap`` silent transport windows, up
  again on its first frame.  The orchestrator decides re-aggregation
  from these observed transitions (falling back to network liveness when
  no transport — hence no heartbeat stream — is configured).
* **Exactly-once contribution accounting**: every booked leaf
  contribution carries a ``(node_id, incarnation)`` nonce in the
  :class:`ContributionLedger`.  An epoch's output is certified by
  matching it against aggregates over contributor subsets (the paper's
  footnote-6 machinery: survivors are required, churned nodes optional),
  and matched contributors are booked once; later epochs re-run the
  protocol with booked nodes' inputs **neutralized to the CAAF
  identity**, so a rejoined node is never double-counted — and never
  dropped, because it stays pending until booked or provably lost.
* **Amnesiac recovery** rides a neighbour anti-entropy
  :class:`SnapshotStore`: before epoch 1 every node announces its input
  to its neighbours over the reliable transport (a round-0 preprocessing
  broadcast); an amnesiac rejoiner re-fetches its contribution from any
  live neighbour still holding the snapshot via a bounded
  request/reply mini-run between epochs.  Announce and rejoin traffic is
  absorbed as ``overhead_bits`` — never protocol CC — exactly like
  failover's elections.  A contribution is *lost* only when no copy
  survived (all holders died or lost their own state), in which case the
  run degrades to a certified partial whose ``missing`` set names the
  node — never a silently wrong value.

The :class:`repro.sim.monitors.DoubleCountOracle` audits the final claim:
``double-count`` fires if any nonce was booked twice or the certified
value disagrees with its claimed coverage; ``lost-contribution`` fires if
a contribution with a surviving copy is missing from the coverage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..adversary.schedule import FailureSchedule
from ..graphs.topology import Topology
from ..obs import spans as _spans
from ..sim.faults import (
    ChurnSchedule,
    FaultInjector,
    REJOIN_AMNESIAC,
)
from ..sim.message import Part, TAG_BITS, id_bits, value_bits
from ..sim.monitors import DoubleCountOracle
from ..sim.network import Network, ROOT_CRASH_ERROR
from ..sim.node import NodeHandler
from ..sim.stats import SimStats
from .failover import RECOVERABLE_PROTOCOLS, _run_epoch, _shift_crash_map
from .partial import PartialAggregateResult, certify
from .transport import ReliableTransport, TransportConfig, overlay_network

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


@dataclass(frozen=True)
class ChurnPolicy:
    """What the churn-tolerant runtime is allowed to do.

    Attributes:
        transport: Reliable-transport config for every epoch and the
            anti-entropy mini-runs; ``None`` runs the raw network (then
            heartbeats are unavailable and membership falls back to
            network liveness).
        max_epochs: Total protocol epochs (first run included).
        heartbeat_gap: Transport windows of silence before the tracker
            presumes a node down.
        snapshots: Whether to run the round-0 anti-entropy announce that
            makes amnesiac contributions recoverable.
    """

    transport: Optional[TransportConfig] = None
    max_epochs: int = 4
    heartbeat_gap: int = 2
    snapshots: bool = True

    def __post_init__(self) -> None:
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.heartbeat_gap < 1:
            raise ValueError(
                f"heartbeat_gap must be >= 1, got {self.heartbeat_gap}"
            )

    @classmethod
    def default(cls, retransmit_budget: int = 5) -> "ChurnPolicy":
        """The CLI's ``--churn`` stack: reliable transport + snapshots.

        The same retransmit budget as :meth:`RecoveryPolicy.default` —
        every observed frame loss at the chaos harness's reference rates
        stays recoverable, so certification failures mean churn, not
        transport noise.
        """
        return cls(transport=TransportConfig(retransmits=retransmit_budget))

    def as_jsonable(self) -> Dict[str, object]:
        return {
            "transport": self.transport.as_jsonable() if self.transport else None,
            "max_epochs": self.max_epochs,
            "heartbeat_gap": self.heartbeat_gap,
            "snapshots": self.snapshots,
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "ChurnPolicy":
        transport = data.get("transport")
        return cls(
            transport=TransportConfig.from_jsonable(transport)
            if transport
            else None,
            max_epochs=int(data.get("max_epochs", 4)),
            heartbeat_gap=int(data.get("heartbeat_gap", 2)),
            snapshots=bool(data.get("snapshots", True)),
        )


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

    def rejoins(self) -> List[int]:
        """Nodes observed to come back after a detected outage."""
        return sorted({n for _r, n, kind in self.transitions if kind == "up"})


class AnnounceNode(NodeHandler):
    """Round-0 anti-entropy announce: broadcast my input, cache theirs."""

    def __init__(self, node_id: int, value: int, bits: int) -> None:
        self.node_id = node_id
        self.value = value
        self.bits = bits
        #: Neighbour inputs heard: node -> raw value.
        self.heard: Dict[int, int] = {}

    def on_round(self, rnd: int, inbox) -> List[Part]:
        for envelope in inbox:
            if envelope.part.kind == SNAP_KIND:
                node, value = envelope.part.payload
                self.heard.setdefault(node, value)
        if rnd == 1:
            return [Part(SNAP_KIND, (self.node_id, self.value), self.bits)]
        return []

    def wants_to_stop(self) -> bool:
        return False


class RejoinNode(NodeHandler):
    """Rejoin handshake: amnesiac nodes request, cache holders reply.

    Requesters broadcast a ``SNAP_REQ`` naming themselves; every live
    neighbour still caching their snapshot replies with the value; the
    requester adopts the first reply (inbox order is deterministic).
    """

    def __init__(
        self,
        node_id: int,
        requesting: bool,
        cache: Dict[int, int],
        req_bits: int,
        reply_bits: int,
    ) -> None:
        self.node_id = node_id
        self.requesting = requesting
        self.cache = dict(cache)
        self.req_bits = req_bits
        self.reply_bits = reply_bits
        #: The recovered raw input (None until a reply lands).
        self.recovered: Optional[int] = None
        self._replies_due: List[Tuple[int, int]] = []

    def on_round(self, rnd: int, inbox) -> List[Part]:
        for envelope in inbox:
            part = envelope.part
            if part.kind == SNAP_REQ_KIND:
                (who,) = part.payload
                if who in self.cache:
                    self._replies_due.append((who, self.cache[who]))
            elif part.kind == SNAP_KIND:
                node, value = part.payload
                if (
                    node == self.node_id
                    and self.requesting
                    and self.recovered is None
                ):
                    self.recovered = value
        out: List[Part] = []
        if rnd == 1 and self.requesting:
            out.append(Part(SNAP_REQ_KIND, (self.node_id,), self.req_bits))
        due, self._replies_due = sorted(set(self._replies_due)), []
        for node, value in due:
            out.append(Part(SNAP_KIND, (node, value), self.reply_bits))
        return out

    def wants_to_stop(self) -> bool:
        return False


@dataclass
class ChurnEpochReport:
    """One protocol epoch inside a churn run."""

    epoch: int
    rounds: int
    result: Optional[int]
    booked: Tuple[int, ...]
    pending: Tuple[int, ...]
    rejoins_observed: Tuple[int, ...] = ()
    #: True when the epoch's output matched no contributor subset and the
    #: whole epoch was thrown away and rerun.  Nothing from a discarded
    #: epoch is booked, so the retry keeps re-aggregation exactly-once.
    discarded: bool = False


@dataclass
class ChurnOutcome:
    """Everything a churn-tolerant run produced."""

    partial: PartialAggregateResult
    stats: SimStats
    rounds: int
    epochs: List[ChurnEpochReport]
    ledger: ContributionLedger
    lost: Tuple[int, ...]
    recovered: Tuple[int, ...] = ()
    transports: List[ReliableTransport] = field(default_factory=list)
    network: Optional[Network] = None
    tracker: Optional[HeartbeatTracker] = None

    @property
    def result(self) -> Optional[int]:
        return self.partial.value


def _side_run(
    topology: Topology,
    handlers: Dict[int, NodeHandler],
    crash_rounds: Dict[int, int],
    policy: ChurnPolicy,
    logical_rounds: int,
) -> SimStats:
    """One anti-entropy mini-run (announce or rejoin handshake).

    Runs over the policy's reliable transport like failover's elections;
    the caller absorbs the stats with ``as_overhead=True`` so none of it
    touches protocol CC.
    """
    network, window, transport, _ = overlay_network(
        topology, handlers, crash_rounds, transport=policy.transport
    )
    horizon = (logical_rounds + 1) * window + (1 if transport else 0)
    return network.run(horizon, stop_on_output=False)


def _announce_snapshots(
    topology: Topology,
    inputs: Dict[int, int],
    policy: ChurnPolicy,
    store: SnapshotStore,
) -> SimStats:
    """Seed the anti-entropy store with every node's round-0 announce."""
    n = max(topology.nodes()) + 1
    bits = (
        TAG_BITS
        + id_bits(n)
        + value_bits(max(1, max(inputs.values(), default=1)))
    )
    handlers = {
        u: AnnounceNode(u, inputs[u], bits) for u in topology.nodes()
    }
    stats = _side_run(topology, handlers, {}, policy, logical_rounds=2)
    for holder in topology.nodes():
        for node, value in handlers[holder].heard.items():
            store.seed(holder, node, value)
    return stats


def _rejoin_handshake(
    topology: Topology,
    requesters: Sequence[int],
    down: Set[int],
    policy: ChurnPolicy,
    store: SnapshotStore,
    inputs: Dict[int, int],
) -> Tuple[Dict[int, int], SimStats]:
    """Run one rejoin handshake; returns ``{node: recovered value}``."""
    n = max(topology.nodes()) + 1
    req_bits = TAG_BITS + id_bits(n)
    reply_bits = req_bits + value_bits(
        max(1, max(inputs.values(), default=1))
    )
    requester_set = set(requesters)
    handlers = {
        u: RejoinNode(
            u,
            requesting=u in requester_set,
            cache=store.cache_of(u),
            req_bits=req_bits,
            reply_bits=reply_bits,
        )
        for u in topology.nodes()
    }
    crash_rounds = {u: 1 for u in down}
    stats = _side_run(topology, handlers, crash_rounds, policy, logical_rounds=3)
    recovered = {
        u: handlers[u].recovered
        for u in sorted(requester_set)
        if u not in down and handlers[u].recovered is not None
    }
    return recovered, stats


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


def run_with_churn(
    protocol: str,
    topology: Topology,
    inputs: Dict[int, int],
    churn: ChurnSchedule,
    schedule: Optional[FailureSchedule] = None,
    *,
    f: Optional[int] = None,
    b: Optional[int] = None,
    c: int = 2,
    caaf=None,
    rng: Optional[random.Random] = None,
    injectors: Sequence = (),
    monitors: Sequence = (),
    policy: Optional[ChurnPolicy] = None,
    oracle: Optional[DoubleCountOracle] = None,
) -> ChurnOutcome:
    """Run ``protocol`` under crash-recovery churn with exactly-once booking.

    Epochs run until every live contribution is booked (or provably
    lost), the epoch budget runs out, or an epoch output defies
    certification.  The returned outcome's ``partial`` carries the union
    coverage of all booked contributions; its value is the CAAF-combine
    of the per-epoch outputs, which equals the aggregate over the
    coverage by construction of the nonce ledger.
    """
    from ..core.caaf import SUM

    caaf = caaf or SUM
    policy = policy or ChurnPolicy.default()
    schedule = schedule or FailureSchedule()
    if protocol not in RECOVERABLE_PROTOCOLS:
        raise ValueError(
            f"churn supports protocols {RECOVERABLE_PROTOCOLS}, "
            f"got {protocol!r}"
        )
    churn.validate(topology)
    if topology.root in churn.cycles and not churn.allow_root_crash:
        raise ValueError(ROOT_CRASH_ERROR)
    neutral = neutral_input(caaf)

    all_nodes = sorted(topology.nodes())
    prepared = {u: caaf.prepare(inputs[u]) for u in all_nodes}
    if oracle is None:
        oracle = next(
            (m for m in monitors if isinstance(m, DoubleCountOracle)), None
        )
    # The per-run termination oracle grades one full protocol execution
    # against the full input set; later epochs run on neutralized inputs,
    # so it (and the churn oracle itself) stays out of the epoch stack —
    # the ledger certification below is the churn-path authority.
    epoch_monitors = [
        m
        for m in monitors
        if getattr(m, "rule", None) not in ("oracle", "exactly-once")
    ]

    combined = SimStats()
    ledger = ContributionLedger()
    store = SnapshotStore()
    lost: Set[int] = set()
    recovered_all: Set[int] = set()
    epochs: List[ChurnEpochReport] = []
    transports: List[ReliableTransport] = []
    handshakes = 0
    epoch_values: List[int] = []
    elapsed = 0
    live_gap_count = 0
    certified = True
    reason = "clean"
    final_network: Optional[Network] = None
    tracker: Optional[HeartbeatTracker] = None

    if policy.snapshots:
        combined.absorb(
            _announce_snapshots(topology, inputs, policy, store),
            as_overhead=True,
        )

    # A fresh shifted view keeps the caller's schedule pristine (revive
    # logs and incarnation bases mutate per epoch).
    view = churn.shifted(0)
    budget_exhausted = False

    for epoch in range(1, policy.max_epochs + 1):
        eff_inputs = {
            u: (
                inputs[u]
                if not ledger.booked(u) and u not in lost
                else neutral
            )
            for u in all_nodes
        }
        transport = (
            ReliableTransport(policy.transport) if policy.transport else None
        )
        window = transport.window if transport else 1
        tracker = (
            HeartbeatTracker(policy.heartbeat_gap * window)
            if transport
            else None
        )
        epoch_injectors = (
            (view,)
            + ((tracker,) if tracker else ())
            + tuple(injectors)
        )
        epoch_schedule = FailureSchedule(
            _shift_crash_map(
                dict(schedule.crash_rounds), elapsed, all_nodes
            )
            if elapsed
            else dict(schedule.crash_rounds)
        )
        if _spans.enabled:
            _spans.active().begin(
                f"epoch[{epoch}]",
                cat="epoch",
                tid=topology.root,
                round=elapsed,
                epoch=epoch,
                contributors=sum(
                    1 for u in all_nodes if eff_inputs[u] != neutral
                ),
            )
        out = _run_epoch(
            protocol,
            topology,
            eff_inputs,
            epoch_schedule,
            f=f,
            b=b,
            c=c,
            caaf=caaf,
            rng=rng,
            injectors=epoch_injectors,
            monitors=epoch_monitors,
            transport=transport,
            integrity=None,
        )
        network = out.network
        combined.absorb(out.stats)
        final_network = network
        epoch_gaps = 0
        if transport is not None:
            transports.append(transport)
            epoch_gaps = len(transport.live_gaps(network))
        elapsed += out.rounds
        if _spans.enabled:
            _spans.active().end(
                tid=topology.root,
                round=elapsed,
                rounds=out.rounds,
                produced=out.result is not None,
            )
        v_e = out.result

        def _discard_and_retry() -> None:
            """Throw the tainted epoch away and set up a rerun.

            Nothing was booked from it, so the retry cannot double-count;
            its transport gaps are irrelevant because its value is gone.
            """
            for rnd_g, node, mode in churn.revive_events():
                if rnd_g <= elapsed and mode == REJOIN_AMNESIAC:
                    store.drop_holder(node)
            if _spans.enabled:
                _spans.active().event(
                    "epoch.discarded",
                    cat="epoch",
                    tid=topology.root,
                    round=elapsed,
                    epoch=epoch,
                )
            epochs.append(
                ChurnEpochReport(
                    epoch,
                    out.rounds,
                    v_e,
                    booked=(),
                    pending=(),
                    rejoins_observed=(
                        tuple(tracker.rejoins()) if tracker else ()
                    ),
                    discarded=True,
                )
            )

        if v_e is None:
            if epoch < policy.max_epochs:
                _discard_and_retry()
                view = view.shifted(out.rounds)
                continue
            certified = False
            reason = f"epoch {epoch} produced no output"
            epochs.append(
                ChurnEpochReport(epoch, out.rounds, None, (), ())
            )
            break

        # ---- certify the epoch output against contributor subsets ---- #
        contributors = [
            u for u in all_nodes if not ledger.booked(u) and u not in lost
        ]
        alive_end = {
            u for u in all_nodes if network.is_alive(u, out.rounds)
        }
        component = topology.alive_component(set(all_nodes) - alive_end)
        required = [
            u
            for u in contributors
            if not _ever_down(network, u, out.rounds) and u in component
        ]
        optional = [u for u in contributors if u not in required]
        if len(optional) > MAX_OPTIONAL_CONTRIBUTORS:
            certified = False
            reason = (
                f"epoch {epoch}: {len(optional)} churned contributors "
                f"exceed the {MAX_OPTIONAL_CONTRIBUTORS}-node "
                "certification cap"
            )
            epoch_values.append(v_e)
            epochs.append(
                ChurnEpochReport(epoch, out.rounds, v_e, (), ())
            )
            break
        matched = _match_contributors(
            caaf, v_e, required, optional, prepared
        )
        if matched is None:
            if epoch < policy.max_epochs:
                _discard_and_retry()
                view = view.shifted(out.rounds)
                continue
            certified = False
            reason = (
                f"epoch {epoch} output {v_e} matches no contributor "
                "subset (uncertifiable coverage)"
            )
            epoch_values.append(v_e)
            epochs.append(
                ChurnEpochReport(epoch, out.rounds, v_e, (), ())
            )
            break
        live_gap_count += epoch_gaps
        epoch_values.append(v_e)
        for u in matched:
            ledger.book(u, churn.incarnation_at(u, elapsed), prepared[u])
        if _spans.enabled:
            _spans.active().event(
                "epoch.booked",
                cat="epoch",
                tid=topology.root,
                round=elapsed,
                epoch=epoch,
                booked=len(matched),
            )

        # ---- decide whether another epoch is needed ------------------- #
        # Amnesiac rejoins (observed or enacted) void the holder's cache.
        for rnd_g, node, mode in churn.revive_events():
            if rnd_g <= elapsed and mode == REJOIN_AMNESIAC:
                store.drop_holder(node)
        down_end = (
            tracker.down_now()
            if tracker is not None
            else {u for u in all_nodes if not network.is_alive(u, out.rounds)}
        )
        unbooked = [
            u for u in all_nodes if not ledger.booked(u) and u not in lost
        ]
        pending_now = [u for u in unbooked if u not in down_end]
        view = view.shifted(out.rounds)
        pending_later = [
            u
            for u in unbooked
            if u in down_end
            and any(
                revive_r is not None
                for _c, revive_r, _m in view.cycles.get(u, ())
            )
        ]
        epochs.append(
            ChurnEpochReport(
                epoch,
                out.rounds,
                v_e,
                booked=matched,
                pending=tuple(sorted(pending_now + pending_later)),
                rejoins_observed=tuple(tracker.rejoins()) if tracker else (),
            )
        )
        if not pending_now and not pending_later:
            break
        if epoch == policy.max_epochs:
            budget_exhausted = True
            reason = "churn epoch budget exhausted"
            break

        # ---- rejoin handshake for amnesiac pending nodes -------------- #
        needs_recovery = [
            u
            for u in pending_now
            if u not in recovered_all
            and any(
                revive_r is not None
                and revive_r <= elapsed
                and mode == REJOIN_AMNESIAC
                for _c, revive_r, mode in churn.cycles.get(u, ())
            )
        ]
        if needs_recovery:
            handshakes += 1
            physically_down = {
                u for u in all_nodes if not network.is_alive(u, out.rounds)
            }
            recovered, hs_stats = _rejoin_handshake(
                topology,
                needs_recovery,
                physically_down,
                policy,
                store,
                inputs,
            )
            combined.absorb(hs_stats, as_overhead=True)
            elapsed += hs_stats.rounds_executed
            view = view.shifted(hs_stats.rounds_executed)
            recovered_all.update(recovered)
            for u in needs_recovery:
                if u not in recovered:
                    lost.add(u)

    # ------------------- final certification ------------------------- #
    value = caaf.combine(epoch_values) if epoch_values else None
    coverage = ledger.booked_nodes
    if value is not None and live_gap_count:
        certified = False
        reason += f"; {live_gap_count} unexcused transport gap(s)"
    if lost and certified:
        reason = (
            f"{reason}; {len(lost)} contribution(s) lost (no surviving "
            "snapshot copy)"
            if reason != "clean"
            else f"{len(lost)} contribution(s) lost (no surviving "
            "snapshot copy)"
        )
    extra: Dict[str, int] = {
        "epochs_discarded": sum(1 for e in epochs if e.discarded),
        "handshakes": handshakes,
        "snapshots_recovered": len(recovered_all),
        "contributions_lost": len(lost),
        "rejoins_durable": sum(t.rejoins_durable for t in transports),
        "rejoins_amnesiac": sum(t.rejoins_amnesiac for t in transports),
        "stale_nacks": sum(t.stale_nacks for t in transports),
    }
    partial = certify(
        value,
        all_nodes=all_nodes,
        covered=coverage,
        inputs=inputs,
        caaf=caaf,
        certified=certified,
        reason=reason,
        epochs=len(epochs),
        overhead_bits=combined.max_overhead_bits,
        live_gaps=live_gap_count,
        incarnations={
            node: inc for node, inc, _value in ledger.as_entries()
        },
        extra=extra,
    )

    # ------------------- oracle audit --------------------------------- #
    if oracle is not None:
        oracle.grade_ledger(ledger.as_entries(), ledger.double_booked)
        # A lost contribution with a surviving copy, or a live pending
        # node left unbooked while epochs remained, is a real violation;
        # a certified-partial after budget exhaustion is honest.
        recoverable: Set[int] = {
            u for u in lost if store.holders_of(u)
        }
        if not budget_exhausted and partial.certified:
            end_alive = {
                u
                for u in all_nodes
                if final_network is None
                or final_network.is_alive(u, final_network.round)
            }
            recoverable |= {
                u
                for u in all_nodes
                if not ledger.booked(u)
                and u not in lost
                and u in end_alive
            }
        oracle.grade_final(
            partial.value,
            partial.coverage,
            partial.certified,
            recoverable=recoverable,
        )

    return ChurnOutcome(
        partial=partial,
        stats=combined,
        rounds=combined.rounds_executed,
        epochs=epochs,
        ledger=ledger,
        lost=tuple(sorted(lost)),
        recovered=tuple(sorted(recovered_all)),
        transports=transports,
        network=final_network,
        tracker=tracker,
    )
