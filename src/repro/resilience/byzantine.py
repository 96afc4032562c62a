"""Byzantine-tolerant aggregation: witness audit, eviction, influence bounds.

The integrity layer (PR 5) authenticates the *channel*: a MAC'd frame
proves who sent a claim, not that the claim is true.  A compromised node
signs lies with its own key — equivocating sub-aggregates, inflating its
contribution, replaying stale claims, or selectively omitting copies
(:class:`repro.families.byz.ByzantineSchedule`).  This module is the
defence, in three pieces:

**Witness cross-validation.**  Every sub-aggregate claim a node delivers
is echoed (content digest + tag) to ``k`` deterministically elected
witnesses of the sender — its first ``k`` sorted neighbours, an election
every node computes locally from the adjacency it already knows.  Echoes
travel over the reliable broadcast layer and are booked as
``overhead_bits``, never protocol CC.  The
:class:`WitnessCoordinator` models the witnesses' pooled view: because
local broadcast reaches every neighbour and echoes are reliable, the
pool collectively sees every *delivered* copy of every claim.

**Accusation / conviction.**  From the pooled view, four sound checks —
no honest node can trip any of them under the Byzantine fault model
(which excludes message corruption, drops, and link flaps by
construction; see the CLI's fault-schedule validator):

* *same-round equivocation*: two delivered copies of one broadcast claim
  with different payloads are two authenticated contradictory frames —
  the classic equivocation proof;
* *flood/claim contradiction*: AGG finalizes ``psum`` in the node's
  phase-2 slot and floods the same field in phase 3
  (:class:`repro.core.agg.AggNode` never mutates it in between), so a
  self-flood differing from the node's aggregation claim of the same AGG
  instance is equally contradictory;
* *influence (delta) audit*: a node's claim minus the child claims it
  provably folded (the ``aggregation`` parts delivered to it in its slot
  round, restricted to acked children) is its own contribution, which
  for a sum-like CAAF must lie in ``[0, v_max]``;
* *selective omission*: a local broadcast reaches every live neighbour
  or none (a dead sender's copies all drop together), so a claim
  delivered to a strict non-empty subset of the sender's live neighbours
  was selectively suppressed.

A conviction drives **eviction** through the epoch driver
(:func:`repro.resilience.driver.drive_epochs`), with the
:class:`ByzantinePlan` supplying what differs for this family:

* *the next epoch's world*: the evicted nodes merged into the crash map
  at round 1, the protocol budget ``f`` raised by their incident edges,
  and a fresh :class:`WitnessTap` on the one run-long coordinator;
* *the verdict*: an epoch with fresh convictions under
  ``evict_policy="evict"`` is discarded (its bits are booked as defence
  overhead, never protocol CC) and rerun while the budget lasts;
  otherwise it is final.  Under ``evict_policy="flag"`` convictions only
  decertify;
* *the certificate*, below, with the whole run's overhead
  (``total_overhead_bits``, echoes included).

**Influence-bounded certification.**  Any lie that survives the audit is
a contribution still inside ``[0, v_max]``, i.e. per surviving
compromised node at most ``v_max`` of error, and errors add linearly for
sum-like CAAFs.  With declared budget ``b`` and ``e`` evicted nodes the
result therefore ships with the deterministic bound
``|error| <= (b - e) * v_max`` on the aggregate over its coverage —
the :class:`repro.resilience.partial.PartialAggregateResult` ladder's
new ``influence_bound`` rung.  A result is *exact* only when the
residual budget is zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..adversary.schedule import FailureSchedule
from ..graphs.topology import Topology
from ..obs import metrics as _metrics
from ..obs import spans as _spans
from ..families.byz import ByzantineOracle
from ..sim.faults import FaultInjector
from ..sim.message import TAG_BITS, id_bits
from ..sim.monitors import FBudgetMonitor
from ..sim.network import Network
from ..sim.specs import JsonFields
from .driver import DONE, RETRY, EpochWorld, whole_run_oracle
from .partial import certify

#: Eviction policies: ``evict`` reruns without convicted nodes (the
#: discard-and-retry path); ``flag`` only decertifies.
EVICT_POLICIES = ("evict", "flag")

#: CAAFs the influence audit can invert (group aggregates with a known
#: per-node contribution range).
AUDITABLE_CAAFS = ("SUM", "COUNT")

#: Bits of the content digest carried by one witness echo frame.
ECHO_DIGEST_BITS = 32

#: Wire kinds that are first-person sub-aggregate claims (the flood kind
#: only when the payload's source *is* the sender — relays are someone
#: else's claim).
CLAIM_KINDS = ("aggregation", "flooded_psum")

#: Conviction reasons.
REASON_EQUIVOCATION = "equivocation"
REASON_INFLUENCE = "influence"
REASON_OMISSION = "omission"


@dataclass(frozen=True)
class ByzantineConfig(JsonFields):
    """What the witness/eviction defence is allowed to do.

    Attributes:
        witnesses: Echo fan-out ``k`` — every delivered claim is echoed
            to the sender's first ``k`` sorted neighbours.
        evict_policy: ``evict`` reruns without convicted nodes;
            ``flag`` records convictions and decertifies.
        max_epochs: Total protocol epochs (first run included) the
            eviction loop may spend.
    """

    witnesses: int = 2
    evict_policy: str = "evict"
    max_epochs: int = 3

    def __post_init__(self) -> None:
        if self.witnesses < 1:
            raise ValueError(f"witnesses must be >= 1, got {self.witnesses}")
        if self.evict_policy not in EVICT_POLICIES:
            raise ValueError(
                f"evict_policy must be one of {EVICT_POLICIES}, "
                f"got {self.evict_policy!r}"
            )
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")


@dataclass(frozen=True)
class Accusation:
    """One cross-validation finding, raised by an elected witness."""

    epoch: int
    gen: int
    round: Optional[int]
    accuser: int
    accused: int
    reason: str
    detail: str


@dataclass(frozen=True)
class Conviction:
    """An accusation backed by proof (two contradictory authenticated
    frames, an out-of-range contribution, or a partial delivery set)."""

    node: int
    epoch: int
    gen: int
    round: Optional[int]
    reason: str
    proof: str


class WitnessTap(FaultInjector):
    """Delivery observer feeding the :class:`WitnessCoordinator`.

    Models the pooled witness view: ``arrange_inbox`` logs every
    delivered envelope (and returns it untouched — the tap never
    modifies delivery content; ``modifies_delivery`` is set only so the
    network routes inboxes through it), ``end_round`` closes the round
    so partial-delivery checks see the complete picture.  The tap is
    attached *after* the Byzantine schedule, so it observes exactly what
    receivers observed.
    """

    modifies_delivery = True

    def __init__(self, coordinator: "WitnessCoordinator") -> None:
        super().__init__()
        self.coordinator = coordinator

    def attach(self, network: Network) -> None:
        super().attach(network)
        # The non-owning proxy: the coordinator outlives this network.
        self.coordinator.begin_gen(self.network)

    def arrange_inbox(self, rnd: int, receiver: int, envelopes: List) -> List:
        self.coordinator.observe_inbox(rnd, receiver, envelopes)
        return envelopes

    def end_round(self, rnd: int) -> None:
        self.coordinator.finish_round(rnd)


class WitnessCoordinator:
    """Pooled witness view: observation ledger, audits, convictions.

    One coordinator lives across all epochs of a
    :class:`ByzantinePlan` run.  Each network build (AGG/VERI pairs
    may build several per epoch) starts a new *generation* via the tap's
    ``attach``; each generation is audited independently — equivocation
    and omission as rounds close, the flood/claim and influence audits
    when the generation ends (claims from different generations never
    cross-contaminate an audit).
    """

    def __init__(
        self,
        topology: Topology,
        inputs: Dict[int, int],
        caaf,
        config: ByzantineConfig,
        budget: int,
        integrity=None,
    ) -> None:
        self.topology = topology
        self.caaf = caaf
        self.config = config
        #: Declared adversary budget b (certification assumption).
        self.budget = budget
        self.integrity = integrity
        self.root = topology.root
        self._adj = {
            u: tuple(sorted(vs)) for u, vs in topology.adjacency.items()
        }
        self._id_bits = id_bits(topology.n_nodes)
        #: Per-node honest contribution ceiling: COUNT contributes
        #: ``prepare(x) = 1``, SUM contributes ``prepare(x) = x``.
        self.v_max = (
            1
            if caaf.name == "COUNT"
            else max(inputs.values(), default=0)
        )
        self.gen = -1
        self.epoch = 0
        self._network: Optional[Network] = None
        #: Per-gen delivery ledger: ``(rnd, receiver, sender, kind,
        #: payload)`` for tree/claim kinds.
        self._deliveries: List[Tuple] = []
        #: Direct claims of the round in flight:
        #: ``{(sender, kind, source): {receiver: payload}}``.
        self._round_claims: Dict[Tuple, Dict[int, tuple]] = {}
        self.accusations: List[Accusation] = []
        self.convictions: Dict[int, Conviction] = {}
        self._fresh: Set[int] = set()
        #: Echo traffic per echoing node (overhead, never protocol CC).
        self.echo_bits: Dict[int, int] = {}
        self.echoes = 0

    # ---------------------------------------------------------------- #
    # Witness election.
    # ---------------------------------------------------------------- #

    def witnesses_of(self, sender: int) -> Tuple[int, ...]:
        """Deterministic election: the sender's first ``k`` sorted
        neighbours — computable by every node from local knowledge."""
        return self._adj.get(sender, ())[: self.config.witnesses]

    def _accuser_for(self, accused: int) -> int:
        witnesses = self.witnesses_of(accused)
        return witnesses[0] if witnesses else self.root

    # ---------------------------------------------------------------- #
    # Observation (fed by the tap).
    # ---------------------------------------------------------------- #

    def begin_gen(self, network: Network) -> None:
        """A new network build: audit the finished generation first."""
        self._finalize_gen()
        self.gen += 1
        self._network = network
        self._deliveries = []
        self._round_claims = {}

    def observe_inbox(self, rnd: int, receiver: int, envelopes) -> None:
        for env in envelopes:
            parts = [
                inner
                for part in env.parts
                for inner in self._unwrap(env.sender, part)
            ]
            for kind, payload in parts:
                if kind not in (
                    "aggregation",
                    "flooded_psum",
                    "ack",
                    "tree_construct",
                ):
                    continue
                self._deliveries.append(
                    (rnd, receiver, env.sender, kind, payload)
                )
                if self._is_direct_claim(env.sender, kind, payload):
                    source = payload[0] if kind == "flooded_psum" else None
                    self._round_claims.setdefault(
                        (env.sender, kind, source), {}
                    )[receiver] = payload
                    self._book_echo(env.sender, receiver)

    def _unwrap(self, sender: int, part) -> List[Tuple[str, tuple]]:
        """Peel an authenticated frame down to its inner parts.

        A frame whose tag does not verify is dropped by the integrity
        layer before the protocol sees it, so the witness pool ignores
        it too (under the Byzantine fault model every frame verifies —
        a compromised node re-signs its lies with its own key).
        """
        if part.kind != "integ_frame":
            return [(part.kind, part.payload)]
        try:
            seq, claimed_sender, inner, tag = part.payload
        except (TypeError, ValueError):
            return []
        if claimed_sender != sender:
            return []
        if self.integrity is not None:
            from ..integrity.frames import compute_tag

            if compute_tag(self.integrity, claimed_sender, seq, inner) != tag:
                return []
        return [(kind, payload) for kind, payload, _bits in inner]

    @staticmethod
    def _is_direct_claim(sender: int, kind: str, payload) -> bool:
        if kind == "aggregation":
            return True
        if kind == "flooded_psum":
            return bool(payload) and payload[0] == sender
        return False

    def _book_echo(self, sender: int, receiver: int) -> None:
        """One delivered claim -> one echo from the receiver to each
        elected witness of the sender (minus itself)."""
        fanout = sum(1 for w in self.witnesses_of(sender) if w != receiver)
        if not fanout:
            return
        frame = TAG_BITS + 2 * self._id_bits + ECHO_DIGEST_BITS
        self.echoes += fanout
        self.echo_bits[receiver] = (
            self.echo_bits.get(receiver, 0) + fanout * frame
        )

    # ---------------------------------------------------------------- #
    # Convictions.
    # ---------------------------------------------------------------- #

    def _convict(
        self,
        node: int,
        reason: str,
        proof: str,
        rnd: Optional[int] = None,
    ) -> None:
        accuser = self._accuser_for(node)
        self.accusations.append(
            Accusation(
                self.epoch, self.gen, rnd, accuser, node, reason, proof
            )
        )
        if _spans.enabled:
            _spans.active().event(
                "byz.accusation",
                cat="byzantine",
                tid=accuser,
                round=rnd or 0,
                accused=node,
                reason=reason,
            )
        if _metrics.enabled:
            _metrics.active().counter(
                "byz_accusations", "witness accusations raised"
            ).inc(reason=reason)
        if node in self.convictions:
            return
        self.convictions[node] = Conviction(
            node, self.epoch, self.gen, rnd, reason, proof
        )
        self._fresh.add(node)
        if _spans.enabled:
            _spans.active().event(
                "byz.conviction",
                cat="byzantine",
                tid=accuser,
                round=rnd or 0,
                accused=node,
                reason=reason,
            )
        if _metrics.enabled:
            _metrics.active().counter(
                "byz_convictions", "nodes convicted by the witness pool"
            ).inc(reason=reason)

    def take_new_convictions(self) -> Set[int]:
        """Convictions since the last call (the eviction loop's cue)."""
        fresh, self._fresh = self._fresh, set()
        return fresh

    # ---------------------------------------------------------------- #
    # Round-close checks: equivocation + selective omission.
    # ---------------------------------------------------------------- #

    def finish_round(self, rnd: int) -> None:
        network = self._network
        claims, self._round_claims = self._round_claims, {}
        for (sender, kind, source), seen in sorted(
            claims.items(), key=lambda kv: (kv[0][0], kv[0][1], str(kv[0][2]))
        ):
            if sender == self.root:
                continue
            variants = sorted(set(seen.values()))
            if len(variants) > 1:
                self._convict(
                    sender,
                    REASON_EQUIVOCATION,
                    f"round {rnd}: {kind} claim delivered as "
                    f"{variants[0]} and {variants[1]} — two authenticated "
                    "contradictory frames",
                    rnd,
                )
            if network is None:
                continue
            expected = {
                u
                for u in self._adj.get(sender, ())
                if network.is_alive(u, rnd)
            }
            missing = expected - set(seen)
            if missing and seen:
                self._convict(
                    sender,
                    REASON_OMISSION,
                    f"round {rnd}: {kind} claim reached "
                    f"{sorted(seen)} but was withheld from live "
                    f"neighbours {sorted(missing)}",
                    rnd,
                )

    # ---------------------------------------------------------------- #
    # Generation-close audits: flood/claim consistency + influence.
    # ---------------------------------------------------------------- #

    def finalize(self) -> None:
        """Audit the final (still open) generation."""
        self._finalize_gen()
        self._deliveries = []

    def _instances(self) -> List[List[Tuple]]:
        """Split a generation's deliveries into AGG instances.

        A ``tree_construct`` beacon arriving after claims were seen
        opens a new instance (Algorithm 1 embeds sequential AGG
        executions on one network; each starts with a construction
        wave).
        """
        instances: List[List[Tuple]] = [[]]
        saw_claims = False
        last_boundary = None
        for entry in sorted(self._deliveries, key=lambda e: e[0]):
            rnd, _receiver, _sender, kind, _payload = entry
            if kind == "tree_construct" and saw_claims:
                if last_boundary != rnd:
                    instances.append([])
                    saw_claims = False
                    last_boundary = rnd
            elif kind in CLAIM_KINDS:
                saw_claims = True
            instances[-1].append(entry)
        return instances

    def _finalize_gen(self) -> None:
        if not self._deliveries:
            return
        for instance in self._instances():
            self._audit_instance(instance)

    def _audit_instance(self, deliveries: Sequence[Tuple]) -> None:
        children: Dict[int, Set[int]] = {}
        #: sender -> (delivered_round, psum) of its aggregation claim.
        claim: Dict[int, Tuple[int, int]] = {}
        #: (receiver, round) -> {sender: psum} of delivered claims.
        folded_view: Dict[Tuple[int, int], Dict[int, int]] = {}
        floods: Dict[int, List[Tuple[int, int]]] = {}
        for rnd, receiver, sender, kind, payload in deliveries:
            if kind == "ack" and payload == (receiver,):
                children.setdefault(receiver, set()).add(sender)
            elif kind == "aggregation":
                psum = payload[0]
                claim.setdefault(sender, (rnd, psum))
                folded_view.setdefault((receiver, rnd), {})[sender] = psum
            elif kind == "flooded_psum" and payload[0] == sender:
                floods.setdefault(sender, []).append((rnd, payload[1]))

        for sender in sorted(set(claim) | set(floods)):
            if sender == self.root or sender in self.convictions:
                continue
            claimed = claim.get(sender)
            for rnd, flood_psum in floods.get(sender, ()):
                if claimed is not None and flood_psum != claimed[1]:
                    self._convict(
                        sender,
                        REASON_EQUIVOCATION,
                        f"flooded psum {flood_psum} contradicts the "
                        f"node's aggregation claim {claimed[1]} of the "
                        "same AGG instance (psum is final after the "
                        "phase-2 slot)",
                        rnd,
                    )
                    break
            if sender in self.convictions:
                continue
            if self.caaf.name not in AUDITABLE_CAAFS:
                continue
            if claimed is not None:
                rnd, psum = claimed
            elif floods.get(sender):
                # A node beyond tree depth cd floods its bare input
                # without ever folding (no phase-2 slot).
                rnd, psum = floods[sender][0]
            else:
                continue
            folded = folded_view.get((sender, rnd - 1), {})
            folded_sum = sum(
                p
                for child, p in folded.items()
                if child in children.get(sender, ())
            )
            contribution = psum - folded_sum
            if not 0 <= contribution <= self.v_max:
                self._convict(
                    sender,
                    REASON_INFLUENCE,
                    f"claimed psum {psum} minus the {len(folded)} folded "
                    f"child claims ({folded_sum}) leaves a contribution "
                    f"of {contribution}, outside [0, {self.v_max}]",
                    rnd,
                )

    # ---------------------------------------------------------------- #
    # Reporting.
    # ---------------------------------------------------------------- #

    @property
    def total_echo_bits(self) -> int:
        return sum(self.echo_bits.values())

    def counters(self) -> Dict[str, int]:
        return {
            "witnesses": self.config.witnesses,
            "echoes": self.echoes,
            "echo_bits": self.total_echo_bits,
            "accusations": len(self.accusations),
            "convictions": len(self.convictions),
        }


class ByzantinePlan:
    """Witness audit and eviction as an epoch plan.

    The first epoch runs with the compromised nodes in place; every
    conviction (under ``evict_policy="evict"``) discards the tainted
    epoch — its bits become overhead — and reruns with the convicted
    nodes crashed at round 1 and the edge budget raised by their incident
    edges.  The final epoch's output is certified with the residual
    influence bound ``(b - evicted) * v_max``, and graded by the
    :class:`ByzantineOracle` (the caller's, found among ``monitors``, or
    a fresh one in ``mode``).
    """

    family = "byz"
    whole_run_rules = ("oracle", "byzantine")
    discards_as_overhead = True
    #: The witness audits assume in-model delivery: no transport.
    transport = None

    def __init__(
        self,
        topology: Topology,
        inputs: Dict[int, int],
        byz,
        schedule: Optional[FailureSchedule] = None,
        *,
        f: Optional[int] = None,
        caaf=None,
        config: Optional[ByzantineConfig] = None,
        integrity=None,
        monitors: Sequence = (),
        mode: str = "record",
    ) -> None:
        from ..core.caaf import SUM

        self.caaf = caaf or SUM
        if self.caaf.name not in AUDITABLE_CAAFS:
            raise ValueError(
                "influence-bounded certification needs an invertible "
                f"sum-like CAAF {AUDITABLE_CAAFS}, got {self.caaf.name!r} — "
                "the delta audit cannot bound a compromised node's pull on "
                "min/max-style aggregates"
            )
        self.config = config or ByzantineConfig()
        self.max_epochs = self.config.max_epochs
        self.topology, self.inputs, self.byz = topology, inputs, byz
        self.schedule = schedule or FailureSchedule()
        self.f, self.integrity = f, integrity
        if integrity is not None:
            byz.integrity = integrity.config
        self.oracle, self.monitors = whole_run_oracle(
            monitors, ByzantineOracle, byz, mode=mode
        )
        self.evicted: Set[int] = set()
        self.coordinator = WitnessCoordinator(
            topology,
            inputs,
            self.caaf,
            self.config,
            budget=byz.budget,
            integrity=integrity.config if integrity is not None else None,
        )

    def _edges(self, nodes) -> int:
        """Edge failures the crash of ``nodes`` causes."""
        return sum(len(self.topology.adjacency.get(u, ())) for u in nodes)

    def world(self, epoch: int, run, transport) -> EpochWorld:
        self.coordinator.epoch = epoch
        f = self.f
        if f is not None or self.evicted:
            f = (f or 0) + self._edges(self.evicted)
        crashes = dict(self.schedule.crash_rounds)
        crashes.update({u: min(1, crashes.get(u, 1)) for u in self.evicted})
        return EpochWorld(
            self.topology,
            self.inputs,
            FailureSchedule(crashes),
            f,
            injectors=(self.byz, WitnessTap(self.coordinator)),
            integrity=self.integrity,
            attrs={"evicted": len(self.evicted)},
        )

    def judge(self, report, out, run, last: bool) -> str:
        self.coordinator.finalize()
        fresh = self.coordinator.take_new_convictions() - self.evicted
        report.convicted = tuple(sorted(fresh))
        if not fresh or self.config.evict_policy != "evict" or last:
            return DONE
        # Discard-and-retry: the rerun crashes the convicts.
        self.evicted |= fresh
        if _metrics.enabled:
            _metrics.active().counter(
                "byz_evictions", "convicted nodes evicted via epoch retry"
            ).inc(len(fresh))
        for monitor in run.monitors:
            if isinstance(monitor, FBudgetMonitor):
                # The rerun re-fires scheduled crashes and adds the
                # convicts' incident edges — both sanctioned, so the
                # allowance grows accordingly.
                monitor.f += self._edges(fresh) + self._edges(
                    self.schedule.crash_rounds
                )
        return RETRY

    def certify(self, run):
        """Influence-bounded certification of the final epoch."""
        coordinator, value = self.coordinator, run.epochs[-1].result
        for node, bits in coordinator.echo_bits.items():
            run.stats.overhead_bits[node] = (
                run.stats.overhead_bits.get(node, 0) + bits
            )
        residual_convicts = sorted(set(coordinator.convictions) - self.evicted)
        b_rem = max(0, self.byz.budget - len(self.evicted))
        # Coverage: provably included contributions only — the root's
        # surviving component of the final epoch (mid-run crashes may or
        # may not have folded in; the certificate's bounds bracket both).
        # Evicted nodes crash at round 1, so they fall out here naturally.
        network = run.network
        failed = {
            u for u, r in network.crash_rounds.items() if r <= network.round
        }
        if value is None:
            certified = False
            reason = f"epoch {len(run.epochs)} produced no output"
        elif residual_convicts:
            certified = False
            reason = (
                f"convicted nodes {residual_convicts} still in the run "
                f"(evict_policy={self.config.evict_policy!r}, "
                f"epoch budget {self.config.max_epochs}): their influence "
                "is unbounded"
            )
        else:
            certified = True
            reason = (
                "byzantine-audited: exact (zero residual budget)"
                if b_rem == 0
                else f"byzantine-audited: |error| <= {b_rem} x v_max"
            )
        run.partial = certify(
            value,
            sorted(self.topology.nodes()),
            sorted(self.topology.alive_component(failed)),
            self.inputs,
            self.caaf,
            certified=certified,
            reason=reason,
            epochs=len(run.epochs),
            overhead_bits=run.stats.total_overhead_bits,
            byz_budget=self.byz.budget,
            convicted=tuple(sorted(coordinator.convictions)),
            influence_bound=(b_rem * coordinator.v_max) if certified else None,
            v_max=coordinator.v_max,
            extra={
                "echo_bits": coordinator.total_echo_bits,
                "accusations": len(coordinator.accusations),
                "convictions": len(coordinator.convictions),
                "evicted": len(self.evicted),
            },
        )


    def grade(self, run) -> Tuple[int, bool, Dict[str, int]]:
        # Whole-run grading: needs the complete taint ledger and the
        # final certificate.
        oracle = self.oracle
        oracle.grade_convictions(self.coordinator.convictions)
        oracle.grade_result(run.partial)
        # An unconvicted compromised node may legally pull the value by
        # up to the certificate's influence bound.
        slack = run.partial.influence_bound or 0
        return slack, oracle.false_convictions == 0, {
            "false_convictions": oracle.false_convictions,
            "undetected_equivocations": oracle.undetected_equivocations,
            "influence_exceeded": oracle.influence_exceeded,
        }
