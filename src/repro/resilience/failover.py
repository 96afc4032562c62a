"""Deterministic root failover: the failover plan of the epoch driver.

Section 2 of the paper makes the root immortal; the protocol stack
hard-rejects any schedule that crashes it (``ROOT_CRASH_ERROR``).  This
module is the opt-in escape hatch for running *beyond* that assumption.
Its :class:`FailoverPlan` tells :func:`repro.resilience.driver.drive_epochs`
what differs for root failover:

* **The next epoch's world.**  Epoch 1 runs the protocol on the full
  topology (the network is built with ``allow_root_crash=True`` and stops
  as soon as the root dies).  When the root dies without an output,
  surviving nodes elect the **lowest-id live neighbour of the dead
  root** via a bounded min-id flood (:class:`ElectionNode`, a driver
  side-run under the same transport and integrity overlays), and the
  next epoch restarts the protocol on the elected root's surviving
  component with the remaining crash schedule shifted onto its
  timeline.
* **The verdict.**  An epoch with an output is done; a dead root moves
  on to the next epoch while the budget and a live candidate last;
  anything else ends the run with its reason.
* **Certification.**  Exact when nothing went wrong, a certified partial
  over the surviving component after a successful failover, and an
  uncertified best-effort value when any recovery budget was exhausted
  against live peers (:mod:`repro.resilience.partial`).  Election bits
  are overhead, never protocol CC; the certificate reports the
  bottleneck node's overhead (``max_overhead_bits``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..adversary.schedule import FailureSchedule
from ..graphs.topology import Topology
from ..integrity.frames import (
    IntegrityConfig,
    as_integrity,
    corruption_columns,
    integrity_columns,
)
from ..sim.faults import ledger_sources
from ..sim.message import Part, TAG_BITS, id_bits
from ..sim.node import NodeHandler
from ..sim.specs import JsonFields
from .driver import DONE, NEXT, EpochWorld, shift_crash_map
from .partial import certify
from .transport import TransportConfig

ELECT_KIND = "elect"

#: Election flood horizon in units of the topology diameter (the
#: bounded-flood budget).
ELECTION_STRETCH = 2


@dataclass(frozen=True)
class RecoveryPolicy(JsonFields):
    """What the self-healing runtime is allowed to do.

    Attributes:
        transport: Reliable-transport config for every epoch (and the
            elections); ``None`` runs the raw lossy network.
        max_epochs: Total protocol epochs (first run included); 1 means
            no failover.
        integrity: Authenticated-frame config for every epoch (and the
            elections); ``None`` (or mode ``"off"``) runs without
            integrity verification.
    """

    transport: Optional[TransportConfig] = None
    max_epochs: int = 3
    integrity: Optional[IntegrityConfig] = None

    # Older bundles carry two retired knobs; only their fixed values can
    # be replayed faithfully.
    RETIRED = {"failover": True, "election_stretch": ELECTION_STRETCH}

    def __post_init__(self) -> None:
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")

    @classmethod
    def default(cls, retransmit_budget: int = 5) -> "RecoveryPolicy":
        """The CLI's ``--recover`` stack: transport + failover.

        Five retransmissions keep every observed frame loss recoverable
        at the chaos harness's reference rates (drop 0.05, plus small
        duplicate/delay rates) — the CI gate requires zero uncertified
        partials there, and a delayed retransmission can slip past one
        whole window before the next NACK cycle repairs it.
        """
        return cls(transport=TransportConfig(retransmits=retransmit_budget))


class ElectionNode(NodeHandler):
    """Min-id flood: every candidate floods its id; everyone keeps the min."""

    def __init__(self, node_id: int, is_candidate: bool, bits_per_id: int) -> None:
        self.node_id = node_id
        self.bits_per_id = bits_per_id
        self.best: Optional[int] = node_id if is_candidate else None
        self._announce = is_candidate

    def on_round(self, rnd: int, inbox) -> List[Part]:
        for envelope in inbox:
            for part in envelope.parts:
                if part.kind != ELECT_KIND:
                    continue
                (candidate,) = part.payload
                if self.best is None or candidate < self.best:
                    self.best = candidate
                    self._announce = True
        if self._announce:
            self._announce = False
            return [
                Part(ELECT_KIND, (self.best,), TAG_BITS + self.bits_per_id)
            ]
        return []

    def wants_to_stop(self) -> bool:
        return False


@dataclass
class ElectionReport:
    """One election between epochs."""

    old_root: int
    elected: int
    candidates: Tuple[int, ...]
    rounds: int
    agreed: bool


class FailoverPlan:
    """Root failover as an epoch plan: elect, shrink, rerun.

    Epochs run until the (current) root terminates with an output or the
    ``policy.max_epochs`` budget is exhausted; between epochs a dead root
    is replaced by the lowest-id live neighbour, elected by bounded
    flood.  ``integrity`` (a coordinator, config or mode string) wins
    over ``policy.integrity``; ``injectors`` also ride the elections, and
    their corruption ledgers grade the certificate.
    """

    family = "recovery"
    whole_run_rules = ()
    discards_as_overhead = False

    def __init__(
        self,
        topology: Topology,
        inputs: Dict[int, int],
        schedule: Optional[FailureSchedule] = None,
        *,
        f: Optional[int] = None,
        caaf=None,
        policy: Optional[RecoveryPolicy] = None,
        integrity=None,
        injectors: Sequence = (),
        monitors: Sequence = (),
    ) -> None:
        from ..core.caaf import SUM

        self.policy = policy or RecoveryPolicy.default()
        self.max_epochs = self.policy.max_epochs
        self.transport = self.policy.transport
        self.topology, self.inputs = topology, inputs
        self.caaf = caaf or SUM
        self.injectors, self.monitors = injectors, tuple(monitors)
        #: The next epoch's world: the caller's, then each elected root's
        #: surviving component.  One integrity coordinator spans every
        #: epoch and election, so rejection records accumulate against
        #: the (likewise run-long) corruption injector ground truth.
        self.current = EpochWorld(
            topology,
            dict(inputs),
            schedule or FailureSchedule(),
            f,
            integrity=as_integrity(
                self.policy.integrity if integrity is None else integrity
            ),
        )
        self.elections: List[ElectionReport] = []
        self.reason = "clean"

    def world(self, epoch: int, run, transport) -> EpochWorld:
        return self.current

    def judge(self, report, out, run, last: bool) -> str:
        network, topo = out.network, self.current.topology
        if out.result is not None:
            self.reason = "recovered" if report.epoch > 1 else "clean"
            return DONE
        if network.is_alive(topo.root):
            self.reason = "protocol produced no output"
            return DONE
        if last:
            self.reason = "failover budget exhausted"
            return DONE
        live = {u for u in topo.nodes() if network.is_alive(u)}
        candidates = [v for v in topo.adjacency[topo.root] if v in live]
        if not candidates:
            self.reason = "no live neighbour of the crashed root"
            return DONE
        election = self._elect(run, topo, network, out.rounds, candidates)
        # ---- rebuild the world around the elected root --------------- #
        elapsed = out.rounds + election.rounds
        still_live = {
            u
            for u in topo.nodes()
            if network.crash_rounds.get(u, float("inf")) > elapsed
        }
        if election.elected not in still_live:
            self.reason = "elected root crashed during election"
            return DONE
        component = Topology(
            topo.adjacency, name=topo.name, root=election.elected
        ).alive_component(set(topo.nodes()) - still_live)
        self.current = EpochWorld(
            Topology(
                {
                    u: [v for v in topo.adjacency[u] if v in component]
                    for u in component
                },
                name=f"{topo.name}+failover{report.epoch}",
                root=election.elected,
            ),
            {u: self.current.inputs[u] for u in component},
            FailureSchedule(
                shift_crash_map(network.crash_rounds, elapsed, component)
            ),
            self.current.f,
            integrity=self.current.integrity,
        )
        return NEXT

    def _elect(self, run, topo, network, rounds, candidates) -> ElectionReport:
        """Flood candidate ids for a bounded horizon; lowest id wins."""
        bits_per_id = id_bits(max(topo.nodes()) + 1)
        candidate_set = set(candidates)
        handlers = {
            u: ElectionNode(u, u in candidate_set, bits_per_id)
            for u in topo.nodes()
        }
        # Elections carry min-id floods: a flipped candidate id would
        # silently elect the wrong root, so they are authenticated too.
        election = run.side_run(
            topo,
            handlers,
            shift_crash_map(network.crash_rounds, rounds, topo.nodes()),
            ELECTION_STRETCH * topo.diameter + 1,
            transport=self.policy.transport,
            integrity=self.current.integrity,
            injectors=self.injectors,
        )
        elected = min(candidate_set)
        failed = {u for u in topo.nodes() if not election.is_alive(u)}
        if elected in failed:
            agreed = False
        else:
            component = Topology(
                topo.adjacency, name=topo.name, root=elected
            ).alive_component(failed)
            agreed = all(handlers[u].best == elected for u in component)
        report = ElectionReport(
            old_root=topo.root,
            elected=elected,
            candidates=tuple(sorted(candidate_set)),
            rounds=election.round,
            agreed=agreed,
        )
        self.elections.append(report)
        return report

    def certify(self, run):
        value, reason = run.epochs[-1].result, self.reason
        elections_agreed = all(e.agreed for e in self.elections)
        certified = value is not None and run.live_gaps == 0 and elections_agreed
        if value is not None and not elections_agreed:
            reason += "; election diverged"
        if value is not None and run.live_gaps:
            reason += f"; {run.live_gaps} unexcused transport gap(s)"
        # Integrity ladder: any delivered corruption the integrity layer
        # never rejected clears the integrity-verified bit (certify()
        # decertifies).
        corruption = ledger_sources(self.injectors, "delivered_corruptions")
        extra = {"elections": len(self.elections)}
        integrity = self.current.integrity
        extra.update(corruption_columns(corruption, integrity))
        extra.update(integrity_columns(integrity))
        network, topo = run.network, self.current.topology
        if network.is_alive(topo.root):
            failed = {u for u in topo.nodes() if not network.is_alive(u)}
            survivors = topo.alive_component(failed)
        else:
            survivors = set()
        run.partial = certify(
            value,
            all_nodes=self.topology.nodes(),
            covered=survivors,
            inputs=self.inputs,
            caaf=self.caaf,
            certified=certified,
            reason=reason,
            epochs=len(run.epochs),
            elected_root=self.elections[-1].elected if self.elections else None,
            overhead_bits=run.stats.max_overhead_bits,
            live_gaps=run.live_gaps,
            unresolved_corruptions=extra.get("unresolved_corruptions", 0),
            extra=extra,
        )


    def grade(self, run) -> Tuple[int, bool, Dict[str, int]]:
        # No oracle: the certificate alone grades a failover run.
        return 0, True, {"elections": len(self.elections)}
