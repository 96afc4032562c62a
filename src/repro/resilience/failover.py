"""Deterministic root failover: elect a replacement root and re-run.

Section 2 of the paper makes the root immortal; the protocol stack
hard-rejects any schedule that crashes it (``ROOT_CRASH_ERROR``).  This
module is the opt-in escape hatch for running *beyond* that assumption:

* An epoch runs the protocol normally, except the network is built with
  ``allow_root_crash=True`` and stops as soon as the root dies.
* When the root dies without an output, surviving nodes elect the
  **lowest-id live neighbour of the dead root** via a bounded min-id
  flood (:class:`ElectionNode`), optionally under the reliable transport
  so the election itself tolerates message faults.
* A new epoch restarts the protocol on the elected root's surviving
  component, with the remaining crash schedule shifted onto the new
  epoch's timeline — the same shifting idiom
  :func:`repro.core.veri.run_agg_veri_pair` uses between AGG and VERI.
* Election bits and rounds are booked as recovery *overhead* (they are
  not protocol CC); epoch stats merge via :meth:`SimStats.absorb`.

The orchestrator returns a :class:`RecoveryOutcome` whose
``partial`` field is a :class:`repro.resilience.partial.PartialAggregateResult`:
exact when nothing went wrong, a certified partial over the surviving
component after a successful failover, and an uncertified best-effort
value when any recovery budget was exhausted against live peers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..adversary.schedule import FailureSchedule
from ..graphs.topology import Topology
from ..integrity.frames import (
    IntegrityConfig,
    IntegrityCoordinator,
    as_integrity,
    corruption_columns,
    integrity_columns,
)
from ..sim.faults import ledger_sources
from ..sim.message import Part, TAG_BITS, id_bits
from ..sim.network import Network
from ..sim.node import NodeHandler
from ..sim.stats import SimStats
from .partial import PartialAggregateResult, certify
from .transport import ReliableTransport, TransportConfig, overlay_network

ELECT_KIND = "elect"

#: Protocols the failover orchestrator knows how to restart.
RECOVERABLE_PROTOCOLS = ("algorithm1", "unknown_f")


@dataclass(frozen=True)
class RecoveryPolicy:
    """What the self-healing runtime is allowed to do.

    Attributes:
        transport: Reliable-transport config for every epoch (and the
            elections); ``None`` runs the raw lossy network.
        failover: Whether a dead root triggers election + re-run.
        max_epochs: Total protocol epochs (first run included).
        election_stretch: Election flood horizon in units of the
            topology diameter (the bounded-flood budget).
        integrity: Authenticated-frame config for every epoch (and the
            elections); ``None`` (or mode ``"off"``) runs without
            integrity verification.
    """

    transport: Optional[TransportConfig] = None
    failover: bool = True
    max_epochs: int = 3
    election_stretch: int = 2
    integrity: Optional[IntegrityConfig] = None

    def __post_init__(self) -> None:
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.election_stretch < 1:
            raise ValueError(
                f"election_stretch must be >= 1, got {self.election_stretch}"
            )

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

    def as_jsonable(self) -> Dict[str, object]:
        return {
            "transport": self.transport.as_jsonable() if self.transport else None,
            "failover": self.failover,
            "max_epochs": self.max_epochs,
            "election_stretch": self.election_stretch,
            "integrity": self.integrity.as_jsonable() if self.integrity else None,
        }

    @classmethod
    def from_jsonable(cls, data: Dict[str, object]) -> "RecoveryPolicy":
        transport = data.get("transport")
        integrity = data.get("integrity")
        return cls(
            transport=TransportConfig.from_jsonable(transport)
            if transport
            else None,
            failover=bool(data.get("failover", True)),
            max_epochs=int(data.get("max_epochs", 3)),
            election_stretch=int(data.get("election_stretch", 2)),
            integrity=IntegrityConfig.from_jsonable(integrity)
            if integrity
            else None,
        )


class ElectionNode(NodeHandler):
    """Min-id flood: every candidate floods its id; everyone keeps the min."""

    def __init__(self, node_id: int, is_candidate: bool, bits_per_id: int) -> None:
        self.node_id = node_id
        self.bits_per_id = bits_per_id
        self.best: Optional[int] = node_id if is_candidate else None
        self._announce = is_candidate

    def on_round(self, rnd: int, inbox) -> List[Part]:
        for envelope in inbox:
            if envelope.part.kind != ELECT_KIND:
                continue
            (candidate,) = envelope.part.payload
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
class EpochReport:
    """One protocol epoch inside a recovery run."""

    epoch: int
    root: int
    n_nodes: int
    rounds: int
    result: Optional[int]
    root_crashed: bool


@dataclass
class ElectionReport:
    """One election between epochs."""

    old_root: int
    elected: int
    candidates: Tuple[int, ...]
    rounds: int
    agreed: bool


@dataclass
class RecoveryOutcome:
    """Everything a recovery run produced."""

    partial: PartialAggregateResult
    stats: SimStats
    rounds: int
    epochs: List[EpochReport]
    elections: List[ElectionReport] = field(default_factory=list)
    transports: List[ReliableTransport] = field(default_factory=list)
    #: The last epoch's network (effective crash map, liveness queries).
    network: Optional[Network] = None

    @property
    def result(self) -> Optional[int]:
        return self.partial.value


def _shift_crash_map(
    crash_rounds: Dict[int, float], elapsed: int, nodes
) -> Dict[int, int]:
    """Re-base a crash map after ``elapsed`` executed physical rounds.

    Nodes already dead come back as crash round 1 (dead from the first
    round of the next phase); pending crashes keep their remaining fuse.
    Same idiom as the AGG->VERI schedule shift in ``run_agg_veri_pair``.
    """
    keep = set(nodes)
    return {
        u: max(1, int(rnd) - elapsed)
        for u, rnd in crash_rounds.items()
        if u in keep and rnd != float("inf")
    }


def _run_election(
    topology: Topology,
    crash_rounds: Dict[int, int],
    candidates: Sequence[int],
    injectors: Sequence,
    policy: RecoveryPolicy,
    integrity: Optional[IntegrityCoordinator] = None,
) -> Tuple[ElectionReport, SimStats]:
    """Flood candidate ids for a bounded horizon; lowest id wins."""
    bits_per_id = id_bits(max(topology.nodes()) + 1)
    candidate_set = set(candidates)
    handlers = {
        u: ElectionNode(u, u in candidate_set, bits_per_id)
        for u in topology.nodes()
    }
    # Elections carry min-id floods: a flipped candidate id would silently
    # elect the wrong root, so they are authenticated too.
    network, window, transport, _ = overlay_network(
        topology,
        handlers,
        crash_rounds,
        transport=policy.transport,
        integrity=integrity,
        injectors=injectors,
    )
    horizon = (policy.election_stretch * topology.diameter + 2) * window + (
        1 if transport else 0
    )
    stats = network.run(horizon, stop_on_output=False)
    elected = min(candidate_set)
    failed = {u for u in topology.nodes() if not network.is_alive(u)}
    if elected in failed:
        agreed = False
    else:
        component = Topology(
            topology.adjacency, name=topology.name, root=elected
        ).alive_component(failed)
        agreed = all(handlers[u].best == elected for u in component)
    report = ElectionReport(
        old_root=topology.root,
        elected=elected,
        candidates=tuple(sorted(candidate_set)),
        rounds=stats.rounds_executed,
        agreed=agreed,
    )
    return report, stats


def _run_epoch(
    protocol: str,
    topology: Topology,
    inputs: Dict[int, int],
    schedule: FailureSchedule,
    *,
    f: Optional[int],
    b: Optional[int],
    c: int,
    caaf,
    rng: Optional[random.Random],
    injectors: Sequence,
    monitors: Sequence,
    transport: Optional[ReliableTransport],
    integrity: Optional[IntegrityCoordinator] = None,
):
    from ..core.algorithm1 import run_algorithm1
    from ..core.unknown_f import run_unknown_f

    if protocol == "algorithm1":
        return run_algorithm1(
            topology,
            inputs,
            f=f if f is not None else 0,
            b=b if b is not None else 21 * c,
            schedule=schedule,
            c=c,
            caaf=caaf,
            rng=rng,
            injectors=injectors,
            monitors=monitors,
            transport=transport,
            integrity=integrity,
            allow_root_crash=True,
        )
    if protocol == "unknown_f":
        return run_unknown_f(
            topology,
            inputs,
            schedule=schedule,
            c=c,
            caaf=caaf,
            injectors=injectors,
            monitors=monitors,
            transport=transport,
            integrity=integrity,
            allow_root_crash=True,
        )
    raise ValueError(
        f"recovery supports protocols {RECOVERABLE_PROTOCOLS}, got {protocol!r}"
    )


def run_with_recovery(
    protocol: str,
    topology: Topology,
    inputs: Dict[int, int],
    schedule: Optional[FailureSchedule] = None,
    *,
    f: Optional[int] = None,
    b: Optional[int] = None,
    c: int = 2,
    caaf=None,
    rng: Optional[random.Random] = None,
    injectors: Sequence = (),
    monitors: Sequence = (),
    policy: Optional[RecoveryPolicy] = None,
    integrity=None,
) -> RecoveryOutcome:
    """Run ``protocol`` under the self-healing runtime.

    Epochs run until the (current) root terminates with an output or the
    ``policy.max_epochs`` budget is exhausted; between epochs a dead root
    is replaced by the lowest-id live neighbour, elected by bounded
    flood.  The returned outcome's ``partial`` carries the certified
    coverage, bounds, and health status (see
    :mod:`repro.resilience.partial`).
    """
    from ..core.caaf import SUM

    caaf = caaf or SUM
    policy = policy or RecoveryPolicy.default()
    schedule = schedule or FailureSchedule()
    # One coordinator spans every epoch and election, so rejection
    # records accumulate against the (likewise run-long) corruption
    # injector ground truth.  An explicit coordinator argument (from a
    # caller that also wired it into monitors) wins over the policy's.
    integrity = as_integrity(integrity if integrity is not None else policy.integrity)

    combined = SimStats()
    epochs: List[EpochReport] = []
    elections: List[ElectionReport] = []
    transports: List[ReliableTransport] = []
    live_gap_count = 0

    topo, inp, sched = topology, dict(inputs), schedule
    value: Optional[int] = None
    reason = "clean"
    final_network: Optional[Network] = None
    final_topo = topo

    for epoch in range(1, policy.max_epochs + 1):
        transport = (
            ReliableTransport(policy.transport) if policy.transport else None
        )
        outcome = _run_epoch(
            protocol,
            topo,
            inp,
            sched,
            f=f,
            b=b,
            c=c,
            caaf=caaf,
            rng=rng,
            injectors=injectors,
            monitors=monitors,
            transport=transport,
            integrity=integrity,
        )
        network = outcome.network
        combined.absorb(outcome.stats)
        if transport is not None:
            transports.append(transport)
            # Quarantined links count as live gaps on purpose: the
            # receiver stopped listening, so any protocol frame starved
            # by the quarantine is real data loss and must decertify the
            # result (a quarantine never excuses a wrong answer into a
            # certified one).
            live_gap_count += len(transport.live_gaps(network))
        root_crashed = not network.is_alive(topo.root)
        epochs.append(
            EpochReport(
                epoch=epoch,
                root=topo.root,
                n_nodes=topo.n_nodes,
                rounds=outcome.rounds,
                result=outcome.result,
                root_crashed=root_crashed,
            )
        )
        final_network, final_topo = network, topo

        if outcome.result is not None:
            value = outcome.result
            reason = "recovered" if epoch > 1 else "clean"
            break
        if not root_crashed:
            reason = "protocol produced no output"
            break
        if not policy.failover:
            reason = "root crashed (failover disabled)"
            break
        if epoch == policy.max_epochs:
            reason = "failover budget exhausted"
            break

        # ---- elect a replacement root among live neighbours ---------- #
        live = {u for u in topo.nodes() if network.is_alive(u)}
        candidates = [v for v in topo.adjacency[topo.root] if v in live]
        if not candidates:
            reason = "no live neighbour of the crashed root"
            break
        election_crashes = _shift_crash_map(
            network.crash_rounds, outcome.rounds, topo.nodes()
        )
        report, election_stats = _run_election(
            topo, election_crashes, candidates, injectors, policy, integrity
        )
        combined.absorb(election_stats, as_overhead=True)
        elections.append(report)

        # ---- rebuild the world around the elected root --------------- #
        elapsed = outcome.rounds + report.rounds
        still_live = {
            u
            for u in topo.nodes()
            if network.crash_rounds.get(u, float("inf")) > elapsed
        }
        if report.elected not in still_live:
            reason = "elected root crashed during election"
            break
        component = Topology(
            topo.adjacency, name=topo.name, root=report.elected
        ).alive_component(set(topo.nodes()) - still_live)
        sub_adjacency = {
            u: [v for v in topo.adjacency[u] if v in component]
            for u in component
        }
        topo = Topology(
            sub_adjacency,
            name=f"{topo.name}+failover{epoch}",
            root=report.elected,
        )
        inp = {u: inp[u] for u in component}
        sched = FailureSchedule(
            _shift_crash_map(network.crash_rounds, elapsed, component)
        )

    elected_root = elections[-1].elected if elections else None
    elections_agreed = all(e.agreed for e in elections)
    certified = value is not None and live_gap_count == 0 and elections_agreed
    if value is not None and not elections_agreed:
        reason += "; election diverged"
    if value is not None and live_gap_count:
        reason += f"; {live_gap_count} unexcused transport gap(s)"
    # Integrity ladder: any delivered corruption the integrity layer never
    # rejected clears the integrity-verified bit (certify() decertifies).
    corruption = ledger_sources(injectors, "delivered_corruptions")
    extra = {"elections": len(elections)}
    extra.update(corruption_columns(corruption, integrity))
    extra.update(integrity_columns(integrity))
    unresolved = extra.get("unresolved_corruptions", 0)

    if final_network is not None and final_network.is_alive(final_topo.root):
        failed = {
            u for u in final_topo.nodes() if not final_network.is_alive(u)
        }
        survivors = final_topo.alive_component(failed)
    else:
        survivors = set()
    partial = certify(
        value,
        all_nodes=topology.nodes(),
        covered=survivors,
        inputs=inputs,
        caaf=caaf,
        certified=certified,
        reason=reason,
        epochs=len(epochs),
        elected_root=elected_root,
        overhead_bits=combined.max_overhead_bits,
        live_gaps=live_gap_count,
        unresolved_corruptions=unresolved,
        extra=extra,
    )
    return RecoveryOutcome(
        partial=partial,
        stats=combined,
        rounds=combined.rounds_executed,
        epochs=epochs,
        elections=elections,
        transports=transports,
        network=final_network,
    )
