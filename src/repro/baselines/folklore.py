"""The folklore repeated-tree-aggregation baseline and plain TAG.

"There is also a folklore SUM protocol that tolerates failures by
repeatedly invoking the naive tree-aggregation protocol until it
experiences a failure-free run.  This incurs O(f) TC and O(f logN) CC."

Each epoch rebuilds a BFS spanning tree and aggregates upstream while
piggy-backing a *failure flag*: a parent that misses an acknowledged
child's slot sets the flag, and flags OR together on the way up.  The root
accepts the epoch's sum iff no flag (and no missing child of its own) was
seen; otherwise it starts another epoch.  Every flagged epoch witnesses at
least one fresh crash, so at most ``f + 1`` epochs run.

Plain TAG — the non-fault-tolerant tree aggregation of Madden et al. that
the paper cites as unable to tolerate failures — is the same machinery with
a single epoch and no flag check; we use it to measure how often naive
aggregation silently loses inputs under crashes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..adversary.schedule import FailureSchedule
from ..graphs.topology import Topology
from ..sim.message import TAG_BITS, Envelope, Part
from ..sim.network import Network
from ..sim.node import NodeHandler
from ..sim.stats import SimStats
from ..core.caaf import CAAF, SUM
from ..core.params import ProtocolParams, params_for
from .bruteforce import BaselineOutcome


def _tc_part(p: ProtocolParams, level: int) -> Part:
    return Part("fl_tree", (level,), TAG_BITS + p.id_bits + p.level_bits)


def _ack_part(p: ProtocolParams, parent: int) -> Part:
    return Part("fl_ack", (parent,), TAG_BITS + 2 * p.id_bits)


def _agg_part(p: ProtocolParams, psum: int, flag: bool) -> Part:
    bits = TAG_BITS + p.id_bits + p.psum_bits + 1
    return Part("fl_agg", (psum, flag), bits)


class TreeEpochNode(NodeHandler):
    """One node of the (repeated) tree-aggregation protocol.

    Epoch layout (``2cd + 2`` rounds each):

    * rounds ``1 .. cd+1``: construction — the root beacons in round 1; a
      node adopting a parent at its first beacon acks and re-beacons in the
      same round, so a level-``l`` node activates in round ``l + 1``.
    * rounds ``cd+2 .. 2cd+2``: aggregation — a level-``l`` node sends its
      partial aggregate (and OR-ed failure flag) in round
      ``cd + 1 + (cd - l + 1)``.

    Epochs repeat (``max_epochs`` total) until the root sees a clean run.
    Non-root nodes act only when beaconed, so once the root stops, the
    network is silent.
    """

    def __init__(
        self,
        params: ProtocolParams,
        node_id: int,
        my_input: int,
        max_epochs: int,
        require_clean: bool = True,
    ) -> None:
        self.p = params
        self.node_id = node_id
        self.is_root = node_id == params.root
        self.my_value = params.caaf.prepare(my_input)
        self.max_epochs = max_epochs
        self.require_clean = require_clean
        self.done = False
        self.result: Optional[int] = None
        self.epochs_used = 0
        self._reset_epoch()

    @property
    def epoch_rounds(self) -> int:
        return 2 * self.p.cd + 2

    def _reset_epoch(self) -> None:
        self.level: Optional[int] = 0 if self.is_root else None
        self.parent: Optional[int] = None
        self.children: set = set()
        self.psum = self.my_value
        self.flag = False
        self._pending_beacon = False

    def on_round(self, rnd: int, inbox: Sequence[Envelope]) -> List[Part]:
        if self.done:
            return []
        epoch_index, rel = divmod(rnd - 1, self.epoch_rounds)
        rel += 1
        if epoch_index >= self.max_epochs:
            return []
        if rel == 1:
            self._reset_epoch()
            if self.is_root:
                self.epochs_used = epoch_index + 1

        out: List[Part] = []
        cd = self.p.cd
        if rel <= cd + 1:
            self._construction_round(rel, inbox, out)
        else:
            self._aggregation_round(rel - (cd + 1), inbox, out)

        if self.is_root and rel == self.epoch_rounds:
            clean = not self.flag
            last_chance = epoch_index == self.max_epochs - 1
            if clean or not self.require_clean or last_chance:
                self.result = self.psum
                self.done = True
        return out

    def _construction_round(
        self, rel: int, inbox: Sequence[Envelope], out: List[Part]
    ) -> None:
        if self.is_root and rel == 1:
            out.append(_tc_part(self.p, 0))
        if not self.is_root and self.level is None:
            beacons = [
                (env.sender, part.payload)
                for env in inbox
                for part in env.parts
                if part.kind == "fl_tree"
            ]
            if beacons:
                parent, payload = min(beacons, key=lambda beacon: beacon[0])
                self.level = payload[0] + 1
                self.parent = parent
                out.append(_ack_part(self.p, parent))
                out.append(_tc_part(self.p, self.level))
        for env in inbox:
            for part in env.parts:
                if part.kind == "fl_ack" and part.payload == (self.node_id,):
                    self.children.add(env.sender)

    def _aggregation_round(
        self, q: int, inbox: Sequence[Envelope], out: List[Part]
    ) -> None:
        if self.level is None or self.level > self.p.cd:
            return
        if q != self.p.cd - self.level + 1:
            return
        arrived = {
            env.sender: part.payload
            for env in inbox
            for part in env.parts
            if part.kind == "fl_agg"
        }
        for child in sorted(self.children):
            if child in arrived:
                child_psum, child_flag = arrived[child]
                self.psum = self.p.caaf.op(self.psum, child_psum)
                self.flag = self.flag or child_flag
            else:
                self.flag = True  # an acknowledged child went silent
        if not self.is_root:
            out.append(_agg_part(self.p, self.psum, self.flag))

    def wants_to_stop(self) -> bool:
        return self.done


def run_folklore(
    topology: Topology,
    inputs: Dict[int, int],
    f: int,
    schedule: Optional[FailureSchedule] = None,
    c: int = 2,
    caaf: CAAF = SUM,
    injectors=(),
) -> BaselineOutcome:
    """Run the folklore protocol: up to ``f + 1`` tree epochs.

    The final epoch's result is accepted unconditionally — with at most
    ``f`` edge failures, at least one of the ``f + 1`` epochs is
    failure-free, so the accepted epoch is clean.
    """
    schedule = schedule or FailureSchedule()
    schedule.validate(topology, f=f)
    params = params_for(
        topology, t=0, c=c, caaf=caaf, max_input=max(list(inputs.values()) + [1])
    )
    nodes = {
        u: TreeEpochNode(params, u, inputs[u], max_epochs=f + 1)
        for u in topology.nodes()
    }
    network = Network(
        topology.adjacency,
        nodes,
        schedule.crash_rounds,
        injectors=injectors,
        root=topology.root,
    )
    max_rounds = (f + 1) * (2 * params.cd + 2)
    stats = network.run(max_rounds, stop_on_output=True)
    root = nodes[topology.root]
    return BaselineOutcome(
        result=root.result,
        stats=stats,
        rounds=stats.rounds_executed,
        network=network,
    )


def run_plain_tag(
    topology: Topology,
    inputs: Dict[int, int],
    schedule: Optional[FailureSchedule] = None,
    c: int = 2,
    caaf: CAAF = SUM,
    injectors=(),
) -> BaselineOutcome:
    """Run a single non-fault-tolerant tree aggregation (TAG).

    Under failures the result may be incorrect — this is the reference
    point motivating the whole paper.
    """
    schedule = schedule or FailureSchedule()
    schedule.validate(topology)
    params = params_for(
        topology, t=0, c=c, caaf=caaf, max_input=max(list(inputs.values()) + [1])
    )
    nodes = {
        u: TreeEpochNode(
            params, u, inputs[u], max_epochs=1, require_clean=False
        )
        for u in topology.nodes()
    }
    network = Network(
        topology.adjacency,
        nodes,
        schedule.crash_rounds,
        injectors=injectors,
        root=topology.root,
    )
    stats = network.run(2 * params.cd + 2, stop_on_output=True)
    root = nodes[topology.root]
    return BaselineOutcome(
        result=root.result,
        stats=stats,
        rounds=stats.rounds_executed,
        network=network,
    )
