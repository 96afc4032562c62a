"""The brute-force SUM baseline from the paper's introduction.

"A brute-force SUM protocol, which has every node flood its id together
with its value to the whole network, can tolerate arbitrary number of
failures, while incurring O(1) TC and O(N logN) CC."

The root floods a start bit; upon first receiving it every node floods
``(id, input)``; after ``2c`` flooding rounds the root aggregates one value
per distinct id.  Algorithm 1 uses this protocol as its final-2c-flooding-
rounds fallback (executed with probability at most ``1/N``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..adversary.schedule import FailureSchedule
from ..graphs.topology import Topology
from ..sim.flooding import FloodManager
from ..sim.message import TAG_BITS, Envelope, Part
from ..sim.network import Network
from ..sim.node import NodeHandler
from ..sim.stats import SimStats
from ..core.caaf import CAAF, SUM
from ..core.params import ProtocolParams, params_for

BF_FLOOD_KINDS = frozenset({"bf_start", "bf_value"})


def bf_start(p: ProtocolParams) -> Part:
    """The start bit the root floods to trigger everyone's value flood."""
    return Part("bf_start", (), TAG_BITS + p.id_bits + 1)


def bf_value(p: ProtocolParams, node: int, value: int) -> Part:
    """A node's flooded ``(id, input)`` pair."""
    bits = TAG_BITS + 2 * p.id_bits + p.psum_bits
    return Part("bf_value", (node, value), bits)


class BruteForceNode(NodeHandler):
    """Per-node handler for the brute-force protocol.

    The execution spans ``2cd`` rounds from ``start_round``; the root's
    result is available at the end.
    """

    def __init__(
        self,
        params: ProtocolParams,
        node_id: int,
        my_input: int,
        start_round: int = 1,
    ) -> None:
        self.p = params
        self.node_id = node_id
        self.is_root = node_id == params.root
        self.my_value = params.caaf.prepare(my_input)
        self.start_round = start_round
        self.floods = FloodManager(BF_FLOOD_KINDS)
        #: ``2c`` flooding rounds, as in the paper's analysis.
        self.total_rounds = 2 * params.cd
        self.values: Dict[int, int] = {}
        self.done = False
        self.result: Optional[int] = None

    def on_round(self, rnd: int, inbox: Sequence[Envelope]) -> List[Part]:
        rel = rnd - self.start_round + 1
        if rel < 1 or rel > self.total_rounds:
            return []

        fresh = self.floods.absorb(inbox)
        started = any(part.kind == "bf_start" for part in fresh)
        for part in fresh:
            if part.kind == "bf_value":
                node, value = part.payload
                self.values.setdefault(node, value)

        if self.is_root and rel == 1:
            self.floods.initiate(bf_start(self.p))
            self._flood_own_value()
        elif started and not self.is_root:
            self._flood_own_value()

        out = self.floods.emit()
        if self.is_root and rel == self.total_rounds:
            self.result = self.p.caaf.combine(self.values.values())
            self.done = True
        return out

    def next_wake(self, rnd: int) -> Optional[int]:
        """Only the root has slots (its start and its output); every
        other node acts on the start flood alone."""
        if not self.is_root or rnd >= self.start_round - 1 + self.total_rounds:
            return None
        if rnd < self.start_round:
            return self.start_round
        return self.start_round - 1 + self.total_rounds

    def _flood_own_value(self) -> None:
        if self.floods.initiate(bf_value(self.p, self.node_id, self.my_value)):
            self.values.setdefault(self.node_id, self.my_value)

    def wants_to_stop(self) -> bool:
        return self.done


@dataclass
class BaselineOutcome:
    """Result of a standalone baseline execution."""

    result: Optional[int]
    stats: SimStats
    rounds: int
    network: Network


def run_bruteforce(
    topology: Topology,
    inputs: Dict[int, int],
    schedule: Optional[FailureSchedule] = None,
    c: int = 2,
    caaf: CAAF = SUM,
    injectors=(),
) -> BaselineOutcome:
    """Run the brute-force protocol once.

    ``injectors`` are forwarded to the :class:`repro.sim.network.Network`.
    """
    schedule = schedule or FailureSchedule()
    schedule.validate(topology)
    params = params_for(
        topology, t=0, c=c, caaf=caaf, max_input=max(list(inputs.values()) + [1])
    )
    nodes = {
        u: BruteForceNode(params, u, inputs[u]) for u in topology.nodes()
    }
    network = Network(
        topology.adjacency,
        nodes,
        schedule.crash_rounds,
        injectors=injectors,
        root=topology.root,
    )
    stats = network.run(2 * params.cd, stop_on_output=False)
    root = nodes[topology.root]
    return BaselineOutcome(
        result=root.result,
        stats=stats,
        rounds=stats.rounds_executed,
        network=network,
    )
