"""Two-party simulation of distributed protocols across a graph cut.

This is the *mechanism* behind Section 7's lower bound: a SUM protocol on a
topology whose node set splits into an Alice side and a Bob side yields a
two-party protocol — Alice simulates her nodes, Bob his, and the only
communication they need is the messages broadcast by nodes adjacent to the
cut.  Hence any two-party lower bound on a problem encodable into inputs /
failures on the two sides lower-bounds the distributed protocol's
communication across the cut, and (dividing by the number of cut nodes and
rounds) its per-node CC.

We implement the simulation harness generically: run any
:class:`repro.sim.node.NodeHandler` protocol under a cut partition and
account, per round, every bit that must cross between the two simulators.
The bench (E13) uses it on bottleneck topologies to compare measured
cut-crossing traffic with the Theorem 2 terms.

Note: [4]'s specific promise-to-failures gadget is not reproduced in this
paper's text; this harness executes the simulation argument itself, which
is the step both papers share (documented in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Optional, Set, Tuple

from ..graphs.topology import Topology
from ..sim.network import Network
from ..sim.node import NodeHandler
from ..sim.trace import SendTracer


@dataclass
class CutTranscript:
    """Bits exchanged between the two simulating parties."""

    alice_to_bob_bits: int = 0
    bob_to_alice_bits: int = 0
    rounds: int = 0
    per_round: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def total_bits(self) -> int:
        return self.alice_to_bob_bits + self.bob_to_alice_bits


class CutSimulation:
    """Runs a protocol while accounting cross-cut communication.

    Args:
        topology: The full graph.
        handlers: One handler per node (any protocol).
        alice_nodes: The node set Alice simulates; Bob gets the rest.
        crash_rounds: Optional oblivious failure schedule.

    The simulation is *exact*: it simply runs the real network and charges
    to the transcript every part broadcast by a node with at least one
    neighbour on the other side (that broadcast must be shipped to the
    other simulator verbatim for it to stay in sync — the standard
    simulation argument).
    """

    def __init__(
        self,
        topology: Topology,
        handlers: Mapping[int, NodeHandler],
        alice_nodes: Iterable[int],
        crash_rounds: Optional[Mapping[int, int]] = None,
    ) -> None:
        self.topology = topology
        self.alice: Set[int] = set(alice_nodes)
        unknown = self.alice - set(topology.adjacency)
        if unknown:
            raise ValueError(f"alice_nodes outside the graph: {sorted(unknown)}")
        self.bob: Set[int] = set(topology.adjacency) - self.alice
        if not self.alice or not self.bob:
            raise ValueError("both sides of the cut must be non-empty")
        #: Nodes whose broadcasts cross the cut.
        self.boundary: Set[int] = {
            u
            for u in topology.adjacency
            if any(
                (v in self.bob) if u in self.alice else (v in self.alice)
                for v in topology.neighbours(u)
            )
        }
        self.tracer = SendTracer()
        self.network = Network(
            topology.adjacency, handlers, crash_rounds, injectors=[self.tracer]
        )
        self.transcript = CutTranscript()

    @property
    def cut_edges(self) -> List[Tuple[int, int]]:
        """Edges with endpoints on different sides."""
        return [
            (u, v)
            for (u, v) in self.topology.edges()
            if (u in self.alice) != (v in self.alice)
        ]

    def run(self, max_rounds: int, stop_on_output: bool = True) -> CutTranscript:
        """Run the protocol, filling the cut transcript."""
        for _ in range(max_rounds):
            first = len(self.tracer.sends)
            self.network.step()
            a2b = b2a = 0
            for event in self.tracer.sends[first:]:
                if event.node not in self.boundary:
                    continue
                if event.node in self.alice:
                    a2b += event.bits
                else:
                    b2a += event.bits
            self.transcript.alice_to_bob_bits += a2b
            self.transcript.bob_to_alice_bits += b2a
            self.transcript.per_round.append((a2b, b2a))
            self.transcript.rounds = self.network.round
            if stop_on_output and self.network.stop_requested():
                break
        return self.transcript


def split_by_bfs_half(topology: Topology) -> Set[int]:
    """A canonical cut: the root-closest half of the nodes (Alice's side).

    On bottleneck shapes (paths, barbells) this isolates the bridge, which
    is where the lower-bound pressure concentrates.
    """
    ordered = sorted(topology.nodes(), key=lambda u: (topology.levels[u], u))
    half = len(ordered) // 2
    return set(ordered[:half])


def per_node_cut_lower_bound(
    transcript: CutTranscript, n_boundary_nodes: int
) -> float:
    """The simulation argument's final step: cut traffic divided by the
    number of boundary nodes lower-bounds some node's total sends."""
    if n_boundary_nodes < 1:
        raise ValueError("need at least one boundary node")
    return transcript.total_bits / n_boundary_nodes
