"""Push-sum gossip: the *approximate* aggregation family the paper contrasts.

The introduction cites gossip-based aggregation (Kempe et al. [8],
Mosk-Aoyama & Shah [13]) among the approaches that allow bounded error.
We implement broadcast push-sum on the paper's model as a contrast
baseline: every node holds a mass pair ``(s, w)`` (value and weight),
keeps half each round, and spreads the other half equally over its
neighbours; ``s/w`` converges to the global average and ``N * s/w``
estimates SUM.

Two properties the benchmark story needs:

* failure-free, the relative error decays geometrically with rounds —
  gossip is genuinely cheap and accurate *without* crashes;
* a crash destroys in-flight and resident mass, permanently biasing the
  estimate — gossip's answer can leave the correctness interval, which is
  exactly the failure mode the paper's zero-error protocols exclude.

Values travel as fixed-point numbers (``FIXED_POINT_BITS`` per field), so
the CC accounting stays honest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..adversary.schedule import FailureSchedule
from ..core.caaf import SUM
from ..graphs.topology import Topology
from ..sim.message import TAG_BITS, Envelope, Part, id_bits
from ..sim.network import Network
from ..sim.node import NodeHandler
from ..sim.stats import SimStats

#: Fixed-point width per mass field on the wire.
FIXED_POINT_BITS = 32


def gossip_part(n_nodes: int, share_s: float, share_w: float) -> Part:
    """One round's broadcast: the per-neighbour mass share."""
    bits = TAG_BITS + id_bits(n_nodes) + 2 * FIXED_POINT_BITS
    return Part("gossip", (round(share_s, 9), round(share_w, 9)), bits)


class PushSumNode(NodeHandler):
    """Broadcast push-sum: keep half the mass, share half with neighbours."""

    def __init__(
        self,
        node_id: int,
        n_nodes: int,
        my_input: int,
        degree: int,
        rounds: int,
    ) -> None:
        self.node_id = node_id
        self.n_nodes = n_nodes
        self.degree = max(1, degree)
        self.rounds = rounds
        self.s = float(my_input)
        self.w = 1.0
        self.estimates: List[float] = []

    def on_round(self, rnd: int, inbox: Sequence[Envelope]) -> List[Part]:
        for env in inbox:
            for part in env.parts:
                if part.kind == "gossip":
                    share_s, share_w = part.payload
                    self.s += share_s
                    self.w += share_w
        if rnd > self.rounds:
            return []
        out_s, out_w = self.s / 2, self.w / 2
        self.s -= out_s
        self.w -= out_w
        self.estimates.append(self.average_estimate)
        return [
            gossip_part(
                self.n_nodes, out_s / self.degree, out_w / self.degree
            )
        ]

    @property
    def average_estimate(self) -> float:
        """The node's current estimate of the global average."""
        return self.s / self.w if self.w > 0 else 0.0

    @property
    def sum_estimate(self) -> float:
        """The node's current estimate of the SUM (``N`` is known)."""
        return self.n_nodes * self.average_estimate


@dataclass
class GossipOutcome:
    """Result of one push-sum run, read at the root."""

    estimate: float
    true_sum: int
    rounds: int
    stats: SimStats

    @property
    def relative_error(self) -> float:
        """``|estimate - truth| / truth`` (truth = failure-free SUM)."""
        if self.true_sum == 0:
            return abs(self.estimate)
        return abs(self.estimate - self.true_sum) / abs(self.true_sum)

    def within_correctness_interval(
        self,
        topology: Topology,
        inputs: Dict[int, int],
        schedule: FailureSchedule,
    ) -> bool:
        """Whether the estimate meets the paper's zero-error definition.

        Gossip rounds to the nearest integer for the comparison (the
        definition is over integers).
        """
        from ..core.correctness import is_correct_result

        return is_correct_result(
            round(self.estimate), SUM, topology, inputs, schedule, self.rounds
        )


def run_gossip(
    topology: Topology,
    inputs: Dict[int, int],
    rounds: Optional[int] = None,
    schedule: Optional[FailureSchedule] = None,
    injectors=(),
) -> GossipOutcome:
    """Run broadcast push-sum for ``rounds`` rounds (default ``10 d``).

    ``injectors`` are forwarded to the :class:`repro.sim.network.Network`.
    """
    schedule = schedule or FailureSchedule()
    schedule.validate(topology)
    total_rounds = rounds if rounds is not None else 10 * topology.diameter
    nodes = {
        u: PushSumNode(
            u,
            topology.n_nodes,
            inputs[u],
            topology.degree(u),
            total_rounds,
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
    stats = network.run(total_rounds + 1, stop_on_output=False)
    root = nodes[topology.root]
    return GossipOutcome(
        estimate=root.sum_estimate,
        true_sum=sum(inputs.values()),
        rounds=stats.rounds_executed,
        stats=stats,
    )
