"""Ground-truth oracle for AGG's fragment / representative-set concepts.

Section 4.1 of the paper defines, with respect to an aggregation tree and a
failure pattern: *critical failures* (a node dying between its ack and its
aggregation slot), *visible* critical failures (whose parent's flooded
claim reaches the root), *fragments* (the tree split at visible critical
failures), *local ancestors/descendants*, *representatives*, and
*representative sets* — the object whose aggregate is provably correct.

AGG computes all of this implicitly with 2t-ancestor lists and witnesses.
This module computes it *explicitly* from global knowledge (the predicted
tree plus the failure schedule), giving tests an independent oracle to
check AGG's distributed selection against, and giving users a vocabulary
for inspecting executions.

Validity: the oracle assumes tree construction finished before the first
crash (crash round > construction span), which all chain/blocker adversary
constructors satisfy; it classifies each failed node as a critical failure
by comparing its crash round against its aggregation slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..adversary.adversaries import predicted_tree
from ..adversary.schedule import FailureSchedule
from ..graphs.topology import Topology
from .params import ProtocolParams


@dataclass
class FragmentModel:
    """Global view of one AGG execution's tree/fragment structure."""

    topology: Topology
    parent: Dict[int, int]
    children: Dict[int, List[int]]
    levels: Dict[int, int]
    #: Nodes that critically failed (died after acking, before their slot).
    critical_failures: Set[int]
    #: Critical failures whose parent survived long enough to flood the
    #: claim and whose claim can reach the root (parent alive at the slot).
    visible_critical_failures: Set[int]
    #: node -> fragment local root.
    fragment_of: Dict[int, int]

    def local_ancestors(self, node: int) -> List[int]:
        """The node's ancestors within its fragment (nearest first)."""
        out = []
        frag = self.fragment_of[node]
        walker = node
        while walker != frag:
            walker = self.parent[walker]
            out.append(walker)
        return out

    def local_descendants(self, node: int) -> Set[int]:
        """The node's descendants within its fragment."""
        frag = self.fragment_of[node]
        out = set()
        stack = [node]
        while stack:
            u = stack.pop()
            for child in self.children[u]:
                if self.fragment_of.get(child) == frag:
                    out.add(child)
                    stack.append(child)
        return out

    def representatives_of(self, node: int, invisible: Set[int]) -> List[int]:
        """Nodes whose partial sum *represents* ``node`` (Section 4.1):
        itself plus each local ancestor whose downward tree path to ``node``
        crosses no invisible critical failure."""
        reps = [node]
        path: List[int] = []
        for ancestor in self.local_ancestors(node):
            if any(mid in invisible for mid in path):
                break
            reps.append(ancestor)
            path.append(ancestor)
        # Trim: a representative is disqualified if a strictly-between node
        # is an invisible critical failure; ``path`` tracking above already
        # enforces that by breaking at the first invisible hop.
        return reps


def build_fragment_model(
    topology: Topology,
    schedule: FailureSchedule,
    params: ProtocolParams,
    agg_start_round: int = 1,
) -> FragmentModel:
    """Compute the oracle fragment structure for one AGG execution."""
    parent, children = predicted_tree(topology)
    levels = topology.levels
    cd = params.cd

    construction_end = agg_start_round + 2 * cd
    aggregation_start = construction_end + 1

    def slot_round(node: int) -> int:
        """Absolute round of the node's aggregation action."""
        return aggregation_start + (cd - levels[node] + 1) - 1

    critical: Set[int] = set()
    for node in schedule.failed_nodes:
        if node == topology.root or node not in levels:
            continue
        crash = schedule.crash_round(node)
        if crash <= construction_end:
            # Died during construction: treat as critical iff it had time
            # to ack (activation round 2*level within the phase).
            activation = agg_start_round + 2 * levels[node] - 1
            if crash > activation:
                critical.add(node)
        elif crash <= slot_round(node):
            critical.add(node)

    visible: Set[int] = set()
    for node in critical:
        p = parent[node]
        if p == -1:
            continue
        # The parent flags the missing child at its own slot; the claim is
        # visible if the parent is alive then (flood initiation suffices:
        # the root side is connected through alive nodes by assumption).
        if p == topology.root or schedule.crash_round(p) > slot_round(p):
            visible.add(node)

    fragment_of: Dict[int, int] = {}

    def assign(node: int, frag: int) -> None:
        fragment_of[node] = frag
        for child in children[node]:
            if child in visible:
                assign(child, child)  # new fragment under the cut edge
            else:
                assign(child, frag)

    assign(topology.root, topology.root)

    return FragmentModel(
        topology=topology,
        parent=parent,
        children=children,
        levels=levels,
        critical_failures=critical,
        visible_critical_failures=visible,
        fragment_of=fragment_of,
    )


def psum_members(
    model: FragmentModel,
    schedule: FailureSchedule,
    source: int,
    params: ProtocolParams,
    agg_start_round: int = 1,
) -> Set[int]:
    """Which nodes' inputs ``source``'s partial sum includes.

    A descendant ``u`` contributes iff every node on the tree path from
    ``u`` up to (and excluding) ``source`` — and ``u`` itself — was alive at
    its own aggregation slot, so the chain of upstream messages went
    through.  ``source`` always includes its own input.
    """
    cd = params.cd
    aggregation_start = agg_start_round + 2 * cd + 1

    def alive_at_slot(node: int) -> bool:
        slot = aggregation_start + (cd - model.levels[node] + 1) - 1
        return schedule.crash_round(node) > slot

    members = {source}

    def walk(node: int) -> None:
        for child in model.children[node]:
            if alive_at_slot(child):
                members.add(child)
                walk(child)

    walk(source)
    return members


def oracle_representative_set_is_valid(
    model: FragmentModel,
    selected_sources: Set[int],
    psum_members: Dict[int, Set[int]],
    alive_at_end: Set[int],
) -> Tuple[bool, str]:
    """Check the representative-set property of a selected psum collection.

    ``psum_members[source]`` is the set of nodes whose inputs ``source``'s
    partial sum includes.  The definition (Section 4.1): every node alive at
    the end is covered exactly once; no node is covered more than once.

    Returns ``(ok, reason)``.
    """
    coverage: Dict[int, int] = {}
    for source in selected_sources:
        for member in psum_members[source]:
            coverage[member] = coverage.get(member, 0) + 1
    for node, count in coverage.items():
        if count > 1:
            return False, f"node {node} counted {count} times"
    for node in alive_at_end:
        if coverage.get(node, 0) != 1:
            return False, f"alive node {node} covered {coverage.get(node, 0)} times"
    return True, "ok"
