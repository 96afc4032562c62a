"""Oblivious crash-failure schedules (the paper's failure model).

The adversary "adversarially decides beforehand (i.e., before the protocol
flips any coins) which nodes fail at what time" (Section 2).  A schedule is
therefore a fixed map from node id to the first round in which the node is
dead.  An edge *fails* iff at least one endpoint crashes; ``f`` bounds the
total number of edge failures.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Set

from ..graphs.topology import Topology
from ..sim.network import ROOT_CRASH_ERROR


class FailureSchedule:
    """A fixed assignment of crash rounds to (non-root) nodes."""

    def __init__(self, crash_rounds: Optional[Mapping[int, int]] = None) -> None:
        self.crash_rounds: Dict[int, int] = {}
        for node, rnd in (crash_rounds or {}).items():
            self.add(node, rnd)

    def add(self, node: int, rnd: int) -> "FailureSchedule":
        """Schedule ``node`` to be dead from round ``rnd`` on."""
        if rnd < 1:
            raise ValueError(f"crash round must be >= 1, got {rnd}")
        existing = self.crash_rounds.get(node)
        self.crash_rounds[node] = rnd if existing is None else min(existing, rnd)
        return self

    def crash_round(self, node: int) -> float:
        """First dead round for ``node`` (infinity if it never crashes)."""
        return self.crash_rounds.get(node, math.inf)

    @property
    def failed_nodes(self) -> Set[int]:
        """All nodes that crash at some point."""
        return set(self.crash_rounds)

    def failed_by(self, rnd: int) -> Set[int]:
        """Nodes dead in round ``rnd`` (i.e. with crash round <= rnd)."""
        return {u for u, r in self.crash_rounds.items() if r <= rnd}

    def failures_in_window(self, start: int, end: int) -> Set[int]:
        """Nodes whose crash round falls in ``[start, end]``."""
        return {u for u, r in self.crash_rounds.items() if start <= r <= end}

    def edge_failures(self, topology: Topology) -> int:
        """Total edge failures: edges with at least one crashed endpoint."""
        return topology.edges_incident(self.failed_nodes)

    def edge_failures_in_window(
        self, topology: Topology, start: int, end: int
    ) -> int:
        """Edge failures attributable to crashes inside ``[start, end]``.

        An edge is counted iff its *first* failing endpoint crashes inside
        the window — so summing disjoint windows never double counts and
        totals :meth:`edge_failures`.
        """
        count = 0
        for u, v in topology.edges():
            first = min(self.crash_round(u), self.crash_round(v))
            if start <= first <= end:
                count += 1
        return count

    def validate(
        self,
        topology: Topology,
        f: Optional[int] = None,
        allow_root_crash: bool = False,
    ) -> None:
        """Check the schedule against the paper's model constraints.

        * the root never fails (skipped under ``allow_root_crash``, the
          opt-in used by the :mod:`repro.resilience` failover layer);
        * all failing nodes exist in the topology;
        * if ``f`` is given, the edge-failure budget is respected.
        """
        if topology.root in self.crash_rounds and not allow_root_crash:
            raise ValueError(ROOT_CRASH_ERROR)
        unknown = self.failed_nodes - set(topology.adjacency)
        if unknown:
            raise ValueError(f"schedule names unknown nodes: {sorted(unknown)}")
        if f is not None:
            used = self.edge_failures(topology)
            if used > f:
                raise ValueError(
                    f"schedule uses {used} edge failures, budget is {f}"
                )

    def respects_c_constraint(self, topology: Topology, c: int) -> bool:
        """Whether ``diam(H) <= c * d`` holds after every crash time.

        ``H`` is the root's remaining component.  The paper assumes failures
        never blow the diameter past ``c * d`` for a known constant ``c``.
        """
        bound = c * topology.diameter
        crash_times = sorted(set(self.crash_rounds.values()))
        return all(
            topology.remaining_diameter_at_most(self.failed_by(when), bound)
            for when in crash_times
        )

    def __len__(self) -> int:
        return len(self.crash_rounds)

    def __repr__(self) -> str:
        items = sorted(self.crash_rounds.items())
        return f"FailureSchedule({items!r})"
