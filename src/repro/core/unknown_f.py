"""Unknown-``f`` extension via the standard doubling trick (early termination).

The paper (Section 1, with details in its full version) notes that the
known-``f`` assumption can be removed with a doubling trick at the cost of a
``logN`` factor in CC, yielding an *early termination* property: the
protocol's overhead automatically scales with the number of failures that
actually occur.

Our reconstruction (documented as such in DESIGN.md): guesses
``t = 1, 2, 4, ..`` each get one interval of ``19c`` flooding rounds running
an AGG + VERI pair with that ``t``.  Accepting a pair requires AGG not to
abort and VERI to say true, which by Theorems 5 and 7 guarantees a correct
result regardless of how wrong the guess was.  Once the guess reaches the
actual number of edge failures, the pair is guaranteed to be accepted
(Theorems 4 and 7), so the protocol stops after ``O(log F)`` intervals with
per-node cost dominated by the last guess — ``O(F logN)`` bits for ``F``
actual edge failures.  After ``ceil(log2 N) + 1`` unsuccessful guesses the
brute-force protocol finishes the job unconditionally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..adversary.schedule import FailureSchedule
from ..graphs.topology import Topology
from ..sim.message import Envelope, Part
from ..sim.network import Network
from ..sim.node import NodeHandler
from ..sim.stats import SimStats
from .agg import AggNode
from .algorithm1 import interval_wake
from .caaf import CAAF, SUM
from .params import ProtocolParams, params_for
from .veri import VeriNode


@dataclass(frozen=True)
class DoublingPlan:
    """Deterministic schedule: guess ``2**k`` in interval ``k`` (0-based)."""

    params: ProtocolParams

    @property
    def max_guesses(self) -> int:
        """``ceil(log2 N) + 1`` guesses reach ``t >= N`` and hence any ``f``."""
        return max(1, math.ceil(math.log2(self.params.n_nodes))) + 1

    @property
    def interval_rounds(self) -> int:
        return 19 * self.params.cd

    def guess_for(self, interval: int) -> int:
        """Tolerance guess for 0-based interval ``interval``."""
        return 1 << interval

    def interval_start(self, interval: int) -> int:
        return interval * self.interval_rounds + 1

    @property
    def bruteforce_start(self) -> int:
        return self.max_guesses * self.interval_rounds + 1

    @property
    def total_rounds(self) -> int:
        return self.max_guesses * self.interval_rounds + 2 * self.params.cd


class DoublingNode(NodeHandler):
    """Per-node handler for the unknown-``f`` doubling protocol.

    The guess schedule is deterministic and known to everyone, so no coins
    are needed; every interval's pair actually runs.
    """

    def __init__(self, plan: DoublingPlan, node_id: int, my_input: int) -> None:
        self.plan = plan
        self.node_id = node_id
        self.my_input = my_input
        self.is_root = node_id == plan.params.root
        self._agg: Optional[AggNode] = None
        self._veri: Optional[VeriNode] = None
        self._bf: Optional[BruteForceNode] = None
        self._current_guess: Optional[int] = None
        self.done = False
        self.result: Optional[int] = None
        self.accepted_guess: Optional[int] = None
        self.pairs_run = 0
        self.used_bruteforce = False

    def on_round(self, rnd: int, inbox: Sequence[Envelope]) -> List[Part]:
        if self.done or rnd > self.plan.total_rounds:
            return []
        out: List[Part] = []
        self._maybe_arm(rnd)
        if self._agg is not None:
            out.extend(self._agg.on_round(rnd, inbox))
        if self._veri is not None:
            out.extend(self._veri.on_round(rnd, inbox))
        if self._bf is not None:
            out.extend(self._bf.on_round(rnd, inbox))
        self._maybe_decide()
        return out

    def next_wake(self, rnd: int) -> Optional[int]:
        return interval_wake(self, rnd, self.plan.max_guesses)

    def _maybe_arm(self, rnd: int) -> None:
        plan = self.plan
        offset = rnd - 1
        if offset % plan.interval_rounds == 0:
            interval = offset // plan.interval_rounds
            if interval < plan.max_guesses:
                guess = plan.guess_for(interval)
                params = plan.params.with_t(guess)
                self._current_guess = guess
                self._veri = None
                self._agg = AggNode(
                    params, self.node_id, self.my_input, start_round=rnd
                )
                if self.is_root:
                    self.pairs_run += 1
        if self._agg is not None:
            agg_rounds = self._agg.p.agg_rounds
            if offset % plan.interval_rounds == agg_rounds:
                self._veri = VeriNode(
                    self._agg.p, self.node_id, self._agg.state, start_round=rnd
                )
        if rnd == plan.bruteforce_start and self._bf is None:
            from ..baselines.bruteforce import BruteForceNode

            self._agg = None
            self._veri = None
            if self.is_root:
                self.used_bruteforce = True
            self._bf = BruteForceNode(
                plan.params, self.node_id, self.my_input, start_round=rnd
            )

    def _maybe_decide(self) -> None:
        if not self.is_root or self.done:
            return
        if self._agg is not None and self._veri is not None and self._veri.done:
            if (not self._agg.aborted) and self._veri.output is True:
                self.result = self._agg.result
                self.accepted_guess = self._current_guess
                self.done = True
            self._agg = None
            self._veri = None
        if self._bf is not None and self._bf.done:
            self.result = self._bf.result
            self.done = True

    def wants_to_stop(self) -> bool:
        return self.done


@dataclass
class DoublingOutcome:
    """Result of one unknown-``f`` doubling execution."""

    result: Optional[int]
    stats: SimStats
    rounds: int
    pairs_run: int
    accepted_guess: Optional[int]
    used_bruteforce: bool
    plan: DoublingPlan
    #: The executed network (exposes the effective crash map, which may
    #: include crashes injected online by adaptive adversaries).
    network: Optional[Network] = None
    #: The reliable-transport coordinator, when the run used one
    #: (:class:`repro.resilience.transport.ReliableTransport`).
    transport: Optional[object] = None
    #: The integrity coordinator, when the run used authenticated frames
    #: (:class:`repro.integrity.frames.IntegrityCoordinator`).
    integrity: Optional[object] = None


def run_unknown_f(
    topology: Topology,
    inputs: Dict[int, int],
    schedule: Optional[FailureSchedule] = None,
    c: int = 2,
    caaf: CAAF = SUM,
    injectors=(),
    monitors=(),
    transport=None,
    integrity=None,
    allow_root_crash: bool = False,
) -> DoublingOutcome:
    """Run the unknown-``f`` doubling protocol once.

    ``injectors`` and ``monitors`` are forwarded to the
    :class:`repro.sim.network.Network`.  ``transport`` runs the protocol
    over the reliable local-broadcast shim (one logical round per
    transport window); ``integrity`` wraps every broadcast in an
    authenticated frame, outermost, so corrupted deliveries are detected
    and dropped; ``allow_root_crash`` opts out of the Section-2 root
    protection (used by the failover layer).
    """
    # Lazy import: core must not depend on resilience at module scope.
    from ..resilience.transport import overlay_network

    schedule = schedule or FailureSchedule()
    schedule.validate(topology, allow_root_crash=allow_root_crash)
    params = params_for(
        topology, t=0, c=c, caaf=caaf, max_input=max(list(inputs.values()) + [1])
    )
    plan = DoublingPlan(params=params)
    nodes = {
        u: DoublingNode(plan, u, inputs[u]) for u in topology.nodes()
    }
    network, window, transport, integrity = overlay_network(
        topology,
        nodes,
        schedule.crash_rounds,
        transport=transport,
        integrity=integrity,
        injectors=injectors,
        monitors=monitors,
        root=topology.root,
        allow_root_crash=allow_root_crash,
    )
    # Logical round K is computed at physical round (K-1)*window + 1, so
    # this cap lets the inner protocol reach exactly its last round.
    max_rounds = (plan.total_rounds - 1) * window + 1
    stats = network.run(max_rounds, stop_on_output=True)
    root = nodes[topology.root]
    return DoublingOutcome(
        result=root.result,
        stats=stats,
        rounds=stats.rounds_executed,
        pairs_run=root.pairs_run,
        accepted_guess=root.accepted_guess,
        used_bruteforce=root.used_bruteforce,
        plan=plan,
        network=network,
        transport=transport,
        integrity=integrity,
    )
