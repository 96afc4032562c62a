"""Algorithm 1: the near-optimal communication-time tradeoff SUM protocol.

Given a TC budget of ``b`` flooding rounds (``b >= 21c``), the first
``b - 2c`` flooding rounds are divided into ``x = floor((b-2c)/(19c))``
intervals of ``19c`` flooding rounds each.  The root privately selects
``logN`` interval indices uniformly at random (with replacement); in each
distinct selected interval it initiates an AGG + VERI pair with
``t = floor(2f / x)``.  The first pair where AGG does not abort and VERI
outputs true yields the final (always correct, by Theorems 5 and 7) result.
With probability at least ``1 - 1/N`` some selected interval contains at
most ``t`` edge failures and the protocol stops there (Theorems 4 and 7);
otherwise the last ``2c`` flooding rounds run the brute-force protocol.

Expected communication: at most ``min(x, f+1, logN)`` pairs actually run,
each costing ``O((t+1) logN)`` per node, plus ``O(N logN) / N`` for the
rare brute-force fallback — total
``O((f/b logN + logN) * min(b, f, logN))``, Theorem 1.

The interval machinery (:class:`IntervalNode`, :class:`IntervalOutcome`,
:func:`run_intervals`) is shared with the unknown-``f`` doubling protocol
(:mod:`repro.core.unknown_f`); only the plan differs.  A plan's derived
values are computed once, and :meth:`IntervalNode.next_wake` is a running
minimum, since both run on every handler call of every dormant node.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from ..adversary.schedule import FailureSchedule
from ..graphs.topology import Topology
from ..obs import spans as _spans
from ..resilience.overlay import overlay_network
from ..sim.message import Envelope, Part
from ..sim.network import Network
from ..sim.node import NodeHandler
from ..sim.stats import SimStats
from .agg import AggNode
from .caaf import CAAF, SUM
from .params import ProtocolParams, params_for
from .veri import VeriNode

if TYPE_CHECKING:
    from .unknown_f import DoublingPlan


@dataclass(frozen=True)
class TradeoffPlan:
    """Static schedule shared by all nodes (only the root knows the coins).

    The interval grid is deterministic given ``(b, c, d)``: interval ``i``
    (1-based) spans rounds ``(i-1)*19cd + 1 .. i*19cd``; the brute-force
    fallback occupies the last ``2c`` flooding rounds.
    """

    params: ProtocolParams
    b: int
    f: int

    name = "algorithm1"
    #: Plan attributes recorded on the protocol's observability span.
    span_attrs = ("b", "f", "x", "t")

    def __post_init__(self) -> None:
        if self.b < 21 * self.params.c:
            raise ValueError(
                f"Theorem 1 requires b >= 21c (b={self.b}, c={self.params.c})"
            )
        if self.f < 1:
            raise ValueError("Theorem 1 requires f >= 1")

    @cached_property
    def x(self) -> int:
        """Number of intervals: ``floor((b - 2c) / (19c))``."""
        return (self.b - 2 * self.params.c) // (19 * self.params.c)

    @cached_property
    def t(self) -> int:
        """AGG/VERI tolerance parameter: ``floor(2f / x)``."""
        return (2 * self.f) // self.x

    @cached_property
    def n_intervals(self) -> int:
        return self.x

    def tolerance(self, interval: int) -> int:
        """Every interval's pair runs with the same ``t``."""
        return self.t

    @cached_property
    def _pair_params(self) -> ProtocolParams:
        return self.params.with_t(self.t)

    def interval_params(self, interval: int) -> ProtocolParams:
        """The AGG/VERI parameters of interval ``interval``: one object,
        shared by every node and every interval."""
        return self._pair_params

    @cached_property
    def interval_rounds(self) -> int:
        """Rounds per interval: ``19c`` flooding rounds."""
        return 19 * self.params.cd

    def interval_start(self, i: int) -> int:
        """First round of interval ``i`` (1-based)."""
        if not 1 <= i <= self.x:
            raise ValueError(f"interval {i} out of range [1, {self.x}]")
        return (i - 1) * self.interval_rounds + 1

    @cached_property
    def bruteforce_start(self) -> int:
        """First round of the brute-force fallback window."""
        return (self.b - 2 * self.params.c) * self.params.diameter + 1

    @cached_property
    def total_rounds(self) -> int:
        """The TC budget in rounds: ``b * d``."""
        return self.b * self.params.diameter

    def select_intervals(self, rng: random.Random) -> List[int]:
        """The root's private coins: ``logN`` uniform draws, deduplicated.

        Line 1 of Algorithm 1 sorts the draws non-decreasingly and line 2
        skips repeats, so the result is the sorted set of distinct draws.
        """
        draws = max(1, math.ceil(math.log2(self.params.n_nodes)))
        picks = {rng.randint(1, self.x) for _ in range(draws)}
        return sorted(picks)


class IntervalNode(NodeHandler):
    """Composite per-node handler: dormant AGG/VERI per interval + fallback.

    The plan (:class:`TradeoffPlan` or
    :class:`repro.core.unknown_f.DoublingPlan`) holds everything
    protocol-specific, e.g. interval ``i``'s tolerance ``plan.tolerance(i)``.
    Non-root nodes re-arm a fresh (dormant) :class:`AggNode` at every
    interval boundary; it only speaks if the root's ``tree_construct``
    beacon arrives, so unselected intervals cost nothing.  The root arms
    handlers only in its selected intervals.
    """

    def __init__(
        self,
        plan: "TradeoffPlan | DoublingPlan",
        node_id: int,
        my_input: int,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.plan = plan
        self.node_id = node_id
        self.my_input = my_input
        self.is_root = node_id == plan.params.root
        if self.is_root:
            self.selected = plan.select_intervals(rng or random.Random())
        else:
            self.selected: List[int] = []

        self._agg: Optional[AggNode] = None
        self._veri: Optional[VeriNode] = None
        self._bf: Optional[BruteForceNode] = None
        self._interval: Optional[int] = None

        self.done = False
        self.result: Optional[int] = None
        #: Diagnostics: interval that produced the accepted result (root).
        self.winning_interval: Optional[int] = None
        self.pairs_run = 0
        self.used_bruteforce = False

    # ------------------------------------------------------------------ #

    def on_round(self, rnd: int, inbox: Sequence[Envelope]) -> List[Part]:
        plan = self.plan
        if self.done or rnd > plan.total_rounds:
            return []
        # Arming happens only at an interval start, at the live AGG's
        # hand-off offset and at the brute-force start.
        offset = (rnd - 1) % plan.interval_rounds
        agg = self._agg
        if (
            offset == 0
            or rnd == plan.bruteforce_start
            or (agg is not None and offset == agg.last_round)
        ):
            self._maybe_arm(rnd)
            agg = self._agg
        # An AGG that has handed over to VERI is past its last round.
        phase = self._veri if self._veri is not None else agg
        bf = self._bf
        if bf is None:
            out = phase.on_round(rnd, inbox) if phase is not None else []
        elif phase is None:
            out = bf.on_round(rnd, inbox)
        else:
            out = phase.on_round(rnd, inbox) + bf.on_round(rnd, inbox)
        if self.is_root:
            self._maybe_decide(rnd)
        return out

    def next_wake(self, rnd: int) -> Optional[int]:
        """Every interval start, every round where :meth:`_maybe_arm`
        would hand a live AGG over to VERI (its ``last_round`` into an
        interval; an AGG left armed past its own interval hands over
        again one interval later), the brute-force start, and the wakes
        of the live phase (VERI once armed, else AGG) and brute force."""
        plan = self.plan
        last = plan.total_rounds
        if self.done or rnd >= last:
            return None
        # A running minimum over the candidates after ``rnd`` (last + 1: none).
        span = plan.interval_rounds
        nxt = (rnd - 1) // span + 1  # 0-based index of the next interval start
        wake = nxt * span + 1 if nxt < plan.n_intervals else last + 1
        agg, veri, bf = self._agg, self._veri, self._bf
        if agg is not None:
            handoff = agg.last_round
            if handoff < rnd:
                handoff -= span * ((handoff - rnd) // span)
            if handoff + 1 < wake:
                wake = handoff + 1
        if bf is None:
            if rnd < plan.bruteforce_start < wake:
                wake = plan.bruteforce_start
        else:
            child_wake = bf.next_wake(rnd)
            if child_wake is not None and rnd < child_wake < wake:
                wake = child_wake
        phase = agg if veri is None else veri
        if phase is not None:
            child_wake = phase.next_wake(rnd)
            if child_wake is not None and rnd < child_wake < wake:
                wake = child_wake
        return wake if wake <= last else None

    def _maybe_arm(self, rnd: int) -> None:
        plan = self.plan
        # Interval boundaries: arm a fresh AGG (root: selected ones only).
        offset = rnd - 1
        if offset % plan.interval_rounds == 0:
            interval = offset // plan.interval_rounds + 1
            if interval <= plan.n_intervals:
                self._veri = None
                self._agg = None
                if not self.is_root or interval in self.selected:
                    self._agg = AggNode(
                        plan.interval_params(interval),
                        self.node_id,
                        self.my_input,
                        start_round=rnd,
                    )
                    self._interval = interval
                    if self.is_root:
                        self.pairs_run += 1
                        if _spans.enabled:
                            _spans.active().event(
                                f"{plan.name}.arm_interval",
                                cat="protocol",
                                tid=self.node_id,
                                round=rnd,
                                interval=interval,
                            )
        # AGG -> VERI handoff inside the interval.
        if (
            self._agg is not None
            and offset % plan.interval_rounds == self._agg.last_round
        ):
            self._veri = VeriNode(
                self._agg.p, self.node_id, self._agg.state, start_round=rnd
            )
        # Brute-force fallback window.
        if rnd == plan.bruteforce_start and self._bf is None:
            from ..baselines.bruteforce import BruteForceNode

            if self._agg is not None:
                self._agg.obs_close(rnd)
            if self._veri is not None:
                self._veri.obs_close(rnd)
            self._agg = None
            self._veri = None
            if self.is_root:
                self.used_bruteforce = True
                if _spans.enabled:
                    _spans.active().event(
                        f"{plan.name}.arm_bruteforce",
                        cat="protocol",
                        tid=self.node_id,
                        round=rnd,
                    )
            # Brute-force bit sizes do not depend on ``t``.
            self._bf = BruteForceNode(
                plan.params, self.node_id, self.my_input, start_round=rnd
            )

    def _maybe_decide(self, rnd: int) -> None:
        """The root's verdict on its finished pair or brute force."""
        if self.done:
            return
        if self._veri is not None and self._veri.done:
            accepted = (not self._agg.aborted) and self._veri.output is True
            if _spans.enabled:
                _spans.active().event(
                    f"{self.plan.name}.pair_decided",
                    cat="protocol",
                    tid=self.node_id,
                    round=rnd,
                    interval=self._interval,
                    accepted=accepted,
                )
            if accepted:
                self.result = self._agg.result
                self.winning_interval = self._interval
                self.done = True
            self._veri = None
            self._agg = None
        if self._bf is not None and self._bf.done:
            self.result = self._bf.result
            self.done = True

    def wants_to_stop(self) -> bool:
        return self.done


@dataclass
class IntervalOutcome:
    """Result of one Algorithm 1 or unknown-``f`` execution."""

    result: Optional[int]
    stats: SimStats
    rounds: int
    flooding_rounds: int
    pairs_run: int
    winning_interval: Optional[int]
    used_bruteforce: bool
    selected_intervals: List[int]
    plan: "TradeoffPlan | DoublingPlan"
    #: The executed network (exposes the effective crash map, which may
    #: include crashes injected online by adaptive adversaries).
    network: Optional[Network] = None
    #: The reliable-transport coordinator, when the run used one
    #: (:class:`repro.resilience.transport.ReliableTransport`).
    transport: Optional[object] = None
    #: The integrity coordinator, when the run used authenticated frames
    #: (:class:`repro.integrity.frames.IntegrityCoordinator`).
    integrity: Optional[object] = None

    @property
    def accepted_guess(self) -> Optional[int]:
        """The tolerance ``t`` of the accepted pair (None if none was)."""
        if self.winning_interval is None:
            return None
        return self.plan.tolerance(self.winning_interval)


def run_intervals(
    plan_for: Callable[[ProtocolParams], "TradeoffPlan | DoublingPlan"],
    topology: Topology,
    inputs: Dict[int, int],
    schedule: Optional[FailureSchedule],
    *,
    f: Optional[int],
    c: int,
    caaf: CAAF,
    rng: Optional[random.Random],
    allow_root_crash: bool,
    **overlays,
) -> IntervalOutcome:
    """Run one interval protocol on the plan ``plan_for(params)``.

    The arguments are those of :func:`run_algorithm1`; ``f`` is the
    edge-failure budget the schedule is checked against (None: not
    checked), ``rng`` feeds the root's ``select_intervals``, and
    ``overlays`` (injectors, transport, integrity) go to
    :func:`repro.resilience.overlay.overlay_network`, which loads the
    transport and integrity layers only when the run asks for them.
    """
    schedule = schedule or FailureSchedule()
    schedule.validate(topology, f=f, allow_root_crash=allow_root_crash)
    base = params_for(
        topology, t=0, c=c, caaf=caaf, max_input=max(list(inputs.values()) + [1])
    )
    plan = plan_for(base)
    nodes = {
        u: IntervalNode(plan, u, inputs[u], rng=rng if u == topology.root else None)
        for u in topology.nodes()
    }
    network, window, transport, integrity = overlay_network(
        topology,
        nodes,
        schedule.crash_rounds,
        root=topology.root,
        allow_root_crash=allow_root_crash,
        **overlays,
    )
    # Logical round K is computed at physical round (K-1)*window + 1, so
    # this cap lets the inner protocol reach exactly its last round.
    max_rounds = (plan.total_rounds - 1) * window + 1
    if _spans.enabled:
        with _spans.active().span(
            plan.name,
            cat="protocol",
            tid=topology.root,
            round=0,
            **{attr: getattr(plan, attr) for attr in plan.span_attrs},
        ):
            stats = network.run(max_rounds, stop_on_output=True)
    else:
        stats = network.run(max_rounds, stop_on_output=True)
    root = nodes[topology.root]
    return IntervalOutcome(
        result=root.result,
        stats=stats,
        rounds=stats.rounds_executed,
        flooding_rounds=stats.flooding_rounds(topology.diameter),
        pairs_run=root.pairs_run,
        winning_interval=root.winning_interval,
        used_bruteforce=root.used_bruteforce,
        selected_intervals=root.selected,
        plan=plan,
        network=network,
        transport=transport,
        integrity=integrity,
    )


def run_algorithm1(
    topology: Topology,
    inputs: Dict[int, int],
    f: int,
    b: int,
    schedule: Optional[FailureSchedule] = None,
    c: int = 2,
    caaf: CAAF = SUM,
    rng: Optional[random.Random] = None,
    injectors=(),
    transport=None,
    integrity=None,
    allow_root_crash: bool = False,
) -> IntervalOutcome:
    """Run Algorithm 1 once with TC budget ``b`` and failure budget ``f``.

    ``injectors`` are forwarded to the :class:`repro.sim.network.Network`
    (see :mod:`repro.sim.faults`).  ``transport`` (a
    :class:`repro.resilience.transport.TransportConfig` or
    ``ReliableTransport``) runs every protocol round over the reliable
    local-broadcast shim — each logical round then spans the transport's
    window of physical rounds.  ``integrity`` (an
    :class:`repro.integrity.frames.IntegrityConfig` or coordinator)
    additionally wraps every broadcast in an authenticated frame,
    outermost, so corrupted deliveries are detected and dropped (and, with
    a transport underneath, recovered via its NACK path).
    ``allow_root_crash`` opts out of the Section-2 root protection (used
    by the failover layer).
    """
    return run_intervals(
        lambda params: TradeoffPlan(params=params, b=b, f=f),
        topology, inputs, schedule, f=f, c=c, caaf=caaf,
        rng=rng, allow_root_crash=allow_root_crash,
        injectors=injectors, transport=transport, integrity=integrity,
    )
