"""Runtime invariant monitors for simulator executions.

:mod:`repro.sim.validation` checks a configuration *before* a run; the
monitors here watch invariants *during* and *after* one, which is what
catches out-of-model behaviour introduced by the chaos layer
(:mod:`repro.sim.faults`) or by adaptive adversaries:

* :class:`RootSafetyMonitor` — the root is never dead (Section 2).
* :class:`FBudgetMonitor` — cumulative edge failures stay within ``f``.
* :class:`CCEnvelopeMonitor` — the bottleneck node's bits stay under a
  declared envelope (e.g. :func:`theorem1_cc_envelope` for Algorithm 1).
* :class:`OracleMonitor` — zero-error on termination: if the root handler
  exposes a ``result``, it must lie in the Section 2 correctness interval
  ``[agg(s1), agg(s2)]``.
* :class:`CorruptionOracleMonitor` — no silent corruption: every
  corrupted part the injector delivered must show up in the integrity
  layer's rejection log.

The schedule families' oracles (double-count, straggler, Byzantine)
live with their families in :mod:`repro.families`.

Every monitor runs in one of two modes: ``strict`` raises
:class:`InvariantViolation` at the moment the invariant breaks, ``record``
accumulates :class:`MonitorEvent` diagnostics for post-run inspection.
A monitor is a :class:`repro.sim.faults.FaultInjector` that changes
nothing: attach it last in ``Network(..., injectors=[...])``, so its
``end_round`` checks a round after every other injector's, and its
``end_run`` runs once after :meth:`repro.sim.network.Network.run`'s last
round.  Both read the attached ``self.network``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from .faults import FaultInjector
from .network import NEVER

MODES = ("strict", "record")


class InvariantViolation(RuntimeError):
    """A runtime invariant broke during a simulated execution.

    Attributes:
        rule: Short invariant name (``"root-safe"``, ``"f-budget"``, ...).
        round: Round in which the violation was detected (None: at
            the end of a run).
    """

    def __init__(self, rule: str, message: str, rnd: Optional[int] = None):
        self.rule = rule
        self.round = rnd
        at = f" (round {rnd})" if rnd is not None else ""
        super().__init__(f"[{rule}]{at} {message}")


@dataclass(frozen=True)
class MonitorEvent:
    """One recorded invariant violation."""

    rule: str
    round: Optional[int]
    message: str

    def __str__(self) -> str:
        at = f"@r{self.round}" if self.round is not None else ""
        return f"[{self.rule}{at}] {self.message}"


class Monitor(FaultInjector):
    """Base runtime monitor.

    Subclasses implement ``end_round`` and/or ``end_run`` and call
    :meth:`report` when their invariant breaks.
    """

    rule = "invariant"

    def __init__(self, mode: str = "strict") -> None:
        super().__init__()
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.mode = mode
        self.violations: List[MonitorEvent] = []

    def report(self, message: str, rnd: Optional[int] = None) -> None:
        """Record a violation; raise immediately in strict mode."""
        self.report_as(self.rule, message, rnd)

    def report_as(
        self, rule: str, message: str, rnd: Optional[int] = None
    ) -> None:
        """Like :meth:`report` but under a per-event rule."""
        self.violations.append(MonitorEvent(rule, rnd, message))
        if self.mode == "strict":
            raise InvariantViolation(rule, message, rnd)

    @property
    def ok(self) -> bool:
        """Whether no violation has been observed."""
        return not self.violations


def first_dead_round(network, node: int, last: int) -> Optional[int]:
    """The first of rounds ``1..last`` in which ``node`` was dead, read
    from the network's crash round and downtime intervals (the rounds
    ``Network.run`` jumped included), or None."""
    first = max(1, network.crash_rounds.get(node, NEVER))
    for start, end in network.down_intervals.get(node, ()):
        start = max(1, start)
        if start < end and start < first:
            first = start
    return first if first <= last else None


class RootSafetyMonitor(Monitor):
    """Section 2: all nodes *except the root* may crash.

    Checked at the end of each run, at the first round the root was dead,
    so the monitor observes no round and :meth:`Network.run
    <repro.sim.network.Network.run>` may jump idle ones.  A network that
    declares the root stops in the round it dies, so strict mode raises
    there.
    """

    rule = "root-safe"

    def __init__(self, root: int, mode: str = "strict") -> None:
        super().__init__(mode)
        self.root = root
        self._tripped = False

    def end_run(self, rnd: int) -> None:
        """Report once, with the first round the root was dead."""
        if self._tripped:
            return
        died = first_dead_round(self.network, self.root, rnd)
        if died is None:
            return
        self._tripped = True
        self.report(f"the root (node {self.root}) is dead", died)


class FBudgetMonitor(Monitor):
    """Edge-failure *events* must stay within ``f``.

    Section 2 charges the adversary per edge failure.  Under crash-stop
    every edge fails at most once, so counting distinct edges with a
    crashed endpoint was equivalent; under crash-recovery churn the same
    edge can go down, come back, and go down again — each down-transition
    is a separate edge-failure event and must be charged against ``f``
    separately (the paper's edge-failure-event semantics).  An edge is
    down while either endpoint is dead or the link itself is flapped
    (:meth:`repro.sim.network.Network.link_up`); the monitor tracks
    per-edge up/down state each round and accumulates transitions.  For
    pure crash-stop schedules the count equals the historical
    ``edges_incident(failed)`` recount.
    """

    rule = "f-budget"

    def __init__(self, topology, f: int, mode: str = "strict") -> None:
        super().__init__(mode)
        self.topology = topology
        self.f = f
        #: Cumulative edge-failure events (down-transitions) observed.
        self.events_used = 0
        self._edge_down: Dict[tuple, bool] = {}
        self._tripped = False

    @staticmethod
    def _is_down(network, u: int, v: int, rnd: int) -> bool:
        if not network.is_alive(u, rnd) or not network.is_alive(v, rnd):
            return True
        link_up = getattr(network, "link_up", None)
        return link_up is not None and not link_up(u, v, rnd)

    def end_round(self, rnd: int) -> None:
        """Charge every up->down edge transition against the budget."""
        if self._tripped:
            return
        network = self.network
        known = network.adjacency
        charged = False
        for u, v in self.topology.edges():
            if u not in known or v not in known:
                continue
            key = (u, v) if u < v else (v, u)
            down = self._is_down(network, u, v, rnd)
            if down and not self._edge_down.get(key, False):
                self.events_used += 1
                charged = True
            self._edge_down[key] = down
        if charged and self.events_used > self.f:
            self._tripped = True
            self.report(
                f"{self.events_used} edge-failure events exceed the "
                f"budget f={self.f}",
                rnd,
            )


class CCEnvelopeMonitor(Monitor):
    """The bottleneck node's bit count must stay under an envelope."""

    rule = "cc-envelope"

    def __init__(self, bound_bits: float, mode: str = "strict") -> None:
        super().__init__(mode)
        if bound_bits <= 0:
            raise ValueError(f"bound_bits must be positive, got {bound_bits}")
        self.bound_bits = bound_bits
        self._tripped = False

    def end_round(self, rnd: int) -> None:
        """Compare the running per-node maximum against the envelope."""
        if self._tripped:
            return
        stats = self.network.stats
        worst = stats.max_bits
        if worst > self.bound_bits:
            self._tripped = True
            node = max(stats.bits_sent, key=stats.bits_sent.get)
            self.report(
                f"node {node} sent {worst} bits, envelope is "
                f"{self.bound_bits:.0f}",
                rnd,
            )


class OracleMonitor(Monitor):
    """Zero-error on termination, per the Section 2 correctness oracle.

    At the end of the run, if the root's handler exposes a non-``None``
    ``result`` attribute, it must lie in ``[agg(s1), agg(s2)]`` where
    ``s1`` are the inputs of nodes still connected to the root through
    live nodes and ``s2`` all inputs.  A ``None`` result (no output /
    explicit abort) is *not* a violation — aborting is the honest way for
    a protocol to fail under out-of-model faults.
    """

    rule = "oracle"

    def __init__(
        self,
        topology,
        inputs: Dict[int, int],
        caaf=None,
        mode: str = "strict",
    ) -> None:
        super().__init__(mode)
        self.topology = topology
        self.inputs = dict(inputs)
        self.caaf = caaf

    def end_run(self, rnd: int) -> None:
        """Grade the root's result against the correctness interval."""
        network = self.network
        handler = network.handlers.get(self.topology.root)
        result = getattr(handler, "result", None)
        if result is None:
            return
        # Imported lazily: repro.core imports repro.sim at package load.
        from ..core.caaf import SUM
        from ..core.correctness import correctness_interval

        caaf = self.caaf or SUM
        failed = {u for u, r in network.crash_rounds.items() if r <= rnd}
        survivors = self.topology.alive_component(failed)
        lo, hi = correctness_interval(caaf, self.inputs, survivors)
        if not lo <= result <= hi:
            self.report(
                f"root output {result} outside the correctness interval "
                f"[{lo}, {hi}] ({len(survivors)}/{self.topology.n_nodes} "
                f"survivors)",
                rnd,
            )


class RecoverySafetyMonitor(Monitor):
    """Root-crash discipline for recovery-enabled runs.

    Replaces :class:`RootSafetyMonitor` when ``allow_root_crash`` is on:
    the root dying is then a *sanctioned* out-of-model event, so it is
    recorded as a diagnostic in every mode (never raised — that is the
    point of enabling failover), keeping recovered runs flagged for
    forensic capture.  What does still :meth:`report` is a dead root that
    exposes an output: a crashed node must stay silent, so a non-``None``
    ``result`` on the dead root's handler means the recovery layer leaked
    state across the crash.
    """

    rule = "recovery-safe"

    def __init__(self, root: int, mode: str = "strict") -> None:
        super().__init__(mode)
        self.root = root
        self.crash_round: Optional[int] = None

    def end_run(self, rnd: int) -> None:
        """Note (once) the round the root died, never raising for it; a
        dead root must have stayed silent: no output may survive it."""
        if self.crash_round is None:
            died = first_dead_round(self.network, self.root, rnd)
            if died is None:
                return
            self.crash_round = died
            self.violations.append(
                MonitorEvent(
                    self.rule,
                    died,
                    f"the root (node {self.root}) crashed; failover engaged",
                )
            )
        handler = self.network.handlers.get(self.root)
        result = getattr(handler, "result", None)
        if result is not None:
            self.report(
                f"dead root (node {self.root}) still exposes output "
                f"{result}",
            )


class CorruptionOracleMonitor(Monitor):
    """Silent-corruption oracle: every delivered corruption must be caught.

    ``sources`` are injectors exposing ``delivered_corruptions`` — the
    ground-truth ledger of corrupted parts that actually reached an inbox
    (:class:`repro.sim.faults.MessageCorruption`, or the replay injector
    reproducing a recorded corrupted run).  ``coordinator`` is the
    :class:`repro.integrity.frames.IntegrityCoordinator` whose rejection
    log is the defence's account of what it caught.  At each run's end any
    delivered corruption without a matching rejection is a
    **silent corruption**: the protocol consumed corrupted bits without
    noticing, the exact failure mode the integrity layer exists to
    prevent.  With no coordinator (``--integrity off``) every delivered
    corruption is silent by definition — the monitor then documents the
    exposure rather than guarding a guarantee.

    ``end_run`` runs once per epoch under failover; already-reported keys
    are skipped so each silent corruption is reported exactly once.
    """

    rule = "silent-corruption"

    def __init__(self, sources, coordinator=None, mode: str = "strict") -> None:
        super().__init__(mode)
        self.sources = list(sources)
        self.coordinator = coordinator
        self._reported: set = set()

    def end_run(self, rnd: int) -> None:
        """Match delivered corruptions against integrity rejections."""
        # Imported lazily: repro.sim must not import repro.integrity at
        # module scope (integrity builds on sim).
        from ..integrity.frames import unresolved_corruptions

        for key in unresolved_corruptions(self.sources, self.coordinator):
            if key in self._reported:
                continue
            self._reported.add(key)
            epoch, rnd, sender, receiver, content_key = key
            self.report(
                f"corrupted part {content_key[0]!r} delivered on link "
                f"{sender}->{receiver} (epoch {epoch}, round {rnd}) was "
                "never rejected by the integrity layer",
                rnd,
            )


class RetransmitBudgetMonitor(Monitor):
    """The transport's per-frame retransmit budget must never be exceeded.

    The :class:`repro.resilience.transport.ReliableTransport` ledger is
    the ground truth; the transport enforces the budget itself, so any
    overrun means the ledger (or a shim) is corrupted.
    """

    rule = "retransmit-budget"

    def __init__(self, transport, mode: str = "strict") -> None:
        super().__init__(mode)
        self.transport = transport
        self._reported: set = set()

    def end_round(self, rnd: int) -> None:
        for sender, logical_round, used in self.transport.budget_overruns():
            key = (sender, logical_round)
            if key in self._reported:
                continue
            self._reported.add(key)
            self.report(
                f"node {sender} used {used} retransmissions for logical "
                f"round {logical_round}, budget is "
                f"{self.transport.config.retransmits}",
                rnd,
            )

    end_run = end_round


def theorem1_cc_envelope(
    topology,
    f: int,
    b: int,
    c: int = 2,
    include_fallback: bool = True,
    max_input: Optional[int] = None,
) -> float:
    """A concrete per-node bit envelope for one Algorithm 1 execution.

    Theorem 1 bounds the *expected* CC; a single execution is bounded by
    the worst realization: at most ``min(x, ceil(logN))`` AGG/VERI pairs,
    each within its abort thresholds ``(11t+14)(logN+5)`` and
    ``(5t+7)(3logN+10)``, plus (unless ``include_fallback`` is False) the
    brute-force fallback's ``N * (tag + id + value)`` bits.  Any execution
    beyond this envelope broke a Theorem 5/6 guarantee.
    """
    # Imported lazily: repro.core imports repro.sim at package load.
    from ..core.algorithm1 import TradeoffPlan
    from ..core.params import params_for
    from .message import TAG_BITS, id_bits, value_bits

    params = params_for(topology, t=0, c=c, max_input=max_input)
    plan = TradeoffPlan(params=params, b=b, f=f)
    p = params.with_t(plan.t)
    pairs = min(plan.x, max(1, math.ceil(math.log2(max(2, params.n_nodes)))))
    envelope = pairs * (p.agg_bit_budget + p.veri_bit_budget)
    if include_fallback:
        n = topology.n_nodes
        per_entry = (
            TAG_BITS
            + 2 * id_bits(n)
            + value_bits(max_input if max_input is not None else n)
        )
        envelope += n * per_entry
    return float(envelope)


def standard_monitors(
    topology,
    inputs: Dict[int, int],
    f: Optional[int] = None,
    caaf=None,
    mode: str = "strict",
    cc_bound: Optional[float] = None,
    recovery: bool = False,
    transport=None,
    corruption=(),
    integrity=None,
) -> List[Monitor]:
    """The default monitor stack for one protocol execution.

    Always includes root-safety and the termination oracle; adds the
    ``f``-budget monitor when ``f`` is declared and the CC-envelope
    monitor when an explicit ``cc_bound`` is given (callers wanting the
    Theorem 1 envelope compute it with :func:`theorem1_cc_envelope`).
    With ``recovery`` the hard root-safety check is replaced by
    :class:`RecoverySafetyMonitor` (root crashes are then sanctioned but
    still recorded); a ``transport`` coordinator adds the
    retransmit-budget watchdog; ``corruption`` sources (injectors with a
    ``delivered_corruptions`` ledger) add the silent-corruption oracle,
    matched against the ``integrity`` coordinator's rejection log.  The
    schedule families' oracles come from their own modules
    (:func:`repro.analysis.families.family_monitors`).
    """
    monitors: List[Monitor] = [
        RecoverySafetyMonitor(topology.root, mode=mode)
        if recovery
        else RootSafetyMonitor(topology.root, mode=mode),
        OracleMonitor(topology, inputs, caaf=caaf, mode=mode),
    ]
    if f is not None:
        monitors.insert(1, FBudgetMonitor(topology, f, mode=mode))
    if cc_bound is not None:
        monitors.append(CCEnvelopeMonitor(cc_bound, mode=mode))
    if transport is not None:
        monitors.append(RetransmitBudgetMonitor(transport, mode=mode))
    corruption = list(corruption)
    if corruption:
        monitors.append(
            CorruptionOracleMonitor(corruption, integrity, mode=mode)
        )
    return monitors


def violations_of(monitors) -> List[MonitorEvent]:
    """All recorded violations across a monitor stack, in order."""
    out: List[MonitorEvent] = []
    for monitor in monitors or ():
        out.extend(monitor.violations)
    return out
