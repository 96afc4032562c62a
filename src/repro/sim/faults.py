"""Fault-injection middleware for the simulator's delivery path.

The paper's model (Section 2) admits only *oblivious crash* failures: a
schedule fixed before the protocol flips any coins, killing whole nodes.
Theorems 1, 5 and 7 are stated for exactly that adversary.  This module
generalizes the simulator so experiments can also probe behaviour *outside*
the model — message drops, duplications, delays, reorderings, and crashes
chosen adaptively from observed traffic — without touching protocol code.

A :class:`FaultInjector` is middleware on :class:`repro.sim.network.Network`
round execution:

* :meth:`FaultInjector.begin_round` / :meth:`FaultInjector.end_round`
  bracket each round; adaptive adversaries use ``end_round`` to pick
  crashes online via :meth:`repro.sim.network.Network.schedule_crash`.
* :meth:`FaultInjector.on_broadcast` observes every physical broadcast.
* :meth:`FaultInjector.on_transmit` rewrites one scheduled per-link
  delivery into zero or more ``(due_round, part)`` copies — dropping,
  duplicating or delaying it.  Only injectors with
  ``modifies_delivery = True`` are consulted, so crash-only middleware
  keeps the exact-model delivery path (and its bit-exact determinism).
* :meth:`FaultInjector.arrange_inbox` may permute one receiver's inbox.
* :meth:`FaultInjector.on_deliver` observes each delivered copy.
* :meth:`FaultInjector.end_run` fires once, after the last round of
  :meth:`repro.sim.network.Network.run`.

The network calls each observer hook (``begin_round``, ``on_broadcast``,
``on_deliver``, ``end_round``, ``end_run``) only on the injectors whose
class overrides the base no-op, in list order, so an injector pays
nothing for the hooks it does not define.  The runtime invariant
monitors (:mod:`repro.sim.monitors`) are injectors too; callers put them
last, so they check a round after every fault of that round.

The oblivious crash schedule itself is the :class:`ScheduledCrashes`
injector — ``Network(..., crash_rounds=...)`` is sugar for prepending one —
so in-model and out-of-model failures flow through a single interface.

All randomized decisions use a private ``random.Random(seed)`` so fault
sequences are reproducible per seed, and every fault type takes an
explicit budget cap.

Every family reads its CLI spec through :class:`repro.sim.specs.SpecReader`,
and each schedule derives its bundle JSON from its ``JSON_FIELDS``
(:class:`repro.sim.specs.JsonFields`).  Adding a fault family = one row in
:mod:`repro.analysis.families` + its runtime + its field declarations.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .message import Part
from .network import ROOT_CRASH_ERROR
from .specs import JsonFields, SpecReader


def check_fraction(what: str, value: float) -> None:
    """Reject a rate or fraction outside ``[0, 1]``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} must be in [0, 1], got {value}")


def _drawn(items, rate: float, rng: random.Random, skip=None):
    """The sorted ``items`` (less ``skip``) one ``rng.random() < rate``
    roll each selects.  A caller draws an item's details before the next
    roll, so a schedule is a pure function of the rng state."""
    for item in sorted(items):
        if item != skip and rng.random() < rate:
            yield item


class FaultInjector:
    """Base middleware: observes everything, changes nothing.

    Subclasses override the hooks they need.  ``modifies_delivery`` must
    be True for injectors that rewrite transmissions or inbox order; it
    routes the network onto the scheduled-delivery path.
    """

    #: Whether this injector rewrites deliveries (drop/dup/delay/reorder).
    modifies_delivery = False

    def __init__(self) -> None:
        self.network = None

    def attach(self, network) -> None:
        """Bind to a network; called once from ``Network.__init__``.

        The reference is a :func:`weakref.proxy`: the network owns its
        injectors, so an owning back-reference would make every run a
        reference cycle that outlives the run until a full GC pass.
        """
        self.network = weakref.proxy(network)

    def begin_round(self, rnd: int) -> None:
        """Hook: round ``rnd`` is about to deliver and compute."""

    def on_broadcast(self, rnd: int, node: int, parts, bits: int) -> None:
        """Hook: ``node`` physically broadcast ``parts`` in round ``rnd``."""

    def on_transmit(
        self, due: int, sender: int, receiver: int, part: Part
    ) -> List[Tuple[int, Part]]:
        """Rewrite one scheduled delivery; default passes it through.

        ``due`` is the round the copy is currently scheduled to arrive.
        Return ``[]`` to drop, multiple tuples to duplicate, or later due
        rounds to delay.
        """
        return [(due, part)]

    def arrange_inbox(self, rnd: int, receiver: int, envelopes: List) -> List:
        """Hook: final chance to permute one receiver's round inbox."""
        return envelopes

    def on_deliver(self, rnd: int, sender: int, receiver: int, part: Part) -> None:
        """Hook: ``receiver`` got ``part`` from ``sender`` in round ``rnd``."""

    def end_round(self, rnd: int) -> None:
        """Hook: round ``rnd`` finished computing and broadcasting."""

    def end_run(self, rnd: int) -> None:
        """Hook: :meth:`repro.sim.network.Network.run` stopped after
        round ``rnd``; called once per run."""


class ScheduledCrashes(FaultInjector):
    """The paper's oblivious crash schedule, as an injector.

    Seeds the network's crash map at attach time — semantically identical
    to the historical ``Network(crash_rounds=...)`` behaviour (which now
    delegates here), and composable with chaos injectors.

    The root may never crash (Section 2): an explicit ``root`` argument is
    checked at construction, and a network-declared root
    (``Network(..., root=...)``) at attach time — both reject with the
    same :data:`repro.sim.network.ROOT_CRASH_ERROR` as
    :meth:`repro.adversary.schedule.FailureSchedule.validate`.  The
    :mod:`repro.resilience` failover layer opts out of this strict mode
    with ``allow_root_crash=True`` (a network that sets its own
    ``allow_root_crash`` flag opts out at attach time as well).
    """

    def __init__(
        self,
        crash_rounds,
        root: Optional[int] = None,
        allow_root_crash: bool = False,
    ) -> None:
        super().__init__()
        # Accept a plain mapping or a FailureSchedule-like object.
        rounds = getattr(crash_rounds, "crash_rounds", crash_rounds)
        self.crash_rounds: Dict[int, float] = dict(rounds or {})
        self.allow_root_crash = allow_root_crash
        self._check_root(root)

    def _check_root(self, root: Optional[int], network=None) -> None:
        """Reject a schedule that takes ``root`` down, unless this
        schedule or the ``network`` allows root crashes."""
        if (
            root is not None
            and root in self._downed()
            and not self.allow_root_crash
            and not getattr(network, "allow_root_crash", False)
        ):
            raise ValueError(ROOT_CRASH_ERROR)

    def _downed(self):
        """The nodes this schedule takes down."""
        return self.crash_rounds

    def attach(self, network) -> None:
        """Seed the network's crash map (earliest round wins per node)."""
        super().attach(network)
        self._check_root(network.root, network)
        for node, rnd in self.crash_rounds.items():
            current = network.crash_rounds.get(node)
            network.crash_rounds[node] = (
                rnd if current is None else min(current, rnd)
            )


#: Rejoin mode: the node returns with its persisted local value and
#: transport seq state (a clean reboot from durable storage).
REJOIN_DURABLE = "durable"
#: Rejoin mode: all local state is lost; the node must re-fetch its
#: contribution slot from a neighbour anti-entropy snapshot.
REJOIN_AMNESIAC = "amnesiac"

REJOIN_MODES = (REJOIN_DURABLE, REJOIN_AMNESIAC)


class ChurnSchedule(JsonFields, ScheduledCrashes):
    """Crash-*recovery* churn: revivable crashes plus link flap windows.

    Extends the paper's oblivious crash schedule with two out-of-model
    event classes studied by the Flow-Updating / gossip-aggregation line:

    * **crash/revive cycles** — a node goes down at round ``c`` and comes
      back at round ``v`` in one of two rejoin modes:
      :data:`REJOIN_DURABLE` (local value and transport seq state
      persisted) or :data:`REJOIN_AMNESIAC` (state lost; the node must
      recover its contribution slot via the
      :mod:`repro.resilience.epochs` rejoin handshake).  A cycle with no
      revive round is an ordinary permanent crash.
    * **link flaps** — an edge carries nothing in either direction for a
      closed window of delivery rounds, then comes back.

    The schedule stays oblivious: every event is fixed before execution.
    Cycles are realized through :meth:`repro.sim.network.Network.schedule_downtime`
    and flaps through :meth:`~repro.sim.network.Network.schedule_link_flap`,
    both enforced by the network itself on *both* delivery paths, so a
    flap-only churn schedule keeps the exact-model fast path.  At each
    revive round the injector bumps the node's incarnation and calls the
    handler's ``on_churn_revive(mode, incarnation, rnd)`` hook when one
    exists (the reliable transport uses it to reset or persist seq state).

    Illegal event structures are rejected at construction (reviving a
    never-crashed node, a revive at or before its crash, overlapping
    cycles, unknown rejoin modes); events naming unknown nodes or
    nonexistent edges are rejected at attach time by the network, or
    earlier via :meth:`validate`.
    """

    def __init__(
        self,
        cycles=None,
        flaps=None,
        root: Optional[int] = None,
        allow_root_crash: bool = False,
        incarnation_base=None,
    ) -> None:
        #: Per node: list of ``(crash_round, revive_round | None, mode)``
        #: sorted by crash round.  ``revive_round is None`` is permanent.
        self.cycles: Dict[int, List[Tuple[int, Optional[int], str]]] = {}
        for node, entries in dict(cycles or {}).items():
            normalized = []
            for entry in entries:
                crash_r, revive_r, mode = (tuple(entry) + (REJOIN_DURABLE,))[:3]
                if mode not in REJOIN_MODES:
                    raise ValueError(
                        f"unknown rejoin mode {mode!r} for node {node} "
                        f"(expected one of {REJOIN_MODES})"
                    )
                if crash_r < 1:
                    raise ValueError(
                        f"node {node} cannot crash at round {crash_r} (< 1)"
                    )
                if revive_r is not None and revive_r <= crash_r:
                    raise ValueError(
                        f"node {node} revives at round {revive_r} but "
                        f"crashed at round {crash_r}: a revive must come "
                        "strictly after its crash"
                    )
                normalized.append((crash_r, revive_r, mode))
            normalized.sort()
            for (c1, v1, _m1), (c2, _v2, _m2) in zip(
                normalized, normalized[1:]
            ):
                if v1 is None:
                    raise ValueError(
                        f"node {node} crashes at round {c2} but its crash "
                        f"at round {c1} never revives (reviving a "
                        "never-crashed — or re-crashing a still-dead — "
                        "node is illegal)"
                    )
                if c2 < v1:
                    raise ValueError(
                        f"node {node} crashes at round {c2} while still "
                        f"down from round {c1} (revives at {v1})"
                    )
            if normalized:
                self.cycles[node] = normalized
        #: Link flap windows as ``(u, v, start, end)`` with ``start <= end``
        #: (closed window of suppressed delivery rounds).
        self.flaps: List[Tuple[int, int, int, int]] = []
        for entry in flaps or ():
            u, v, start, end = entry
            if u == v:
                raise ValueError(f"cannot flap self-loop edge {u}-{v}")
            if start < 1 or end < start:
                raise ValueError(
                    f"flap window for edge {u}-{v} must satisfy "
                    f"1 <= start <= end (got {start}-{end})"
                )
            self.flaps.append((u, v, start, end))
        self.flaps.sort()
        #: Incarnations accumulated before this schedule's round 1 (used
        #: by per-epoch shifted views so frame incarnation numbers stay
        #: globally monotonic across epochs); a zero base is no base.
        self.incarnation_base: Dict[int, int] = {
            node: inc for node, inc in dict(incarnation_base or {}).items()
            if inc
        }
        #: Revivals enacted so far: ``(round, node, mode, incarnation)``.
        self.revive_log: List[Tuple[int, int, str, int]] = []
        permanent = {
            node: entries[-1][0]
            for node, entries in self.cycles.items()
            if entries and entries[-1][1] is None
        }
        super().__init__(
            permanent, root=root, allow_root_crash=allow_root_crash
        )

    JSON_FIELDS = ("cycles", "flaps", "allow_root_crash", "incarnation_base")

    def _downed(self):
        return self.cycles

    #: The accepted ``from_spec`` grammar, quoted in every rejection.
    SPEC_GRAMMAR = (
        "comma-separated events: '<node>:crash@r<R>', "
        "'<node>:revive@r<R>[:durable|:amnesiac]' and "
        "'flap:<u>-<v>@r<R1>-r<R2>' with rounds >= 1 "
        "(e.g. '5:crash@r3,5:revive@r7:amnesiac,flap:1-2@r2-r5')"
    )

    @classmethod
    def from_spec(cls, spec: str, **kwargs) -> "ChurnSchedule":
        """Build from a CLI spec like
        ``5:crash@r3,5:revive@r7:amnesiac,flap:1-2@r2-r5``.

        Unknown event kinds, malformed rounds, revives of never-crashed
        nodes, and empty flap windows all raise ``ValueError`` naming the
        offending token and :data:`SPEC_GRAMMAR`.
        """

        reader = SpecReader("churn", cls.SPEC_GRAMMAR, spec)
        events: List[Tuple[int, str, int, str]] = []
        flaps: List[Tuple[int, int, int, int]] = []
        for item in reader:
            if item.startswith("flap:"):
                edge, at, window = item[len("flap:"):].partition("@")
                if not at:
                    raise reader.reject("needs flap:<u>-<v>@r<R1>-r<R2>")
                flaps.append(reader.edge(edge) + reader.window(window, "flap"))
                continue
            pieces = item.split(":")
            if len(pieces) < 2:
                raise reader.reject(
                    "needs <node>:crash@r<R> or <node>:revive@r<R>"
                )
            node = reader.integer(pieces[0], "node")
            action, at, round_raw = pieces[1].partition("@")
            action = action.strip()
            if not at:
                raise reader.reject("event needs @r<R>")
            rnd = reader.round(round_raw)
            if action == "crash":
                if len(pieces) > 2:
                    raise reader.reject("crash events take no mode suffix")
                events.append((node, "crash", rnd, ""))
            elif action == "revive":
                mode = pieces[2].strip() if len(pieces) > 2 else REJOIN_DURABLE
                if mode not in REJOIN_MODES:
                    raise reader.reject(f"unknown rejoin mode {mode!r}")
                events.append((node, "revive", rnd, mode))
            else:
                raise reader.reject(f"unknown churn event {action!r}")

        cycles: Dict[int, List[Tuple[int, Optional[int], str]]] = {}
        open_crash: Dict[int, int] = {}
        for node, action, rnd, mode in sorted(
            events, key=lambda e: (e[0], e[2])
        ):
            if action == "crash":
                if node in open_crash:
                    raise reader.reject(
                        f"node {node} crashes at round {rnd} while still "
                        f"down from round {open_crash[node]}",
                        token=spec,
                    )
                open_crash[node] = rnd
            else:
                if node not in open_crash:
                    raise reader.reject(
                        f"node {node} revives at round {rnd} but never "
                        "crashed before it",
                        token=spec,
                    )
                crash_r = open_crash.pop(node)
                if rnd <= crash_r:
                    raise reader.reject(
                        f"node {node} revives at round {rnd}, at or "
                        f"before its crash at round {crash_r}",
                        token=spec,
                    )
                cycles.setdefault(node, []).append((crash_r, rnd, mode))
        for node, crash_r in open_crash.items():
            cycles.setdefault(node, []).append((crash_r, None, REJOIN_DURABLE))
        return cls(cycles=cycles, flaps=flaps, **kwargs)

    # -------------------------------------------------------------- #
    # Introspection used by the epoch manager and transport.
    # -------------------------------------------------------------- #

    def revive_events(self) -> List[Tuple[int, int, str]]:
        """All revivals as ``(round, node, mode)``, sorted by round."""
        out = [
            (revive_r, node, mode)
            for node, entries in self.cycles.items()
            for _c, revive_r, mode in entries
            if revive_r is not None
        ]
        out.sort()
        return out

    def incarnation_at(self, node: int, rnd: int) -> int:
        """The node's incarnation in round ``rnd`` (revivals enacted at
        their revive round), including any cross-epoch base."""
        local = sum(
            1
            for _c, revive_r, _m in self.cycles.get(node, ())
            if revive_r is not None and revive_r <= rnd
        )
        return self.incarnation_base.get(node, 0) + local

    def validate(self, topology) -> None:
        """Reject events naming unknown nodes or nonexistent edges."""
        SpecReader.check_topology(
            topology, "churn", self.cycles, self.flaps, "flaps"
        )

    def shifted(self, elapsed: int) -> "ChurnSchedule":
        """A view of this schedule rebased ``elapsed`` rounds later.

        Used by the epoch manager: epoch ``e + 1`` starts its network at
        round 1 after ``elapsed`` global rounds have run.  Cycles fully in
        the past disappear (their revivals feed ``incarnation_base`` so
        frame incarnations stay monotonic); cycles straddling the boundary
        become a downtime starting at round 1; future events shift.
        """
        cycles: Dict[int, List[Tuple[int, Optional[int], str]]] = {}
        base = dict(self.incarnation_base)
        for node, entries in self.cycles.items():
            kept = []
            for crash_r, revive_r, mode in entries:
                new_crash = crash_r - elapsed
                new_revive = None if revive_r is None else revive_r - elapsed
                if new_revive is not None and new_revive <= 1:
                    # Fully in the past: the node is back up; only the
                    # incarnation bump survives.
                    base[node] = base.get(node, 0) + 1
                    continue
                kept.append((max(1, new_crash), new_revive, mode))
            if kept:
                cycles[node] = kept
        flaps = []
        for u, v, start, end in self.flaps:
            new_end = end - elapsed
            if new_end < 1:
                continue
            flaps.append((u, v, max(1, start - elapsed), new_end))
        return ChurnSchedule(
            cycles=cycles,
            flaps=flaps,
            allow_root_crash=self.allow_root_crash,
            incarnation_base=base,
        )

    # -------------------------------------------------------------- #
    # Injector hooks.
    # -------------------------------------------------------------- #

    def attach(self, network) -> None:
        """Seed permanent crashes, downtimes and flap windows."""
        super().attach(network)  # permanent crashes + root protection
        for node, entries in self.cycles.items():
            for crash_r, revive_r, _mode in entries:
                if revive_r is not None:
                    network.schedule_downtime(node, crash_r, revive_r)
        for u, v, start, end in self.flaps:
            network.schedule_link_flap(u, v, start, end)
        for node, inc in self.incarnation_base.items():
            if inc > network.incarnations.get(node, 0):
                network.incarnations[node] = inc

    def begin_round(self, rnd: int) -> None:
        """Enact revivals due this round: bump the incarnation and give
        the handler its ``on_churn_revive`` hook."""
        for node, entries in self.cycles.items():
            for _crash_r, revive_r, mode in entries:
                if revive_r != rnd:
                    continue
                incarnation = self.network.bump_incarnation(node)
                self.revive_log.append((rnd, node, mode, incarnation))
                handler = self.network.handlers.get(node)
                hook = getattr(handler, "on_churn_revive", None)
                if hook is not None:
                    hook(mode, incarnation, rnd)


def random_churn(
    topology,
    rate: float,
    rng: random.Random,
    horizon: int,
    amnesiac: float = 0.25,
    flap_rate: float = 0.0,
    root: Optional[int] = None,
) -> ChurnSchedule:
    """Sample a bounded churn schedule at a per-node churn ``rate``.

    Each non-root node independently undergoes one crash/revive cycle
    with probability ``rate``: the crash round is uniform in
    ``[2, horizon]``, the outage lasts 1..``max(1, horizon // 2)`` rounds,
    and the rejoin is amnesiac with probability ``amnesiac``.  Each edge
    independently flaps for a short window with probability ``flap_rate``.
    The draw order is fixed (sorted nodes, then sorted edges) so schedules
    are reproducible per RNG state.
    """
    check_fraction("churn rate", rate)
    check_fraction("amnesiac fraction", amnesiac)
    check_fraction("flap rate", flap_rate)
    horizon = max(2, horizon)
    cycles: Dict[int, List[Tuple[int, Optional[int], str]]] = {}
    for node in _drawn(topology.nodes(), rate, rng, skip=root):
        crash_r = rng.randint(2, horizon)
        down_for = rng.randint(1, max(1, horizon // 2))
        mode = (
            REJOIN_AMNESIAC if rng.random() < amnesiac else REJOIN_DURABLE
        )
        cycles[node] = [(crash_r, crash_r + down_for, mode)]
    flaps: List[Tuple[int, int, int, int]] = []
    if flap_rate:
        edges = (tuple(sorted(e)) for e in topology.edges())
        for u, v in _drawn(edges, flap_rate, rng):
            start = rng.randint(2, horizon)
            flaps.append((u, v, start, start + rng.randint(0, 3)))
    return ChurnSchedule(cycles=cycles, flaps=flaps, root=root)


class _Tally:
    """An injector's per-kind counters: ``total`` sums every field."""

    @property
    def total(self) -> int:
        """All injected faults combined."""
        return sum(self.as_dict().values())

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for tables and JSON rows."""
        return asdict(self)


def _budget_left(used: int, cap: Optional[int]) -> bool:
    """Whether an injector may fire once more under its ``cap``."""
    return cap is None or used < cap


@dataclass
class FaultCounts(_Tally):
    """Tally of injected faults, for reporting alongside run results."""

    drops: int = 0
    duplicates: int = 0
    delays: int = 0
    reorders: int = 0


class MessageFaults(FaultInjector):
    """Drop / duplicate / delay / reorder in-flight messages.

    Faults are decided independently per scheduled (sender, receiver,
    part) copy with the given probabilities, using a deterministic
    per-``seed`` RNG, under explicit budget caps:

    Args:
        drop: Probability a delivery copy is silently lost.
        duplicate: Probability a copy is delivered twice (the duplicate
            arrives 1..``max_delay`` rounds later).
        delay: Probability a copy is postponed by 1..``max_delay`` rounds.
        max_delay: Largest injected postponement, in rounds.
        reorder: Probability a receiver's round inbox is shuffled.
        seed: Seed of the private fault RNG.
        max_drops / max_duplicates / max_delays / max_reorders: Hard caps
            per fault type; ``None`` means unlimited.
        protect: Node ids whose incident deliveries are never faulted
            (e.g. the root, to keep the root-safety assumption).
    """

    modifies_delivery = True

    def __init__(
        self,
        drop: float = 0.0,
        duplicate: float = 0.0,
        delay: float = 0.0,
        max_delay: int = 3,
        reorder: float = 0.0,
        seed: int = 0,
        max_drops: Optional[int] = None,
        max_duplicates: Optional[int] = None,
        max_delays: Optional[int] = None,
        max_reorders: Optional[int] = None,
        protect: Iterable[int] = (),
    ) -> None:
        super().__init__()
        self.drop = drop
        self.duplicate = duplicate
        self.delay = delay
        self.reorder = reorder
        for name in ("drop", "duplicate", "delay", "reorder"):
            check_fraction(f"{name} rate", getattr(self, name))
        if max_delay < 1:
            raise ValueError(f"max_delay must be >= 1, got {max_delay}")
        self.max_delay = max_delay
        self.seed = seed
        self.rng = random.Random(seed)
        self.max_drops = max_drops
        self.max_duplicates = max_duplicates
        self.max_delays = max_delays
        self.max_reorders = max_reorders
        self.protect = frozenset(protect)
        self.counts = FaultCounts()

    #: The accepted ``from_spec`` grammar, quoted in every rejection.
    SPEC_GRAMMAR = (
        "key=value[,key=value...] with keys drop, dup|duplicate, delay, "
        "reorder (rates in [0, 1]) and max_delay (integer rounds >= 1)"
    )

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0, **kwargs) -> "MessageFaults":
        """Build from a CLI spec like ``drop=0.1,dup=0.05,delay=0.1,reorder=0.2``.

        Keys: ``drop``, ``dup``/``duplicate``, ``delay``, ``reorder``
        (rates) and ``max_delay`` (rounds).  Unknown keys, missing ``=``,
        non-numeric values, and repeated keys all raise ``ValueError``
        naming the offending token and :data:`SPEC_GRAMMAR`.
        """
        values = SpecReader("fault", cls.SPEC_GRAMMAR, spec).key_values(
            {
                "drop": "drop",
                "dup": "duplicate",
                "duplicate": "duplicate",
                "delay": "delay",
                "reorder": "reorder",
                "max_delay": "max_delay",
            },
            integers=("max_delay",),
            normalize=lambda key: key.strip().replace("-", "_"),
        )
        values.update(kwargs)
        return cls(seed=seed, **values)

    def on_transmit(
        self, due: int, sender: int, receiver: int, part: Part
    ) -> List[Tuple[int, Part]]:
        """Apply drop, then delay, then duplication to one delivery copy."""
        if sender in self.protect or receiver in self.protect:
            return [(due, part)]
        rng = self.rng
        if (
            self.drop
            and _budget_left(self.counts.drops, self.max_drops)
            and rng.random() < self.drop
        ):
            self.counts.drops += 1
            return []
        if (
            self.delay
            and _budget_left(self.counts.delays, self.max_delays)
            and rng.random() < self.delay
        ):
            self.counts.delays += 1
            due += rng.randint(1, self.max_delay)
        deliveries = [(due, part)]
        if (
            self.duplicate
            and _budget_left(self.counts.duplicates, self.max_duplicates)
            and rng.random() < self.duplicate
        ):
            self.counts.duplicates += 1
            deliveries.append((due + rng.randint(1, self.max_delay), part))
        return deliveries

    def arrange_inbox(self, rnd: int, receiver: int, envelopes: List) -> List:
        """Shuffle one receiver's inbox with probability ``reorder``."""
        if (
            self.reorder
            and len(envelopes) > 1
            and receiver not in self.protect
            and _budget_left(self.counts.reorders, self.max_reorders)
            and self.rng.random() < self.reorder
        ):
            self.counts.reorders += 1
            shuffled = list(envelopes)
            self.rng.shuffle(shuffled)
            return shuffled
        return envelopes

    def __repr__(self) -> str:
        return (
            f"MessageFaults(drop={self.drop}, duplicate={self.duplicate}, "
            f"delay={self.delay}, reorder={self.reorder}, seed={self.seed})"
        )


@dataclass
class CorruptionCounts(_Tally):
    """Tally of injected corruptions, for reporting alongside run results."""

    bitflips: int = 0
    truncations: int = 0
    stale_replays: int = 0


def flip_int_leaf(payload, rng: random.Random):
    """Flip one random bit in one random int leaf of a payload tree.

    Returns the rewritten payload, or ``None`` when the payload holds no
    int leaves to corrupt (e.g. the empty ``()`` of an abort part).  The
    result is built only from tuples, ints, strs and ``None``, so its
    ``repr`` round-trips through ``ast.literal_eval`` — the property the
    record/replay layer relies on to replay corrupted runs bit-exactly.
    """
    leaves: List[Tuple] = []

    def walk(value, path):
        if isinstance(value, bool):
            return
        if isinstance(value, int):
            leaves.append(path)
        elif isinstance(value, tuple):
            for i, item in enumerate(value):
                walk(item, path + (i,))

    walk(payload, ())
    if not leaves:
        return None
    path = leaves[rng.randrange(len(leaves))]

    def rewrite(value, path):
        if not path:
            bit = rng.randrange(max(1, value.bit_length() + 1))
            return value ^ (1 << bit)
        i = path[0]
        return tuple(
            rewrite(item, path[1:]) if j == i else item
            for j, item in enumerate(value)
        )

    return rewrite(payload, path)


class MessageCorruption(FaultInjector):
    """Silently corrupt in-flight message content.

    Unlike :class:`MessageFaults` (which loses, duplicates or postpones
    otherwise-correct copies), this injector rewrites a copy's *payload* —
    the silent-data-corruption class the paper's crash-only model excludes.
    Three modes, each rolled independently per scheduled delivery copy
    (first hit wins):

    * ``bitflip`` — XOR one random bit of one random int leaf of the
      payload (the classic flipped-bit on the wire);
    * ``truncate`` — drop the payload's last field (a short read);
    * ``stale`` — replace the copy with the previous part the same link
      carried (a replayed old frame: authentic content, wrong time).

    Rates apply per copy; ``link_scale`` multiplies them on selected
    ``(sender, receiver)`` links so tests can make one link persistently
    corrupt (the quarantine trigger).  Every corruption is remembered as
    ``(sender, receiver, content_key)``, and :meth:`arrange_inbox`
    matches delivered envelopes against that set out-of-band — the
    :class:`repro.sim.monitors.CorruptionOracleMonitor` compares this
    ground truth with the integrity layer's rejection log to flag any run
    that silently *accepted* a corrupted frame.

    Corrupted payloads stay within tuples/ints/strs/``None`` so recorded
    runs replay bit-exactly (see :func:`flip_int_leaf`).
    """

    modifies_delivery = True

    def __init__(
        self,
        bitflip: float = 0.0,
        truncate: float = 0.0,
        stale: float = 0.0,
        seed: int = 0,
        max_bitflips: Optional[int] = None,
        max_truncations: Optional[int] = None,
        max_stales: Optional[int] = None,
        protect: Iterable[int] = (),
        link_scale: Optional[Dict[Tuple[int, int], float]] = None,
    ) -> None:
        super().__init__()
        self.bitflip = bitflip
        self.truncate = truncate
        self.stale = stale
        for name in ("bitflip", "truncate", "stale"):
            check_fraction(f"{name} rate", getattr(self, name))
        self.seed = seed
        self.rng = random.Random(seed)
        self.max_bitflips = max_bitflips
        self.max_truncations = max_truncations
        self.max_stales = max_stales
        self.protect = frozenset(protect)
        self.link_scale = dict(link_scale or {})
        self.counts = CorruptionCounts()
        #: Epoch counter, kept in lock-step with the integrity
        #: coordinator's (both advance once per network build) so
        #: delivered-corruption records match rejection records even when
        #: failover runs several networks per logical run.
        self.epoch = -1
        #: Corrupted deliveries created: ``{(sender, receiver,
        #: content_key): mode}`` with mode ``"content"`` (bitflip /
        #: truncate) or ``"stale"`` (replayed authentic content).
        self._corrupt: Dict[Tuple, str] = {}
        #: Content corruptions actually *seen by a receiver*, as
        #: ``(epoch, round, sender, receiver, content_key)`` — the oracle
        #: monitor's ground truth.  Stale replays land in
        #: :attr:`delivered_stales` instead: an accepted replay whose
        #: fresher copy was never accepted is authentic content one round
        #: late — indistinguishable from an honest delay, so it is not
        #: silent corruption.
        self.delivered_corruptions: List[Tuple] = []
        #: Replayed-but-authentic deliveries seen by a receiver.
        self.delivered_stales: List[Tuple] = []
        # Per-link memory of the previous part, for stale replays.
        self._history: Dict[Tuple[int, int], Part] = {}

    #: The accepted ``from_spec`` grammar, quoted in every rejection.
    SPEC_GRAMMAR = (
        "mode:rate[,mode:rate...] with modes bitflip, truncate, stale "
        "and rates in [0, 1] (e.g. 'bitflip:0.02,stale:0.01')"
    )

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0, **kwargs) -> "MessageCorruption":
        """Build from a CLI spec like ``bitflip:0.02,truncate:0.01``.

        Modes: ``bitflip``, ``truncate``, ``stale`` with per-copy rates.
        Unknown modes, missing rates, non-numeric rates, and repeated
        modes all raise ``ValueError`` naming the offending token and
        :data:`SPEC_GRAMMAR`.  ``=`` is accepted as a separator alongside
        ``:`` for symmetry with the fault spec grammar.
        """
        values = SpecReader("corruption", cls.SPEC_GRAMMAR, spec).key_values(
            {mode: mode for mode in ("bitflip", "truncate", "stale")},
            seps=":=",
            noun="mode",
            value="rate",
        )
        values.update(kwargs)
        return cls(seed=seed, **values)

    def attach(self, network) -> None:
        """Bind to a network; each attach starts a new epoch."""
        super().attach(network)
        self.epoch += 1
        self._history = {}

    def _record(
        self, sender: int, receiver: int, part: Part, mode: str = "content"
    ) -> None:
        key = (sender, receiver, part.content_key)
        # "content" wins a collision: if the same bytes were ever a
        # content corruption, acceptance is never excusable.
        if mode == "content" or key not in self._corrupt:
            self._corrupt[key] = mode

    def corruption_mode(
        self, sender: int, receiver: int, part: Part
    ) -> Optional[str]:
        """How ``part`` on this link was corrupted (``"content"`` /
        ``"stale"``), or None — the recorder annotates bundles with this
        so replays rebuild the same split ground truth."""
        return self._corrupt.get((sender, receiver, part.content_key))

    def on_transmit(
        self, due: int, sender: int, receiver: int, part: Part
    ) -> List[Tuple[int, Part]]:
        """Maybe corrupt one delivery copy (bitflip, truncate or stale)."""
        link = (sender, receiver)
        previous = self._history.get(link)
        self._history[link] = part
        if sender in self.protect or receiver in self.protect:
            return [(due, part)]
        scale = self.link_scale.get(link, 1.0)
        rng = self.rng
        if (
            self.bitflip
            and _budget_left(self.counts.bitflips, self.max_bitflips)
            and rng.random() < min(1.0, self.bitflip * scale)
        ):
            flipped = flip_int_leaf(part.payload, rng)
            if flipped is not None:
                self.counts.bitflips += 1
                corrupted = Part(part.kind, flipped, part.bits)
                self._record(sender, receiver, corrupted)
                return [(due, corrupted)]
        if (
            self.truncate
            and isinstance(part.payload, tuple)
            and part.payload
            and _budget_left(self.counts.truncations, self.max_truncations)
            and rng.random() < min(1.0, self.truncate * scale)
        ):
            self.counts.truncations += 1
            corrupted = Part(part.kind, part.payload[:-1], part.bits)
            self._record(sender, receiver, corrupted)
            return [(due, corrupted)]
        if (
            self.stale
            and previous is not None
            and previous != part
            and _budget_left(self.counts.stale_replays, self.max_stales)
            and rng.random() < min(1.0, self.stale * scale)
        ):
            self.counts.stale_replays += 1
            self._record(sender, receiver, previous, mode="stale")
            return [(due, previous)]
        return [(due, part)]

    def arrange_inbox(self, rnd: int, receiver: int, envelopes: List) -> List:
        """Observe (never modify) the inbox: log delivered corruptions."""
        for envelope in envelopes:
            for part in envelope.parts:
                key = (envelope.sender, receiver, part.content_key)
                mode = self._corrupt.get(key)
                if mode is not None:
                    ledger = (
                        self.delivered_corruptions
                        if mode == "content"
                        else self.delivered_stales
                    )
                    ledger.append(
                        (self.epoch, rnd, envelope.sender, receiver,
                         part.content_key)
                    )
        return envelopes

    def __repr__(self) -> str:
        return (
            f"MessageCorruption(bitflip={self.bitflip}, "
            f"truncate={self.truncate}, stale={self.stale}, seed={self.seed})"
        )


def flat_injectors(injectors):
    """Injectors plus one level of wrapper ``.inner`` chains (recorder /
    replay wrappers)."""
    for injector in injectors or ():
        yield injector
        inner = getattr(injector, "inner", None)
        if isinstance(inner, (list, tuple)):
            yield from inner


def ledger_sources(injectors, ledger: str) -> List:
    """The injectors (flattening wrappers) that keep the ground-truth
    ledger attribute ``ledger``: ``"delivered_corruptions"`` (corruption),
    ``"degraded_intervals"`` (gray failures) or ``"delivered_taints"``
    (Byzantine taints)."""
    return [i for i in flat_injectors(injectors) if hasattr(i, ledger)]


#: Gray-failure latency profiles.
GRAY_CONSTANT = "constant"
GRAY_RAMP = "ramp"
GRAY_LIMP = "limp"
GRAY_PROFILES = (GRAY_CONSTANT, GRAY_RAMP, GRAY_LIMP)

#: Period, in rounds, of the intermittent ("limpware") profile: the node
#: alternates ``limp_period`` degraded rounds with ``limp_period`` clean
#: ones inside its interval.
LIMP_PERIOD = 2


@dataclass
class GrayCounts:
    """Tally of injected gray-failure delays, for run reports."""

    stalled_copies: int = 0
    inflated_copies: int = 0
    delay_rounds: int = 0


class GrayFailureSchedule(JsonFields, FaultInjector):
    """Gray failures: nodes and links that limp without ever dying.

    The paper's fault model is binary — a node is alive or crashed — but
    real deployments mostly suffer *gray* failures: stragglers, congested
    links, and "limpware" that is slow without being dead.  This injector
    realizes two event classes, both purely *latency* faults (no copy is
    ever lost, reordered or rewritten):

    * **compute stalls** — every delivery *originating* at a stalled node
      while its interval is active is postponed by the profile's delay
      (the node takes extra rounds to produce and push its broadcast);
    * **link inflation** — every delivery crossing a degraded edge (in
      either direction) is postponed likewise.

    Each event carries a ``severity`` — the peak added latency in physical
    rounds — and a deterministic latency ``profile``:

    * ``constant`` — the full ``severity`` for the whole interval;
    * ``ramp`` — degrades linearly from 1 round at interval start up to
      ``severity`` at interval end (a slowly dying disk/NIC);
    * ``limp`` — alternates ``severity`` and 0 in blocks of
      :data:`LIMP_PERIOD` rounds (intermittent "limpware").

    Profiles are pure functions of the broadcast round, so a recorded run
    replays bit-exactly and the schedule doubles as its own **ground-truth
    ledger** (:meth:`degraded_intervals`) for the
    :class:`repro.sim.monitors.StragglerOracle` to grade suspicion
    against.  The schedule is oblivious: every event is fixed before the
    protocol flips any coins.
    """

    modifies_delivery = True

    def __init__(self, stalls=None, links=None) -> None:
        super().__init__()

        def check(label, start, end, severity, profile):
            if start < 1 or end < start:
                raise ValueError(
                    f"gray interval for {label} must satisfy "
                    f"1 <= start <= end (got {start}-{end})"
                )
            if severity < 1:
                raise ValueError(
                    f"gray severity for {label} must be >= 1 rounds, "
                    f"got {severity}"
                )
            if profile not in GRAY_PROFILES:
                raise ValueError(
                    f"unknown gray profile {profile!r} for {label} "
                    f"(expected one of {GRAY_PROFILES})"
                )

        #: Per node: list of ``(start, end, severity, profile)`` sorted by
        #: start round; intervals may not overlap.
        self.stalls: Dict[int, List[Tuple[int, int, int, str]]] = {}
        for node, entries in dict(stalls or {}).items():
            normalized = []
            for entry in entries:
                start, end, severity, profile = (
                    tuple(entry) + (1, GRAY_CONSTANT)
                )[:4]
                check(f"node {node}", start, end, severity, profile)
                normalized.append((start, end, int(severity), profile))
            normalized.sort()
            for (s1, e1, _v1, _p1), (s2, _e2, _v2, _p2) in zip(
                normalized, normalized[1:]
            ):
                if s2 <= e1:
                    raise ValueError(
                        f"node {node} has overlapping stall intervals "
                        f"({s1}-{e1} and starting {s2})"
                    )
            if normalized:
                self.stalls[node] = normalized
        #: Link events as ``(u, v, start, end, severity, profile)`` —
        #: undirected: deliveries in both directions are inflated.
        self.links: List[Tuple[int, int, int, int, int, str]] = []
        for entry in links or ():
            u, v, start, end, severity, profile = (
                tuple(entry) + (1, GRAY_CONSTANT)
            )[:6]
            if u == v:
                raise ValueError(f"cannot degrade self-loop edge {u}-{v}")
            check(f"edge {u}-{v}", start, end, severity, profile)
            self.links.append((u, v, start, end, int(severity), profile))
        self.links.sort()
        self.counts = GrayCounts()

    JSON_FIELDS = ("stalls", "links")

    #: The accepted ``from_spec`` grammar, quoted in every rejection.
    SPEC_GRAMMAR = (
        "comma-separated events: '<node>:stall@r<R1>-r<R2>:x<S>"
        "[:constant|:ramp|:limp]' and 'link:<u>-<v>@r<R1>-r<R2>:x<S>"
        "[:profile]' with rounds >= 1 and severity x<S> >= 1 added "
        "rounds of latency (e.g. '5:stall@r3-r9:x2:ramp,"
        "link:1-2@r2-r8:x1')"
    )

    @classmethod
    def from_spec(cls, spec: str, **kwargs) -> "GrayFailureSchedule":
        """Build from a CLI spec like
        ``5:stall@r3-r9:x2:ramp,link:1-2@r2-r8:x1``.

        Unknown event kinds, malformed rounds or severities, and unknown
        profiles all raise ``ValueError`` naming the offending token and
        :data:`SPEC_GRAMMAR`.
        """

        reader = SpecReader("gray", cls.SPEC_GRAMMAR, spec)

        def parse_tail(pieces) -> Tuple[int, str]:
            if not pieces:
                raise reader.reject("needs a severity :x<S>")
            sev_raw = pieces[0].strip()
            if not sev_raw.startswith("x"):
                raise reader.reject(f"severity {sev_raw!r} needs the form x<S>")
            severity = reader.at_least_one(sev_raw[1:], "severity")
            profile = pieces[1].strip() if len(pieces) > 1 else GRAY_CONSTANT
            if profile not in GRAY_PROFILES:
                raise reader.reject(f"unknown gray profile {profile!r}")
            if len(pieces) > 2:
                raise reader.reject("too many ':' fields")
            return severity, profile

        stalls: Dict[int, List[Tuple[int, int, int, str]]] = {}
        links: List[Tuple[int, int, int, int, int, str]] = []
        for item in reader:
            if item.startswith("link:"):
                pieces = item[len("link:"):].split(":")
                edge, at, window = pieces[0].partition("@")
                if not at:
                    raise reader.reject("needs link:<u>-<v>@r<R1>-r<R2>:x<S>")
                links.append(
                    reader.edge(edge)
                    + reader.window(window, "gray")
                    + parse_tail(pieces[1:])
                )
                continue
            pieces = item.split(":")
            if len(pieces) < 2:
                raise reader.reject("needs <node>:stall@r<R1>-r<R2>:x<S>")
            node = reader.integer(pieces[0], "node")
            action, at, window = pieces[1].partition("@")
            if action.strip() != "stall":
                raise reader.reject(f"unknown gray event {action.strip()!r}")
            if not at:
                raise reader.reject("event needs @r<R1>-r<R2>")
            stalls.setdefault(node, []).append(
                reader.window(window, "gray") + parse_tail(pieces[2:])
            )
        return cls(stalls=stalls, links=links, **kwargs)

    # -------------------------------------------------------------- #
    # Ledger introspection (the StragglerOracle's ground truth).
    # -------------------------------------------------------------- #

    @property
    def has_events(self) -> bool:
        return bool(self.stalls or self.links)

    def degraded_intervals(self) -> List[Tuple[str, Tuple, int, int, int, str]]:
        """All degraded intervals as
        ``(kind, subject, start, end, severity, profile)`` — kind
        ``"stall"`` with a node subject or ``"link"`` with an edge pair —
        sorted by start round."""
        out: List[Tuple[str, Tuple, int, int, int, str]] = []
        for node, entries in sorted(self.stalls.items()):
            for start, end, severity, profile in entries:
                out.append(("stall", (node,), start, end, severity, profile))
        for u, v, start, end, severity, profile in self.links:
            out.append(("link", (u, v), start, end, severity, profile))
        out.sort(key=lambda e: (e[2], e[0], e[1]))
        return out

    def delays(
        self, sender: int, receiver: int, sent_round: int
    ) -> Tuple[int, int]:
        """Added latency, in rounds, for a copy broadcast in ``sent_round``,
        as ``(stall, inflation)``: the sender's stalls and the link's.

        The two compound (their delays add).  Profiles are evaluated at the
        broadcast round: a pure function of the three arguments.
        """
        stall = 0
        for start, end, severity, profile in self.stalls.get(sender, ()):
            if start <= sent_round <= end:
                stall += _profile_delay(
                    profile, severity, sent_round, start, end
                )
        inflation = 0
        edge = frozenset((sender, receiver))
        for u, v, start, end, severity, profile in self.links:
            if frozenset((u, v)) == edge and start <= sent_round <= end:
                inflation += _profile_delay(
                    profile, severity, sent_round, start, end
                )
        return stall, inflation

    def max_severity(self) -> int:
        """The worst peak latency across all events (0 when empty)."""
        return max((e[4] for e in self.degraded_intervals()), default=0)

    def validate(self, topology) -> None:
        """Reject events naming unknown nodes or nonexistent edges."""
        SpecReader.check_topology(
            topology, "gray", self.stalls, self.links, "degrades"
        )

    # -------------------------------------------------------------- #
    # Injector hooks.
    # -------------------------------------------------------------- #

    def on_transmit(
        self, due: int, sender: int, receiver: int, part: Part
    ) -> List[Tuple[int, Part]]:
        """Postpone one delivery copy by the active events' added latency."""
        stall, inflation = self.delays(sender, receiver, due - 1)
        if not stall and not inflation:
            return [(due, part)]
        if stall:
            self.counts.stalled_copies += 1
        if inflation:
            self.counts.inflated_copies += 1
        self.counts.delay_rounds += stall + inflation
        return [(due + stall + inflation, part)]

    def __repr__(self) -> str:
        return (
            f"GrayFailureSchedule(stalls={len(self.stalls)} node(s), "
            f"links={len(self.links)} edge(s), "
            f"max_severity={self.max_severity()})"
        )


def _profile_delay(
    profile: str, severity: int, rnd: int, start: int, end: int
) -> int:
    """The profile's added latency at round ``rnd`` of ``[start, end]``."""
    if profile == GRAY_RAMP:
        span = max(1, end - start)
        return 1 + (severity - 1) * (rnd - start) // span
    if profile == GRAY_LIMP:
        return severity if ((rnd - start) // LIMP_PERIOD) % 2 == 0 else 0
    return severity


def random_gray(
    topology,
    rate: float,
    rng: random.Random,
    horizon: int,
    link_rate: Optional[float] = None,
    max_severity: int = 2,
    root: Optional[int] = None,
) -> GrayFailureSchedule:
    """Sample a bounded gray-failure schedule at a per-node stall ``rate``.

    Each non-root node independently stalls with probability ``rate``:
    the interval starts uniformly in ``[2, horizon]``, lasts
    1..``max(1, horizon // 2)`` rounds, with severity 1..``max_severity``
    added rounds and a uniformly drawn profile.  Each edge independently
    degrades with probability ``link_rate`` (defaults to ``rate / 2``).
    The draw order is fixed (sorted nodes, then sorted edges) so schedules
    are reproducible per RNG state.  The root is never stalled (its
    compute path is the certification authority), though its incident
    links may degrade.
    """
    check_fraction("gray rate", rate)
    if link_rate is None:
        link_rate = rate / 2
    check_fraction("gray link rate", link_rate)
    if max_severity < 1:
        raise ValueError(f"max_severity must be >= 1, got {max_severity}")
    horizon = max(2, horizon)

    def event() -> Tuple[int, int, int, str]:
        start = rng.randint(2, horizon)
        length = rng.randint(1, max(1, horizon // 2))
        severity = rng.randint(1, max_severity)
        profile = GRAY_PROFILES[rng.randrange(len(GRAY_PROFILES))]
        return start, start + length - 1, severity, profile

    nodes = _drawn(topology.nodes(), rate, rng, skip=root)
    stalls = {node: [event()] for node in nodes}
    links = []
    if link_rate:
        edges = (tuple(sorted(e)) for e in topology.edges())
        links = [edge + event() for edge in _drawn(edges, link_rate, rng)]
    return GrayFailureSchedule(stalls=stalls, links=links)


#: Byzantine node behaviors.
BYZ_EQUIVOCATE = "equivocate"
BYZ_INFLATE = "inflate"
BYZ_DEFLATE = "deflate"
BYZ_REPLAY = "replay"
BYZ_OMIT = "omit"
BYZ_MODES = (BYZ_EQUIVOCATE, BYZ_INFLATE, BYZ_DEFLATE, BYZ_REPLAY, BYZ_OMIT)

#: Wire kinds a Byzantine node lies about: its own sub-aggregate claims.
#: ``aggregation`` carries ``(psum, max_level)`` upstream; ``flooded_psum``
#: carries ``(source, psum)`` during speculative flooding.  A compromised
#: node perturbs only *its own* claims (floods it originates), never
#: content it merely relays — relay tampering is a corruption fault and
#: stays with :class:`MessageCorruption`.
BYZ_TARGET_KINDS = frozenset({"aggregation", "flooded_psum"})

#: The rejection of a schedule that compromises the root.
BYZ_ROOT_ERROR = (
    "the root cannot be byzantine: it is the certification authority of "
    "every aggregate (Section 2 trusts the root)"
)


@dataclass
class ByzCounts:
    """Tally of enacted Byzantine perturbations, for run reports."""

    equivocations: int = 0
    inflations: int = 0
    deflations: int = 0
    replays: int = 0
    omissions: int = 0


class ByzantineSchedule(JsonFields, FaultInjector):
    """Compromised non-root nodes that lie about their sub-aggregates.

    Every fault model so far keeps nodes *honest*: crashes, churn, gray
    latency and link corruption never make a node sign a false claim.
    This injector compromises selected non-root nodes — each follows one
    deterministic misbehavior from its activation round on:

    * ``equivocate`` — send different sub-aggregates to different
      neighbors: receivers at an odd rank in the sender's sorted
      neighbor list get ``psum + k``, even ranks the true value (two
      authenticated contradictory frames — the classic equivocation);
    * ``inflate`` / ``deflate`` — shift the claimed psum by ``+k`` /
      ``-k`` (clamped at 0) consistently to everyone;
    * ``replay`` — resend the node's *previous* claim of the same kind
      (authentic old content presented as current);
    * ``omit`` — selectively suppress copies to odd-rank neighbors (a
      targeted silence indistinguishable from a crash to the victim).

    The compromised node knows its own signing key: when the integrity
    layer is active (:attr:`integrity` set to the run's
    ``IntegrityConfig``), perturbed inner parts are re-signed with
    :func:`repro.integrity.frames.compute_tag`, so the lie verifies —
    exactly the fault class channel authentication cannot catch.

    Perturbed payloads stay within tuples/ints/strs/``None`` so recorded
    runs replay bit-exactly, and every rewrite preserves the copy's bit
    size (a lie costs the same bits as the truth).  The schedule is its
    own **ground-truth ledger** for grading: :attr:`delivered_taints`
    books every tainted copy a receiver actually saw (equivocation marks
    *all* copies of the split broadcast, so two contradictory delivered
    contents are visible to the oracle), :attr:`omitted` books suppressed
    copies, and :meth:`tainted_nodes` lists compromised nodes that
    actually fired.
    """

    modifies_delivery = True

    def __init__(
        self,
        behaviors=None,
        root: Optional[int] = None,
    ) -> None:
        super().__init__()
        #: Per node: ``(mode, magnitude, start_round)``.
        self.behaviors: Dict[int, Tuple[str, int, int]] = {}
        for node, entry in dict(behaviors or {}).items():
            mode, k, start = (tuple(entry) + (1, 1))[:3]
            if mode not in BYZ_MODES:
                raise ValueError(
                    f"unknown byzantine mode {mode!r} for node {node} "
                    f"(expected one of {BYZ_MODES})"
                )
            if int(k) < 1:
                raise ValueError(
                    f"byzantine magnitude for node {node} must be >= 1, "
                    f"got {k}"
                )
            if int(start) < 1:
                raise ValueError(
                    f"byzantine start round for node {node} must be >= 1, "
                    f"got {start}"
                )
            self.behaviors[int(node)] = (mode, int(k), int(start))
        if root is not None and root in self.behaviors:
            raise ValueError(BYZ_ROOT_ERROR)
        #: The run's IntegrityConfig when the integrity layer is active —
        #: set by the runner so perturbed frames are re-signed (a
        #: compromised node holds its own key).  ``None`` outside
        #: integrity runs.
        self.integrity = None
        #: Epoch counter, kept in lock-step with the defense
        #: coordinator's (both advance once per network build) so tainted
        #: deliveries match observations across eviction retries.
        self.epoch = -1
        #: Tainted deliveries a receiver actually saw, as
        #: ``(epoch, round, sender, receiver, content_key)`` — the
        #: ByzantineOracle's ground truth.
        self.delivered_taints: List[Tuple] = []
        #: Copies suppressed by ``omit``, as
        #: ``(epoch, due_round, sender, receiver, content_key)``.
        self.omitted: List[Tuple] = []
        self.counts = ByzCounts()
        #: Rewrites created: ``{(sender, receiver, content_key): mode}``;
        #: the recorder annotates bundles with :meth:`byz_mode` so
        #: replays rebuild the same ground truth.
        self._taint: Dict[Tuple, str] = {}
        # Receiver rank in each sender's sorted neighbor list (equivocate
        # / omit target selection); filled at attach.
        self._rank: Dict[Tuple[int, int], int] = {}
        self._degree: Dict[int, int] = {}
        # Per (sender, kind): last completed claim and the claim of the
        # round currently streaming through on_transmit, for ``replay``.
        self._hist: Dict[Tuple[int, str], Tuple[int, tuple]] = {}
        self._cur: Dict[Tuple[int, str], Tuple[int, tuple]] = {}

    JSON_FIELDS = ("behaviors",)

    #: The accepted ``from_spec`` grammar, quoted in every rejection.
    SPEC_GRAMMAR = (
        "comma-separated behaviors: '<node>:<mode>[=<k>][@r<R>]' with "
        "modes equivocate, inflate, deflate, replay, omit, magnitude "
        "k >= 1 (default 1) and activation round R >= 1 (default 1) "
        "(e.g. '5:equivocate,7:inflate=4@r3,9:omit')"
    )

    @classmethod
    def from_spec(cls, spec: str, **kwargs) -> "ByzantineSchedule":
        """Build from a CLI spec like ``5:equivocate,7:inflate=4@r3``.

        Unknown modes, malformed magnitudes or rounds, and nodes given
        more than once all raise ``ValueError`` naming the offending
        token and :data:`SPEC_GRAMMAR`.
        """

        reader = SpecReader("byzantine", cls.SPEC_GRAMMAR, spec)
        behaviors: Dict[int, Tuple[str, int, int]] = {}
        for item in reader:
            node_raw, sep, body = item.partition(":")
            if not sep:
                raise reader.reject("needs <node>:<mode>")
            node = reader.integer(node_raw, "node")
            if node in behaviors:
                raise reader.reject(f"node {node} given more than once")
            body, at, round_raw = body.partition("@")
            start = reader.round(round_raw) if at else 1
            mode, eq, k_raw = body.partition("=")
            mode = mode.strip()
            if mode not in BYZ_MODES:
                raise reader.reject(f"unknown byzantine mode {mode!r}")
            k = reader.at_least_one(k_raw.strip(), "magnitude") if eq else 1
            behaviors[node] = (mode, k, start)
        return cls(behaviors=behaviors, **kwargs)

    # -------------------------------------------------------------- #
    # Introspection (the ByzantineOracle's ground truth).
    # -------------------------------------------------------------- #

    @property
    def has_events(self) -> bool:
        return bool(self.behaviors)

    @property
    def budget(self) -> int:
        """The declared adversary budget b: number of compromised nodes."""
        return len(self.behaviors)

    def byz_nodes(self) -> List[int]:
        """Compromised node ids, sorted."""
        return sorted(self.behaviors)

    def tainted_nodes(self) -> List[int]:
        """Compromised nodes that actually delivered a taint or omitted a
        copy this run, sorted."""
        nodes = {entry[2] for entry in self.delivered_taints}
        nodes.update(entry[2] for entry in self.omitted)
        return sorted(nodes)

    def byz_mode(
        self, sender: int, receiver: int, part: Part
    ) -> Optional[str]:
        """How ``part`` on this link was tainted (one of
        :data:`BYZ_MODES`), or None — the recorder annotates bundles with
        this so replays rebuild the same ground truth."""
        return self._taint.get((sender, receiver, part.content_key))

    def validate(self, topology) -> None:
        """Reject behaviors naming unknown nodes or the root.

        The root is the output: a compromised root could report anything
        and no witness protocol over its *inputs* could tell — Section 2
        protects it, and so does every defended run.
        """
        nodes = set(topology.nodes())
        for node in self.behaviors:
            if node not in nodes:
                raise ValueError(
                    f"byzantine schedule names unknown node {node}"
                )
            if node == topology.root:
                raise ValueError(
                    f"byzantine schedule compromises the root {node}: the "
                    "model (and the witness defense) assume an honest root"
                )

    # -------------------------------------------------------------- #
    # Injector hooks.
    # -------------------------------------------------------------- #

    def attach(self, network) -> None:
        """Bind to a network; each attach starts a new epoch."""
        super().attach(network)
        if network.root is not None and network.root in self.behaviors:
            raise ValueError(BYZ_ROOT_ERROR)
        self.epoch += 1
        self._rank = {}
        self._degree = {}
        for sender, neighbours in network.adjacency.items():
            ordered = sorted(neighbours)
            self._degree[sender] = len(ordered)
            for rank, receiver in enumerate(ordered):
                self._rank[(sender, receiver)] = rank
        self._hist = {}
        self._cur = {}

    def _remember(self, sender: int, kind: str, sent_round: int, payload):
        """Track the sender's previous claim of ``kind`` for ``replay``.

        ``on_transmit`` runs once per neighbor copy of the same
        broadcast; copies of the current round must not shadow the
        previous round's claim, so promotion happens only when a newer
        round streams through.  Returns the previous completed claim.
        """
        key = (sender, kind)
        current = self._cur.get(key)
        if current is not None and current[0] < sent_round:
            self._hist[key] = current
            current = None
        if current is None:
            self._cur[key] = (sent_round, payload)
        previous = self._hist.get(key)
        return previous[1] if previous is not None else None

    def _reframe(self, part: Part, inner_parts: List[Part]) -> Part:
        """Re-sign a rewritten integrity frame (the node holds its key)."""
        from ..integrity.frames import compute_tag

        seq, claimed_sender, _inner, _tag = part.payload
        inner = tuple((p.kind, p.payload, p.bits) for p in inner_parts)
        tag = compute_tag(self.integrity, claimed_sender, seq, inner)
        return Part(part.kind, (seq, claimed_sender, inner, tag), part.bits)

    def _perturb_claim(
        self,
        sender: int,
        receiver: int,
        sent_round: int,
        part: Part,
    ) -> Tuple[Optional[Part], Optional[str]]:
        """Rewrite one claim part per the sender's behavior.

        Returns ``(rewritten_part, mode)``; ``(None, "omit")`` suppresses
        the copy, ``(part, None)`` passes it through untouched.
        """
        mode, k, start = self.behaviors[sender]
        if sent_round < start:
            return part, None
        if part.kind == "flooded_psum" and part.payload[0] != sender:
            return part, None  # relayed content: never tampered
        rank = self._rank.get((sender, receiver), 0)
        if mode == BYZ_OMIT:
            if self._degree.get(sender, 0) < 2 or rank % 2 == 0:
                return part, None
            self.counts.omissions += 1
            return None, BYZ_OMIT
        if part.kind == "aggregation":
            psum, max_level = part.payload
            rebuild = lambda v: (v, max_level)  # noqa: E731
        else:
            source, psum = part.payload
            rebuild = lambda v: (source, v)  # noqa: E731
        previous = self._remember(sender, part.kind, sent_round, part.payload)
        if mode == BYZ_EQUIVOCATE:
            if self._degree.get(sender, 0) < 2:
                return part, None
            # Odd ranks get the lie, even ranks the truth; every copy of
            # the split broadcast is tainted so the ledger shows both
            # contradictory delivered contents.
            self.counts.equivocations += 1
            if rank % 2 == 1:
                return Part(part.kind, rebuild(psum + k), part.bits), mode
            return part, mode
        if mode == BYZ_INFLATE:
            self.counts.inflations += 1
            return Part(part.kind, rebuild(psum + k), part.bits), mode
        if mode == BYZ_DEFLATE:
            self.counts.deflations += 1
            return Part(part.kind, rebuild(max(0, psum - k)), part.bits), mode
        # BYZ_REPLAY: resend the previous claim of this kind, if any.
        if previous is None or previous == part.payload:
            return part, None
        self.counts.replays += 1
        return Part(part.kind, previous, part.bits), mode

    def on_transmit(
        self, due: int, sender: int, receiver: int, part: Part
    ) -> List[Tuple[int, Part]]:
        """Maybe rewrite (or suppress) one delivery copy of a claim."""
        if sender not in self.behaviors:
            return [(due, part)]
        sent_round = due - 1
        if part.kind in BYZ_TARGET_KINDS:
            rewritten, mode = self._perturb_claim(
                sender, receiver, sent_round, part
            )
            if mode is None:
                return [(due, part)]
            if rewritten is None:
                self.omitted.append(
                    (self.epoch, due, sender, receiver, part.content_key)
                )
                return []
            self._taint[(sender, receiver, rewritten.content_key)] = mode
            return [(due, rewritten)]
        if part.kind == "integ_frame" and self.integrity is not None:
            try:
                seq, claimed_sender, inner, _tag = part.payload
            except (TypeError, ValueError):
                return [(due, part)]
            if claimed_sender != sender:
                return [(due, part)]
            changed = False
            suppressed = False
            new_inner: List[Part] = []
            for kind, payload, bits in inner:
                inner_part = Part(kind, payload, bits)
                if kind not in BYZ_TARGET_KINDS:
                    new_inner.append(inner_part)
                    continue
                rewritten, mode = self._perturb_claim(
                    sender, receiver, sent_round, inner_part
                )
                if mode is None:
                    new_inner.append(inner_part)
                    continue
                if rewritten is None:
                    suppressed = True
                    self.omitted.append(
                        (self.epoch, due, sender, receiver,
                         inner_part.content_key)
                    )
                    continue
                new_inner.append(rewritten)
                changed_mode = mode
                changed = True
            if not changed and not suppressed:
                return [(due, part)]
            reframed = self._reframe(part, new_inner)
            if changed:
                self._taint[(sender, receiver, reframed.content_key)] = (
                    changed_mode
                )
            return [(due, reframed)]
        return [(due, part)]

    def arrange_inbox(self, rnd: int, receiver: int, envelopes: List) -> List:
        """Observe (never modify) the inbox: log delivered taints."""
        for envelope in envelopes:
            for part in envelope.parts:
                key = (envelope.sender, receiver, part.content_key)
                if key in self._taint:
                    self.delivered_taints.append(
                        (self.epoch, rnd, envelope.sender, receiver,
                         part.content_key)
                    )
        return envelopes

    def __repr__(self) -> str:
        return (
            f"ByzantineSchedule(b={self.budget}, "
            f"behaviors={sorted(self.behaviors.items())})"
        )


def random_byz(
    topology,
    rate: float,
    rng: random.Random,
    horizon: int,
    root: Optional[int] = None,
    max_magnitude: int = 3,
) -> ByzantineSchedule:
    """Sample a bounded Byzantine schedule at a per-node compromise ``rate``.

    Each non-root node is independently compromised with probability
    ``rate``: the mode is drawn uniformly from :data:`BYZ_MODES`, the
    magnitude from 1..``max_magnitude``, and the activation round from
    ``[1, max(1, horizon // 2)]``.  The draw order is fixed (sorted
    nodes) so schedules are reproducible per RNG state.  The root is
    never compromised (it is the certification authority).
    """
    check_fraction("byzantine rate", rate)
    if max_magnitude < 1:
        raise ValueError(f"max_magnitude must be >= 1, got {max_magnitude}")
    horizon = max(2, horizon)
    behaviors: Dict[int, Tuple[str, int, int]] = {}
    for node in _drawn(topology.nodes(), rate, rng, skip=root):
        mode = BYZ_MODES[rng.randrange(len(BYZ_MODES))]
        k = rng.randint(1, max_magnitude)
        start = rng.randint(1, max(1, horizon // 2))
        behaviors[node] = (mode, k, start)
    return ByzantineSchedule(behaviors=behaviors, root=root)
