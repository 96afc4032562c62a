"""Structured execution tracing for the simulator.

A :class:`Tracer` attached to a :class:`repro.sim.network.Network` records
every broadcast, delivery, and crash as typed events; a
:class:`SendTracer` records only broadcasts and crashes.  Traces are the
debugging story for protocol work: they answer "who sent what when", "when
did the flood reach node 17", and "what did the root hear in round 42"
without print statements inside handlers.

Events are cheap namedtuples; filters return lists so they compose with
ordinary list comprehensions.  :class:`SendEvents` is the obs-layer
counterpart: it turns each broadcast into an obs ``send`` event.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Set

from ..obs import spans as _spans
from .faults import FaultInjector
from .message import Part


class SendEvent(NamedTuple):
    """One physical broadcast: ``node`` sent ``parts`` in ``round``."""

    round: int
    node: int
    parts: tuple
    bits: int


class DeliverEvent(NamedTuple):
    """One delivery: ``receiver`` got ``part`` from ``sender`` in ``round``."""

    round: int
    sender: int
    receiver: int
    part: Part


class CrashEvent(NamedTuple):
    """``node`` became dead at the start of ``round``."""

    round: int
    node: int


class SendTracer(FaultInjector):
    """Collects broadcasts and crashes, with query helpers.

    An injector that changes nothing: attach via
    ``Network(..., injectors=[SendTracer()])``.  It defines no
    ``on_deliver``, so the network never calls it per delivered copy;
    :class:`Tracer` adds the deliveries.
    """

    def __init__(self) -> None:
        super().__init__()
        self.sends: List[SendEvent] = []
        self.crashes: List[CrashEvent] = []
        self._crashed_seen: Set[int] = set()

    # ------------------------------------------------------------------ #
    # Recording hooks (called by Network).
    # ------------------------------------------------------------------ #

    def begin_round(self, rnd: int) -> None:
        """Record each node's first dead round as its crash."""
        network, seen = self.network, self._crashed_seen
        for node in network.adjacency:
            if node not in seen and not network.is_alive(node, rnd):
                seen.add(node)
                self.crashes.append(CrashEvent(rnd, node))

    def on_broadcast(self, rnd: int, node: int, parts, bits: int) -> None:
        """One physical broadcast happened."""
        self.sends.append(SendEvent(rnd, node, tuple(parts), bits))

    # ------------------------------------------------------------------ #
    # Queries.
    # ------------------------------------------------------------------ #

    def sends_by(self, node: int) -> List[SendEvent]:
        """All broadcasts made by ``node``."""
        return [e for e in self.sends if e.node == node]

    def sends_of_kind(self, kind: str) -> List[SendEvent]:
        """All broadcasts containing at least one part of ``kind``."""
        return [
            e for e in self.sends if any(p.kind == kind for p in e.parts)
        ]

    def first_send_of_kind(self, kind: str) -> Optional[SendEvent]:
        """The earliest broadcast carrying a part of ``kind``."""
        events = self.sends_of_kind(kind)
        return min(events, default=None, key=lambda e: e.round)

    def bits_per_round(self) -> Dict[int, int]:
        """Total bits broadcast network-wide, per round."""
        out: Dict[int, int] = {}
        for e in self.sends:
            out[e.round] = out.get(e.round, 0) + e.bits
        return out

    def kind_histogram(self) -> Dict[str, int]:
        """How many parts of each kind were broadcast in total."""
        out: Dict[str, int] = {}
        for e in self.sends:
            for p in e.parts:
                out[p.kind] = out.get(p.kind, 0) + 1
        return out

    # ------------------------------------------------------------------ #
    # Rendering.
    # ------------------------------------------------------------------ #

    def timeline(
        self,
        node: Optional[int] = None,
        kinds: Optional[Iterable[str]] = None,
        limit: int = 200,
    ) -> str:
        """A human-readable event log, optionally filtered."""
        kind_set = set(kinds) if kinds is not None else None
        lines = []
        events = sorted(
            [("send", e.round, e) for e in self.sends]
            + [("crash", e.round, e) for e in self.crashes],
            key=lambda item: item[1],
        )
        for label, rnd, event in events:
            if label == "send":
                if node is not None and event.node != node:
                    continue
                parts = [
                    p
                    for p in event.parts
                    if kind_set is None or p.kind in kind_set
                ]
                if not parts:
                    continue
                desc = ", ".join(f"{p.kind}{p.payload}" for p in parts)
                lines.append(f"r{rnd:>4}  node {event.node:>3} sends: {desc}")
            else:
                if node is not None and event.node != node:
                    continue
                lines.append(f"r{rnd:>4}  node {event.node:>3} CRASHES")
            if len(lines) >= limit:
                lines.append(f"... (truncated at {limit} lines)")
                break
        return "\n".join(lines) if lines else "(no matching events)"


class Tracer(SendTracer):
    """A :class:`SendTracer` that also records every delivered part.

    Deliveries are voluminous (one event per part per receiver); use
    :class:`SendTracer` when sends and crashes are enough.
    """

    def __init__(self) -> None:
        super().__init__()
        self.deliveries: List[DeliverEvent] = []

    def on_deliver(self, rnd: int, sender: int, receiver: int, part: Part) -> None:
        """One part was delivered to one neighbour."""
        self.deliveries.append(DeliverEvent(rnd, sender, receiver, part))

    def deliveries_to(self, node: int) -> List[DeliverEvent]:
        """Everything ``node`` received."""
        return [e for e in self.deliveries if e.receiver == node]

    def first_delivery(
        self, receiver: int, kind: str
    ) -> Optional[DeliverEvent]:
        """When ``receiver`` first heard a part of ``kind`` (None if never)."""
        for e in self.deliveries:
            if e.receiver == receiver and e.part.kind == kind:
                return e
        return None


class SendEvents(FaultInjector):
    """Emits one obs ``send`` event per broadcast to the active span
    tracer; ``Network`` puts one first in its injector list when
    message-detail tracing is on."""

    def on_broadcast(self, rnd: int, node: int, parts, bits: int) -> None:
        _spans.active().event(
            "send",
            cat="message",
            tid=node,
            round=rnd,
            parts=len(parts),
            bits=bits,
            kinds=",".join(p.kind for p in parts),
        )
