"""The flood primitive used throughout the paper's protocols.

Per the paper (caption of Algorithm 2): "For a node to flood a message, the
node sends the message to its neighbors.  Any node receiving a flooded
message simply forwards that message upon first receiving that message. ...
if a node receives a second flooded message (potentially initiated by a
different source) with the same content, the node will not forward it again."

Two timing details matter for the paper's round-exact wave arguments
(speculative flooding, failed-parent and failed-child detection):

* Forwarding happens *in the same round* a content is first received, so a
  flood initiated in round ``r`` reaches every node at distance ``x`` in
  round ``r + x``.
* De-duplication is purely content-based; a node that already forwarded a
  content (as initiator or forwarder) never sends it again.

**Seen-sets are bitmasks.**  A :class:`ContentIndex` numbers the flood
contents ``(kind, payload)`` of one run in order of first use, and gives
each its bit; parts of kinds no manager floods get none.  A
:class:`FloodManager` keeps the contents it has seen as one int, the OR
of their bits.  A received broadcast is one
:class:`~repro.sim.message.Envelope`, and the envelope's mask (the OR of
its parts' bits) is built once and shared by every receiver.  Most
envelopes a node receives carry only contents it has already seen (copies
of the same flood reach it from several neighbours), so
:meth:`FloodManager.absorb` skips such an envelope once ``mask & ~seen``
is 0.  It takes every flood part of an envelope whose contents are all
new and distinct (``mask & ~seen == mask`` and the part bits sum to the
mask), and for the rest tests each part's bit in part order, without
hashing a payload again.

Each :class:`~repro.sim.network.Network` owns one index, which lives and
dies with it; while the network runs a round, a manager's first
:meth:`~FloodManager.absorb` or :meth:`~FloodManager.initiate` binds it to
that index for good and registers its flood kinds there.  A manager
first used outside any round (a unit test driving it by hand) gets an
index of its own.  A manager reads an envelope's bits only as built in
its own index with the kinds registered now (:meth:`Envelope.content_bits
<repro.sim.message.Envelope.content_bits>` rebuilds them otherwise), so
bits of two indexes are never compared, and a kind registered after an
envelope was first read still gets its bits.

A :class:`FloodManager` keeps its seen mask and its forward queue, nothing
more; a handler that needs a content's part or arrival round keeps it from
the fresh parts :meth:`FloodManager.absorb` returns.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Iterable, List, Optional, Sequence, Set

from .message import Envelope, Part


class ContentIndex(dict):
    """Content key ``(kind, payload)`` -> its bit, ``1 << n`` for the
    ``n``-th distinct content looked up.  Keys compare as a set's
    elements do, so hash-equal payloads such as ``(1,)`` and ``(True,)``
    share one bit, as they shared one set entry.

    Only the flood kinds of the managers bound to the index get bits
    (:attr:`kinds`); a run's other parts (tree construction, acks,
    aggregation messages: all but about 1% of Algorithm 1's contents)
    would only widen every mask.
    """

    __slots__ = ("kinds",)

    def __init__(self) -> None:
        super().__init__()
        #: Flood kinds registered so far.  Replaced, never mutated, when it
        #: grows, so an envelope's cached bits name the kinds they cover.
        self.kinds: frozenset = frozenset()

    def __missing__(self, key) -> int:
        bit = self[key] = 1 << len(self)
        return bit

    def register(self, kinds) -> None:
        """Give the parts of ``kinds`` bits from now on."""
        if not self.kinds.issuperset(kinds):
            self.kinds = self.kinds.union(kinds)


#: The index of the network whose round is running (None: no round).
#: :meth:`repro.sim.network.Network.step` sets it around its handler calls.
RUN_INDEX: ContextVar[Optional[ContentIndex]] = ContextVar(
    "RUN_INDEX", default=None
)


class FloodManager:
    """Tracks flood contents seen by one node and queues forwards.

    Typical use inside a handler's ``on_round``::

        floods.absorb(inbox)             # queue first-seen contents
        floods.initiate(part)            # start a new flood (deduplicated)
        out.extend(floods.emit())        # drain this round's flood sends
    """

    def __init__(self, flood_kinds: Iterable[str]) -> None:
        self._flood_kinds: Set[str] = set(flood_kinds)
        #: Bound at first use (see the module docstring), then fixed.
        self._index: Optional[ContentIndex] = None
        # Bits of every content handled: flooded, or of a flood kind of
        # another manager on the index (so an envelope mixing AGG and VERI
        # kinds can be skipped once seen).
        self._seen = 0
        #: Parts queued for this round's broadcast (drained by :meth:`emit`).
        self.queued: List[Part] = []

    @property
    def index(self) -> ContentIndex:
        """The content index this manager's bits are in."""
        index = self._index
        if index is None:
            index = RUN_INDEX.get()
            if index is None:
                index = ContentIndex()
            index.register(self._flood_kinds)
            self._index = index
        return index

    def has_seen(self, kind: str, payload) -> bool:
        """Whether this node has already seen a flood content."""
        if kind not in self._flood_kinds or self._index is None:
            return False
        bit = self._index.get((kind, payload))
        return bit is not None and bool(self._seen & bit)

    def absorb(self, inbox: Sequence[Envelope]) -> List[Part]:
        """Process received envelopes; queue first-seen floods for forwarding.

        Returns the flood parts seen for the *first* time, in inbox order
        and part order within an envelope (useful for handlers that react
        to new flood contents).  An envelope whose every content was seen
        before is skipped with one mask operation, and one whose every
        content is new and appears once is taken without testing a bit.
        """
        fresh: List[Part] = []
        if not inbox:
            return fresh
        index = self.index
        registered = index.kinds
        kinds, seen, queue = self._flood_kinds, self._seen, self.queued
        for env in inbox:
            cached = env._mask  # Envelope.content_bits, inlined
            if (
                cached is None
                or cached[0] is not index
                or cached[1] is not registered
            ):
                cached = env.content_bits(index)
            mask = cached[2]
            new = mask ^ (mask & seen)
            if not new:
                continue
            seen |= new
            bits = cached[3]
            # Distinct bits sum to their OR, so when every content is new
            # and none repeats, every flood part is fresh.
            if new == mask and sum(bits) == mask:
                for part in env.parts:
                    if part.kind in kinds:
                        queue.append(part)
                        fresh.append(part)
                continue
            for part, bit in zip(env.parts, bits):
                if new & bit:
                    new ^= bit
                    if part.kind in kinds:
                        queue.append(part)
                        fresh.append(part)
                    if not new:
                        break
        self._seen = seen
        return fresh

    def initiate(self, part: Part) -> bool:
        """Start a new flood; returns False if the content was already seen.

        The paper notes that when several witnesses would flood identical
        determinations, "a node only needs to participate in one such
        flooding" — content-based de-duplication implements exactly that.
        """
        if part.kind not in self._flood_kinds:
            raise ValueError(f"{part.kind!r} is not a registered flood kind")
        bit = self.index[(part.kind, part.payload)]
        if self._seen & bit:
            return False
        self._seen |= bit
        self.queued.append(part)
        return True

    def emit(self) -> List[Part]:
        """Drain the queue of parts to broadcast this round."""
        out, self.queued = self.queued, []
        return out
