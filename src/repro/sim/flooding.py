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

A received broadcast is one :class:`~repro.sim.message.Envelope`.  Most
envelopes a node receives carry only contents it has already seen (copies
of the same flood reach it from several neighbours), so
:meth:`FloodManager.absorb` skips such an envelope with one subset check
of its content keys against the seen set, and walks parts only for the
rest.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set

from .message import Envelope, Part


class FloodManager:
    """Tracks flood contents seen by one node and queues forwards.

    Typical use inside a handler's ``on_round``::

        floods.absorb(inbox)             # queue first-seen contents
        floods.initiate(part)            # start a new flood (deduplicated)
        out.extend(floods.emit())        # drain this round's flood sends
    """

    def __init__(self, flood_kinds: Iterable[str]) -> None:
        self._flood_kinds: Set[str] = set(flood_kinds)
        self._seen: Set[tuple] = set()
        self._queue: List[Part] = []
        #: Every flood part ever received or initiated, keyed by content.
        self.known: Dict[tuple, Part] = {}
        #: Round of first receipt/initiation per content (filled by callers
        #: passing ``rnd`` to :meth:`absorb` / :meth:`initiate`).
        self.first_seen_round: Dict[tuple, int] = {}

    def has_seen(self, kind: str, payload) -> bool:
        """Whether this node has already seen a flood content."""
        return (kind, payload) in self._seen

    def absorb(self, inbox: Sequence[Envelope], rnd: int = 0) -> List[Part]:
        """Process received envelopes; queue first-seen floods for forwarding.

        Returns the flood parts seen for the *first* time, in inbox order
        (useful for handlers that react to new flood contents).  An
        envelope whose every content was seen before is skipped with one
        set comparison on its shared ``keys``.
        """
        fresh: List[Part] = []
        kinds, seen = self._flood_kinds, self._seen
        for env in inbox:
            if env.keys <= seen:
                continue
            for part in env.parts:
                if part.kind not in kinds:
                    continue
                key = (part.kind, part.payload)  # Part.content_key, inlined
                if key in seen:
                    continue
                seen.add(key)
                self.known[key] = part
                self.first_seen_round[key] = rnd
                self._queue.append(part)
                fresh.append(part)
        return fresh

    def initiate(self, part: Part, rnd: int = 0) -> bool:
        """Start a new flood; returns False if the content was already seen.

        The paper notes that when several witnesses would flood identical
        determinations, "a node only needs to participate in one such
        flooding" — content-based de-duplication implements exactly that.
        """
        if part.kind not in self._flood_kinds:
            raise ValueError(f"{part.kind!r} is not a registered flood kind")
        key = part.content_key
        if key in self._seen:
            return False
        self._seen.add(key)
        self.known[key] = part
        self.first_seen_round[key] = rnd
        self._queue.append(part)
        return True

    def emit(self) -> List[Part]:
        """Drain the queue of parts to broadcast this round."""
        out, self._queue = self._queue, []
        return out

    def contents(self, kind: str) -> List[tuple]:
        """All payloads seen for one flood kind."""
        return [payload for (k, payload) in self._seen if k == kind]
