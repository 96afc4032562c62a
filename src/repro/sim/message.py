"""Message representation and bit accounting for the synchronous simulator.

The paper measures communication complexity (CC) in *bits locally broadcast*
per node.  Every logical message ("part") therefore carries an explicit size
in bits.  Several parts emitted by one node in the same round are combined
into a single physical broadcast (as the paper's pseudo-code caption allows);
the physical broadcast costs the sum of its parts' bits, and a receiver
gets it as one :class:`Envelope` holding every part.

A part's *content* is its kind and payload (:attr:`Part.content_key`); the
flood primitive forwards each content once.  For that de-duplication an
envelope carries, besides its parts, one cached entry: the content index
it was read in (:class:`repro.sim.flooding.ContentIndex`, one per run)
with the flood kinds registered there, each part's content bit in that
index (none for other kinds) and their OR, the envelope's mask.  The
first receiver builds it and every later receiver reading the same index
shares it (:meth:`Envelope.content_bits`).  Faults, replay and the
integrity layer key on :attr:`Part.content_key` and never see the bits.

Ids are ``ceil(log2 N)`` bits, matching the paper's ``log N``-bit node ids.
Small constant *tags* distinguish message kinds on the wire.
"""

from __future__ import annotations

import math
from typing import Hashable, NamedTuple

#: Number of bits charged for a message-kind tag.  The paper's budget
#: expressions use small additive constants (e.g. ``log N + 5``); a 5-bit tag
#: keeps our accounting aligned with those expressions.
TAG_BITS = 5


def id_bits(n_nodes: int) -> int:
    """Number of bits in a node id for a system of ``n_nodes`` nodes.

    The paper assumes each node has a unique id of ``log N`` bits.
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be positive, got {n_nodes}")
    return max(1, math.ceil(math.log2(n_nodes))) if n_nodes > 1 else 1


def value_bits(max_value: int) -> int:
    """Number of bits needed to encode an integer in ``[0, max_value]``."""
    if max_value < 0:
        raise ValueError(f"max_value must be non-negative, got {max_value}")
    return max(1, math.ceil(math.log2(max_value + 1)))


class Part(NamedTuple):
    """One logical message part.

    Attributes:
        kind: Message-kind name, e.g. ``"tree_construct"``.
        payload: Hashable payload tuple.  For flooded parts the pair
            ``(kind, payload)`` is the *content* used for de-duplication:
            a node forwards each distinct content at most once.
        bits: Size of this part in bits (including the sender-id overhead
            the paper attaches to every message).
    """

    kind: str
    payload: Hashable
    bits: int

    @property
    def content_key(self) -> tuple:
        """De-duplication key: the part's kind and payload (not its size)."""
        return (self.kind, self.payload)


class Envelope:
    """One received broadcast: the sender's id and the parts it sent.

    The exact-model path delivers one envelope per broadcast, shared by
    every live neighbour; the fault-injection path delivers one
    single-part envelope per copy, because injectors act on each copy.

    Attributes:
        sender: Id of the node that physically sent the parts.
        parts: The broadcast's parts, in broadcast order (never empty).

    The envelope also caches its parts' content bits in one content index
    (:meth:`content_bits`), built by the first receiver and then shared by
    every receiver that reads the same index.  The cache stays out of
    ``repr`` and equality.
    """

    __slots__ = ("sender", "parts", "_mask")

    def __init__(self, sender: int, parts: tuple) -> None:
        self.sender = sender
        self.parts = parts
        self._mask = None

    def content_bits(self, index) -> tuple:
        """``(index, kinds, mask, bits)``: each part's content bit in
        ``index`` (a :class:`repro.sim.flooding.ContentIndex`), in part
        order, 0 for a part whose kind is not among the index's ``kinds``,
        and the OR of the bits.  Built once per index and set of kinds;
        reading the envelope in another index, or after the index
        registered more kinds, rebuilds it, so bits of two indexes never
        meet."""
        cached = self._mask
        kinds = index.kinds
        if cached is None or cached[0] is not index or cached[1] is not kinds:
            bits = tuple([
                index[(p.kind, p.payload)] if p.kind in kinds else 0
                for p in self.parts
            ])
            mask = 0
            for bit in bits:
                mask |= bit
            cached = self._mask = (index, kinds, mask, bits)
        return cached

    def __eq__(self, other) -> bool:
        if not isinstance(other, Envelope):
            return NotImplemented
        return self.sender == other.sender and self.parts == other.parts

    def __repr__(self) -> str:
        return f"Envelope(sender={self.sender!r}, parts={self.parts!r})"


def total_bits(parts) -> int:
    """Sum of the bit sizes of an iterable of :class:`Part`."""
    return sum(p.bits for p in parts)
