"""Message representation and bit accounting for the synchronous simulator.

The paper measures communication complexity (CC) in *bits locally broadcast*
per node.  Every logical message ("part") therefore carries an explicit size
in bits.  Several parts emitted by one node in the same round are combined
into a single physical broadcast (as the paper's pseudo-code caption allows);
the physical broadcast costs the sum of its parts' bits, and a receiver
gets it as one :class:`Envelope` holding every part.

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
        keys: Frozenset of the parts' content keys, built on first use
            and then shared by every receiver of the envelope.  A
            frozenset keeps its elements' hashes, so set operations on
            ``keys`` hash no payload again.  Its iteration order depends
            on the hash seed, so it stays out of ``repr`` and equality.
    """

    __slots__ = ("sender", "parts", "_keys")

    def __init__(self, sender: int, parts: tuple) -> None:
        self.sender = sender
        self.parts = parts
        self._keys = None

    @property
    def keys(self) -> frozenset:
        keys = self._keys
        if keys is None:
            keys = self._keys = frozenset(
                [(p.kind, p.payload) for p in self.parts]
            )
        return keys

    def __eq__(self, other) -> bool:
        if not isinstance(other, Envelope):
            return NotImplemented
        return self.sender == other.sender and self.parts == other.parts

    def __repr__(self) -> str:
        return f"Envelope(sender={self.sender!r}, parts={self.parts!r})"


def total_bits(parts) -> int:
    """Sum of the bit sizes of an iterable of :class:`Part`."""
    return sum(p.bits for p in parts)
