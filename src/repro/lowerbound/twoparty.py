"""Two-party communication framework (Section 7's substrate).

Alice holds ``X``, Bob holds ``Y``; they exchange messages over a reliable
bidirectional channel and only Alice must learn the answer.  We count every
bit either party sends; ``R_0`` of a problem is the smallest expected total
across (Las Vegas) protocols.

Protocols here are deterministic or Las Vegas and always produce the exact
answer — matching the paper's zero-error setting.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, List, Tuple


def bits_for_domain(size: int) -> int:
    """Bits to encode one element of a domain of ``size`` values."""
    if size < 1:
        raise ValueError("domain size must be positive")
    return max(1, math.ceil(math.log2(size))) if size > 1 else 1


@dataclass
class Transcript:
    """Record of an Alice/Bob conversation."""

    alice_bits: int = 0
    bob_bits: int = 0
    messages: List[Tuple[str, str, int]] = field(default_factory=list)

    @property
    def total_bits(self) -> int:
        """Combined bits — the quantity ``R_0`` measures."""
        return self.alice_bits + self.bob_bits

    def alice_sends(self, label: str, bits: int) -> None:
        """Charge ``bits`` to Alice for a message described by ``label``."""
        if bits < 0:
            raise ValueError("negative message size")
        self.alice_bits += bits
        self.messages.append(("alice", label, bits))

    def bob_sends(self, label: str, bits: int) -> None:
        """Charge ``bits`` to Bob for a message described by ``label``."""
        if bits < 0:
            raise ValueError("negative message size")
        self.bob_bits += bits
        self.messages.append(("bob", label, bits))


class TwoPartyProtocol(ABC):
    """A protocol solving a two-party problem exactly."""

    name: str = "protocol"

    @abstractmethod
    def run(self, x: Tuple[int, ...], y: Tuple[int, ...]) -> Tuple[Any, Transcript]:
        """Execute on inputs ``(x, y)``; returns ``(answer, transcript)``."""


@dataclass
class TwoPartyResult:
    """One execution's outcome, for experiment tables."""

    protocol: str
    n: int
    q: int
    answer: Any
    bits: int
