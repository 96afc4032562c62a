"""Node handler interface for protocols running on the simulator.

A protocol is implemented as one :class:`NodeHandler` per node.  The network
calls :meth:`NodeHandler.on_round` with the messages delivered in a round;
the handler returns the parts to broadcast (delivered to all live neighbours
next round).  It may return any iterable: the network materialises it, and
only a non-empty result is broadcast (an empty list or tuple costs the call
and nothing more).

**Wake contract.**  A handler need not run in every round.  In the paper's
model a node acts on mail, or at a round slot its schedule fixes in advance
(AGG/VERI phase slots, Algorithm 1's interval boundaries).
:meth:`NodeHandler.next_wake` names the next such slot, and the network then
runs the node only in rounds where it has mail or a due wake:

* The default returns ``rnd + 1``, so a handler that does not override it
  runs in every round it is alive.
* A handler that overrides it promises that ``on_round(r, ())`` at a round
  ``r`` that is not due (no wake was returned for it) is a no-op: it
  returns no parts and changes no state.  Stale or early wakes, and the
  extra runs a node gets when mail arrives, are therefore harmless.
* The network wakes a node at the revival round of every downtime (a
  churn outage), so a wake that falls while the node is down runs at its
  first live round after the outage.  A permanently crashed node is never
  run again.

Overlays forward the contract to the handler they wrap: the integrity
layer wakes when its inner handler does, and the reliable transport
(:class:`repro.resilience.transport.TransportNode`) calls its inner
protocol at a logical round only when that round brings mail or has
reached the inner handler's ``next_wake``, in logical rounds.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Optional, Sequence

from .message import Envelope, Part


class NodeHandler(ABC):
    """Per-node protocol logic driven by the synchronous round loop."""

    @abstractmethod
    def on_round(self, rnd: int, inbox: Sequence[Envelope]) -> Iterable[Part]:
        """Process one round.

        Args:
            rnd: The absolute 1-based round number.  ``inbox`` contains
                everything the node's neighbours broadcast in round
                ``rnd - 1``.
            inbox: Envelopes delivered this round.

        Returns:
            Parts to broadcast this round, as any iterable; only a
            non-empty result is broadcast (an empty one stays silent).
        """

    def next_wake(self, rnd: int) -> Optional[int]:
        """The first round after ``rnd`` in which this node must run even
        with an empty inbox (``None``: only when mail arrives).

        Called after every run of :meth:`on_round` (``rnd`` is that run's
        round) and once before the first round (``rnd = 0``).  The default
        asks for every round; see the module docstring for the contract an
        override must keep.
        """
        return rnd + 1

    def wants_to_stop(self) -> bool:
        """Whether this node (typically the root) has produced final output.

        The network stops the run as soon as any handler reports ``True``
        after a round — this models the paper's "the root ... outputs its
        result and terminates".  The answer may only change inside
        :meth:`on_round`: after its first round the network asks only the
        handlers that ran since the last check.
        """
        return False
