"""Shared protocol parameters and the paper's phase/budget arithmetic.

Everything the paper lets protocols know is collected here: ``N``, the root
id, the diameter ``d``, the diameter-stretch constant ``c`` (failures never
push the remaining diameter past ``c * d``), the failure-tolerance parameter
``t`` of AGG/VERI, and the input domain bound used to size value fields.

Phase boundaries follow Algorithms 2 and 3 exactly.  Each protocol is a
fixed sequence of phases declared once, in :data:`AGG_PHASES` and
:data:`VERI_PHASES`, as ``(span name, k)`` pairs: the phase lasts
``k·cd + 1`` rounds, and :meth:`ProtocolParams.phase_spans` lays them end
to end.

* AGG: tree construction ``2cd+1`` rounds, aggregation ``2cd+1``,
  speculative flooding ``2cd+1``, partial-sum selection ``cd+1`` —
  ``7cd+4`` rounds total (Theorem 3's "at most 11c flooding rounds").
* VERI: failed-parent detection ``2cd+1``, failed-child detection
  ``2cd+1``, LFC detection ``cd+1`` — ``5cd+3`` rounds total (Theorem 6's
  "at most 8c flooding rounds").

Bit budgets are the paper's abort thresholds: a node running AGG floods an
abort symbol once it has sent ``(11t+14)(logN+5)`` bits; a node running VERI
floods an overflow symbol once it has sent ``(5t+7)(3logN+10)`` bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..graphs.topology import Topology
from ..sim.message import id_bits, value_bits
from .caaf import CAAF, SUM

#: Algorithm 2's phases in order, as ``(span name, k)``: ``k·cd + 1`` rounds
#: each.  The span names are the root's observability phase spans.
AGG_PHASES = (
    ("agg.tree_construction", 2),
    ("agg.tree_aggregation", 2),
    ("agg.speculative_flooding", 2),
    ("agg.selection", 1),
)

#: Algorithm 3's phases, as in :data:`AGG_PHASES`.
VERI_PHASES = (
    ("veri.failed_parent", 2),
    ("veri.failed_child", 2),
    ("veri.lfc_detection", 1),
)


@dataclass(frozen=True)
class ProtocolParams:
    """Static knowledge shared by every node (Section 2's model)."""

    n_nodes: int
    root: int
    diameter: int
    c: int = 2
    t: int = 0
    max_input: int = 0
    caaf: CAAF = SUM

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError("need at least 2 nodes")
        if self.diameter < 1:
            raise ValueError("diameter must be >= 1")
        if self.c < 1:
            raise ValueError("c must be >= 1")
        if self.t < 0:
            raise ValueError("t must be >= 0")
        if self.max_input < 0:
            raise ValueError("max_input must be >= 0")

    # ------------------------------------------------------------------ #
    # Wire sizes.
    # ------------------------------------------------------------------ #

    @property
    def id_bits(self) -> int:
        """Bits per node id (the paper's ``log N``)."""
        return id_bits(self.n_nodes)

    @property
    def level_bits(self) -> int:
        """Bits per tree-level field (levels stay within ``c * d``)."""
        return value_bits(max(1, self.c * self.diameter))

    @property
    def psum_bits(self) -> int:
        """Bits per partial aggregate."""
        return self.caaf.value_bits_for(self.n_nodes, self.max_input)

    # ------------------------------------------------------------------ #
    # Timing.
    # ------------------------------------------------------------------ #

    @property
    def cd(self) -> int:
        """``c * d`` — the conservative per-flood round allowance."""
        return self.c * self.diameter

    def phase_spans(self, phases) -> tuple:
        """Each phase's ``(first, last)`` round, 1-based relative to the
        execution's start and inclusive; ``phases`` is
        :data:`AGG_PHASES` or :data:`VERI_PHASES`."""
        cd = self.cd
        spans, last = [], 0
        for _name, k in phases:
            spans.append((last + 1, last + k * cd + 1))
            last = spans[-1][1]
        return tuple(spans)

    @property
    def agg_rounds(self) -> int:
        """Total rounds of one AGG execution (``7cd + 4``)."""
        return self.phase_spans(AGG_PHASES)[-1][1]

    @property
    def veri_rounds(self) -> int:
        """Total rounds of one VERI execution (``5cd + 3``)."""
        return self.phase_spans(VERI_PHASES)[-1][1]

    @property
    def pair_rounds(self) -> int:
        """Rounds of an AGG immediately followed by a VERI (``12cd + 7``)."""
        return self.agg_rounds + self.veri_rounds

    # ------------------------------------------------------------------ #
    # Bit budgets (the abort thresholds of Algorithms 2 and 3).
    # ------------------------------------------------------------------ #

    @property
    def agg_bit_budget(self) -> int:
        """AGG's per-node abort threshold ``(11t + 14)(logN + 5)``."""
        return (11 * self.t + 14) * (self.id_bits + 5)

    @property
    def veri_bit_budget(self) -> int:
        """VERI's per-node overflow threshold ``(5t + 7)(3 logN + 10)``."""
        return (5 * self.t + 7) * (3 * self.id_bits + 10)

    # ------------------------------------------------------------------ #
    # Constructors.
    # ------------------------------------------------------------------ #

    def with_t(self, t: int) -> "ProtocolParams":
        """A copy with a different failure-tolerance parameter."""
        return ProtocolParams(
            n_nodes=self.n_nodes,
            root=self.root,
            diameter=self.diameter,
            c=self.c,
            t=t,
            max_input=self.max_input,
            caaf=self.caaf,
        )


def params_for(
    topology: Topology,
    t: int = 0,
    c: int = 2,
    max_input: Optional[int] = None,
    caaf: CAAF = SUM,
) -> ProtocolParams:
    """Build :class:`ProtocolParams` from a topology.

    ``max_input`` defaults to ``N`` — a polynomial input domain, as the
    model requires.
    """
    return ProtocolParams(
        n_nodes=topology.n_nodes,
        root=topology.root,
        diameter=topology.diameter,
        c=c,
        t=t,
        max_input=topology.n_nodes if max_input is None else max_input,
        caaf=caaf,
    )
