"""The VERI protocol (Algorithm 3 of the paper).

VERI follows an AGG execution (both parameterized by the same ``t``) and
decides whether AGG's output can be trusted.  Rather than counting edge
failures (hard to do fault-tolerantly), it detects *long failure chains*
(LFCs): a chain of ``t`` failed tree nodes, each the parent of the next,
whose tail still has a live local descendant.  Theorem 5 shows AGG only errs
when an LFC exists, so VERI may err one-sidedly when there is no LFC but
more than ``t`` failures (Table 2):

* at most ``t`` edge failures  -> VERI outputs **true**;
* an LFC exists                -> VERI outputs **false**;
* otherwise                    -> either answer is fine (AGG was correct or
  aborted anyway).

Three fixed phases (``5cd + 3`` rounds, at most ``8c`` flooding rounds):

1. **Failed-parent detection** — the root floods one bit; a node at level
   ``l`` that hears nothing from its parent in phase round ``l + 1`` floods
   a ``failed_parent`` claim carrying ``x = max_level - level + 1`` (how
   deep its subtree reaches — a proxy for how many witnesses the failed
   parent had).
2. **Failed-child detection** — a bit propagates upstream along tree edges
   (leaves initiate); a parent that misses a child's slot floods a
   ``failed_child`` claim.
3. **LFC detection** — witnesses (as in AGG) measure, per failed parent,
   the stretch of consecutive failed ancestors using the ``failed_child``
   claims as the live frontier, and flood ``lfc_tail`` / ``not_lfc_tail``
   determinations.  The root outputs false on any ``lfc_tail``, on any
   deep (``x >= t``) failed parent with no reassuring ``not_lfc_tail``, or
   on budget overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..adversary.schedule import FailureSchedule
from ..graphs.topology import Topology
from ..sim.message import Envelope, Part
from ..sim.network import Network
from ..sim.stats import SimStats
from . import wire
from .agg import PhasedNode, TreeState, run_agg
from .params import VERI_PHASES, ProtocolParams
from .wire import VERI_FLOOD_KINDS


class VeriNode(PhasedNode):
    """Per-node handler implementing Algorithm 3.

    ``tree_state`` is the node's state from the preceding AGG execution
    (parent/children/ancestors/levels/critical failures).  Nodes that never
    activated during AGG only forward floods.
    """

    PHASES = VERI_PHASES
    PHASE_ROUNDS = ("_failed_parent_round", "_failed_child_round", "_lfc_round")
    FLOOD_KINDS = VERI_FLOOD_KINDS
    BUDGET = "veri_bit_budget"
    ABORT = "veri_overflow"

    def __init__(
        self,
        params: ProtocolParams,
        node_id: int,
        tree_state: Optional[TreeState],
        start_round: int = 1,
    ) -> None:
        super().__init__(params, node_id, start_round)
        self.state = tree_state or TreeState()

        #: (parent, x, claimer) failed-parent claims observed.
        self.failed_parent_claims: Set[Tuple[int, int, int]] = set()
        #: Nodes claimed to be failed children.
        self.failed_children: Set[int] = set()
        #: Nodes with an lfc_tail / not_lfc_tail determination observed.
        self.lfc_tails: Set[int] = set()
        self.not_lfc_tails: Set[int] = set()

        #: Root-only: VERI's verdict (None until the execution finishes).
        self.output: Optional[bool] = None

    #: See ``AggNode.on_round``.
    on_round = PhasedNode.on_round

    def _slots(self) -> List[int]:
        """Phase-relative slots of the phase methods."""
        st, spans, cd = self.state, self.spans, self.p.cd
        slots = [spans[0][0]] if self.is_root else []
        if st.activated:
            if st.level <= cd:
                slots += (spans[0][0] + st.level, spans[1][0] + cd - st.level)
            slots.append(spans[2][0])
        return slots

    # ------------------------------------------------------------------ #
    # Phase 1: failed-parent detection (phase rounds 1 .. 2cd+1).
    # ------------------------------------------------------------------ #

    def _failed_parent_round(self, p: int, inbox: Sequence[Envelope]) -> None:
        st = self.state
        if self.is_root and p == 1:
            self.floods.initiate(wire.detect_failed_parent(self.p))
            return
        if not st.activated or self.is_root or st.level > self.p.cd:
            return
        if p == st.level + 1:
            heard_parent = any(env.sender == st.parent for env in inbox)
            if not heard_parent:
                x = st.max_level - st.level + 1
                claim = (st.parent, x, self.node_id)
                self.floods.initiate(
                    wire.failed_parent(self.p, st.parent, x, self.node_id)
                )
                self.failed_parent_claims.add(claim)

    # ------------------------------------------------------------------ #
    # Phase 2: failed-child detection (phase rounds 1 .. 2cd+1).
    # ------------------------------------------------------------------ #

    def _failed_child_round(self, q: int, inbox: Sequence[Envelope]) -> None:
        st = self.state
        if not st.activated or st.level > self.p.cd:
            return
        if q != self.p.cd - st.level + 1:
            return
        if not st.children:
            self.floods.initiate(wire.detect_failed_child(self.p, self.node_id))
            return
        heard_from = {env.sender for env in inbox}
        for child in sorted(st.children):
            if child not in heard_from:
                self.floods.initiate(wire.failed_child(self.p, child))
                self.failed_children.add(child)

    # ------------------------------------------------------------------ #
    # Phase 3: LFC detection (phase rounds 1 .. cd+1).
    # ------------------------------------------------------------------ #

    def _lfc_round(self, p: int, inbox: Sequence[Envelope]) -> None:
        if p != 1 or not self.state.activated:
            return
        claimed_parents = sorted({v for (v, _x, _c) in self.failed_parent_claims})
        for v in claimed_parents:
            verdict = self._lfc_verdict(v)
            if verdict is None:
                continue
            if verdict:
                self.floods.initiate(wire.lfc_tail(self.p, v))
                self.lfc_tails.add(v)
            else:
                self.floods.initiate(wire.not_lfc_tail(self.p, v))
                self.not_lfc_tails.add(v)

    def _lfc_verdict(self, v: int) -> Optional[bool]:
        """Lines 21-29 of Algorithm 3: is ``v`` the tail of an LFC?

        Returns None when this node is not a witness of ``v``.
        """
        witness = self._witness_of(v)
        if witness is None:
            return None
        i = witness[0]
        st = self.state
        anc = st.ancestors
        k = None
        for idx in range(i, len(anc)):
            node = anc[idx]
            if node is None:
                break
            if (
                node in self.failed_children
                or node == self.p.root
                or node in st.critical_failures
            ):
                k = idx
                break
        if k is None:
            return True  # k = infinity: chain may extend past our horizon
        return k - i + 1 >= self.p.t

    # ------------------------------------------------------------------ #
    # Observations and output.
    # ------------------------------------------------------------------ #

    def _note_flood_observations(self, fresh: Sequence[Part]) -> None:
        for kind, payload, _bits in fresh:
            if kind == "failed_parent":
                self.failed_parent_claims.add(payload)
            elif kind == "failed_child":
                self.failed_children.add(payload[0])
            elif kind == "lfc_tail":
                self.lfc_tails.add(payload[0])
            elif kind == "not_lfc_tail":
                self.not_lfc_tails.add(payload[0])
            elif kind == "veri_overflow":
                self.aborted = True

    def _produce_output(self) -> None:
        self.done = True
        if self.aborted:
            self.output = False
            return
        if self.lfc_tails:
            self.output = False  # line 33: an LFC exists
            return
        for (v, x, _claimer) in self.failed_parent_claims:
            if x >= self.p.t and v not in self.not_lfc_tails:
                # Line 35: all of v's witnesses may have failed — VERI's
                # allowed one-sided error.
                self.output = False
                return
        self.output = True


# --------------------------------------------------------------------- #
# Standalone runner for an AGG + VERI pair.
# --------------------------------------------------------------------- #


@dataclass
class PairOutcome:
    """Result of one AGG execution immediately followed by VERI."""

    agg_result: Optional[int]
    agg_aborted: bool
    veri_output: Optional[bool]
    agg_stats: SimStats
    veri_stats: SimStats
    #: Line 4 of Algorithm 1: the pair's result is usable iff AGG did not
    #: abort and VERI returned true.
    @property
    def accepted(self) -> bool:
        return (not self.agg_aborted) and self.veri_output is True


def run_agg_veri_pair(
    topology: Topology,
    inputs: Dict[int, int],
    t: int,
    schedule: Optional[FailureSchedule] = None,
    c: int = 2,
    caaf=None,
    max_input: Optional[int] = None,
    injectors=(),
) -> PairOutcome:
    """Run AGG then VERI back-to-back on one shared failure schedule.

    The schedule's crash rounds are interpreted on the combined timeline:
    AGG occupies rounds ``1 .. 7cd+4`` and VERI rounds ``7cd+5 .. 12cd+7``.
    ``injectors`` are shared by both executions (injector fault budgets
    therefore span the pair).
    """
    schedule = schedule or FailureSchedule()
    schedule.validate(topology)
    agg = run_agg(
        topology,
        inputs,
        t,
        schedule=schedule,
        c=c,
        caaf=caaf,
        max_input=max_input,
        injectors=injectors,
    )
    params = next(iter(agg.nodes.values())).p
    veri_nodes = {
        u: VeriNode(params, u, agg.nodes[u].state) for u in topology.nodes()
    }
    shifted = {
        u: max(1, rnd - params.agg_rounds)
        for u, rnd in schedule.crash_rounds.items()
    }
    veri_network = Network(
        topology.adjacency,
        veri_nodes,
        shifted,
        injectors=injectors,
        root=topology.root,
    )
    veri_stats = veri_network.run(params.veri_rounds, stop_on_output=False)
    root_veri = veri_nodes[topology.root]
    return PairOutcome(
        agg_result=agg.result,
        agg_aborted=agg.aborted,
        veri_output=root_veri.output,
        agg_stats=agg.stats,
        veri_stats=veri_stats,
    )
