"""The AGG protocol (Algorithm 2 of the paper).

AGG is a deterministic aggregation protocol parameterized by ``t >= 0``, the
number of edge failures it intends to tolerate.  It runs in four fixed
phases (``7cd + 4`` rounds, i.e. at most ``11c`` flooding rounds):

1. **Tree construction** — a BFS wave of ``tree_construct`` beacons builds a
   spanning tree; every node learns its level, parent, children, and the ids
   of its nearest ``2t`` ancestors.
2. **Tree aggregation** — partial aggregates propagate upstream on a fixed
   schedule (a node at level ``l`` acts in round ``cd - l + 1`` of the
   phase); a parent that misses a child's slot floods a
   ``critical_failure`` claim.
3. **Speculative flooding** — the root floods its partial aggregate in round
   1; a non-root node at level ``l`` floods its own in round ``l + 1`` iff
   it heard *nothing* from its parent in that round.  This is the paper's
   key trick: flooding happens speculatively, before anyone knows which
   floodings are needed, keeping the time complexity at O(1) flooding
   rounds.
4. **Partial-sum selection** — *witnesses* (a node is a witness of each of
   its ``t`` nearest local ancestors and of itself) label each flooded
   partial aggregate ``dominated`` or ``compulsory||optional`` using only
   their 2t-ancestor lists; the root keeps exactly the latter, which form a
   representative set and therefore aggregate to a correct result.

A node floods a special ``agg_abort`` symbol once its sends would exceed
``(11t + 14)(logN + 5)`` bits; with at most ``t`` edge failures this never
happens (Theorem 4) and AGG outputs a correct result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..adversary.schedule import FailureSchedule
from ..graphs.topology import Topology
from ..obs import spans as _spans
from ..sim.flooding import FloodManager
from ..sim.message import Envelope, Part
from ..sim.network import NEVER, Network
from ..sim.node import NodeHandler
from ..sim.stats import SimStats
from . import wire
from .params import AGG_PHASES, ProtocolParams, params_for
from .wire import AGG_FLOOD_KINDS, DOMINATED, KEEP


@dataclass
class TreeState:
    """Per-node tree knowledge AGG hands over to the following VERI run."""

    activated: bool = False
    level: int = -1
    parent: Optional[int] = None
    children: Set[int] = field(default_factory=set)
    #: ``ancestors[0]`` is the node itself, then the nearest 2t ancestors
    #: root-wards; entries beyond the root are None.
    ancestors: List[Optional[int]] = field(default_factory=list)
    max_level: int = -1
    psum: int = 0
    #: Nodes claimed (by flooded ``critical_failure`` messages) to have
    #: critically failed — fragment boundaries for the witness logic.
    critical_failures: Set[int] = field(default_factory=set)


class PhasedNode(NodeHandler):
    """The round skeleton AGG and VERI share: a fixed sequence of phases.

    A subclass declares its phase table ``PHASES`` (:data:`AGG_PHASES` or
    :data:`VERI_PHASES`), one phase method per phase in ``PHASE_ROUNDS``
    (called with the phase-relative round and the inbox; it returns the
    parts it broadcasts directly, if any), its ``FLOOD_KINDS``, and its
    valve: ``BUDGET`` names the :class:`ProtocolParams` bit budget and
    ``ABORT`` the special symbol's kind (``wire`` builds it under that
    name).  Rounds outside ``[start_round, start_round + last_round - 1]``
    are ignored.
    """

    PHASES: tuple = ()
    PHASE_ROUNDS: tuple = ()
    FLOOD_KINDS: frozenset = frozenset()
    BUDGET = ""
    ABORT = ""

    def __init__(
        self, params: ProtocolParams, node_id: int, start_round: int
    ) -> None:
        self.p = params
        self.node_id = node_id
        self.is_root = node_id == params.root
        self.start_round = start_round
        self.floods = FloodManager(self.FLOOD_KINDS)
        #: Each phase's ``(first, last)`` relative round; ``d`` and ``c``
        #: never change, so neither do these.
        self.spans = params.phase_spans(self.PHASES)
        self.last_round = self.spans[-1][1]
        self.cd = params.cd
        self.bits_sent = 0
        #: Set once this node floods or hears the abort symbol.
        self.aborted = False
        self.done = False
        self._obs_phase: Optional[int] = None

    # ------------------------------------------------------------------ #
    # Round dispatch.
    # ------------------------------------------------------------------ #

    def on_round(self, rnd: int, inbox: Sequence[Envelope]) -> List[Part]:
        rel = rnd - self.start_round + 1
        if rel < 1 or rel > self.last_round:
            return []
        idx = 0
        while rel > self.spans[idx][1]:
            idx += 1
        if _spans.enabled and self.is_root:
            self._obs_mark(rnd, rel, idx)

        floods = self.floods
        if inbox:
            fresh = floods.absorb(inbox)
            if fresh:
                self._note_flood_observations(fresh)

        out: List[Part] = []
        if not self.aborted:
            phase_round = getattr(self, self.PHASE_ROUNDS[idx])
            out = phase_round(rel - self.spans[idx][0] + 1, inbox) or out
        if floods.queued:
            out += floods.emit()
        if out:
            out = self._valve(out)

        if self.is_root and rel == self.last_round:
            self._produce_output()
        return out

    def next_wake(self, rnd: int) -> Optional[int]:
        """The next of this node's fixed slots (:meth:`_next_slot`).

        An aborted node has no slots left; the root keeps its output
        slot, and while tracing is on it runs every round for its phase
        spans.
        """
        base = self.start_round - 1
        rel = rnd - base
        last = self.last_round
        if rel >= last:
            return None
        if _spans.enabled and self.is_root:
            return base + max(rel, 0) + 1
        slot = last if self.is_root else NEVER
        if not self.aborted:
            if self.is_root and rel < self.spans[0][0]:
                slot = self.spans[0][0]
            slot = self._next_slot(rel, slot)
        return None if slot == NEVER else base + slot

    def _obs_mark(self, rnd: int, rel: int, idx: int) -> None:
        """Emit root-timeline phase spans (phases are fixed round
        windows shared by every node, so the root's view is the
        protocol's).  Only called when tracing is armed."""
        tracer = _spans.active()
        if idx != self._obs_phase:
            if self._obs_phase is not None:
                tracer.end(tid=self.node_id, round=rnd - 1)
            name = self.PHASES[idx][0]
            tracer.begin(
                name, cat=name.split(".")[0], tid=self.node_id, round=rnd
            )
            self._obs_phase = idx
        if rel == self.last_round:
            tracer.end(tid=self.node_id, round=rnd)
            self._obs_phase = None

    def obs_close(self, rnd: int) -> None:
        """Close any open phase span (handler discarded mid-phase)."""
        if self._obs_phase is not None and _spans.enabled:
            _spans.active().end(tid=self.node_id, round=rnd)
            self._obs_phase = None

    # ------------------------------------------------------------------ #
    # Witnesses and the bit budget.
    # ------------------------------------------------------------------ #

    def _witness_of(self, target: int) -> Optional[Tuple[int, Optional[int]]]:
        """``(i, j)`` when this node is a witness of ``target``, else None.

        ``i`` is ``target``'s index in the ancestor list (at most ``t``)
        and ``j`` the fragment boundary (:meth:`_boundary_index`), which
        ``i`` does not pass.
        """
        anc = self.state.ancestors
        i = next((k for k, node in enumerate(anc) if node == target), None)
        j = self._boundary_index()
        if i is None or i > self.p.t or (j is not None and i > j):
            return None
        return i, j

    def _boundary_index(self) -> Optional[int]:
        """Smallest ``j`` with ``ancestors[j]`` the root or a critical
        failure (VERI: on the tree state, and hence the AGG-time critical
        failures, AGG left behind)."""
        st = self.state
        for j, node in enumerate(st.ancestors):
            if node is None:
                return None
            if node == self.p.root or node in st.critical_failures:
                return j
        return None

    def _valve(self, out: List[Part]) -> List[Part]:
        """The special-symbol mechanism of Algorithms 2 and 3: flood the
        ``ABORT`` symbol instead of exceeding the ``BUDGET`` bits (read
        from ``self.p`` at every check), then send nothing else.  Only
        called with parts to send."""
        planned = sum(part.bits for part in out)
        if (
            not self.aborted
            and self.bits_sent + planned > getattr(self.p, self.BUDGET)
        ):
            self.aborted = True
            symbol = getattr(wire, self.ABORT)(self.p)
            self.floods.initiate(symbol)
            self.floods.emit()
            out = [symbol]
            planned = symbol.bits
        elif self.aborted:
            out = [part for part in out if part.kind == self.ABORT]
            planned = sum(part.bits for part in out)
        self.bits_sent += planned
        return out


class AggNode(PhasedNode):
    """Per-node handler implementing Algorithm 2.

    ``start_round`` lets Algorithm 1 embed AGG executions at interval
    boundaries; rounds outside ``[start_round, start_round + 7cd + 3]`` are
    ignored.
    """

    PHASES = AGG_PHASES
    PHASE_ROUNDS = (
        "_construction_round",
        "_aggregation_round",
        "_flooding_round",
        "_selection_round",
    )
    FLOOD_KINDS = AGG_FLOOD_KINDS
    BUDGET = "agg_bit_budget"
    ABORT = "agg_abort"

    def __init__(
        self,
        params: ProtocolParams,
        node_id: int,
        my_input: int,
        start_round: int = 1,
    ) -> None:
        super().__init__(params, node_id, start_round)
        self.state = TreeState()
        if self.is_root:
            self.state.activated = True
            self.state.level = 0
            self.state.ancestors = [node_id] + [None] * (2 * params.t)
        self.state.psum = params.caaf.prepare(my_input)
        self._pending_tree_construct: Optional[int] = None

        #: source id -> flooded partial aggregate (phase 3 observations).
        self.flooded_sources: Dict[int, int] = {}
        #: (label, source) determinations seen (phase 4 observations).
        self.determinations: Set[Tuple[str, int]] = set()

        #: Root-only: the final aggregate (None if aborted / not finished).
        self.result: Optional[int] = None

    #: Bound here, not only inherited: the perf layer tracer books
    #: ``on_round`` to the class whose ``vars()`` define it.
    on_round = PhasedNode.on_round

    def _next_slot(self, rel: int, slot):
        """The earliest of ``slot`` and the phase-relative slots of the
        phase methods after ``rel``.  Besides those, an empty-inbox round
        only matters for a node still waiting to forward its beacon, and
        for an activated node's first aggregation round (it sets
        ``max_level``)."""
        st, spans, cd = self.state, self.spans, self.cd
        pending = self._pending_tree_construct
        if pending is not None and rel < pending < slot:
            slot = pending
        if st.activated:
            level = st.level
            if level <= cd:
                if rel < spans[1][0] + cd - level < slot:
                    slot = spans[1][0] + cd - level
                if st.max_level < level and rel < spans[1][0] < slot:
                    slot = spans[1][0]
            if rel < spans[2][0] + level < slot:
                slot = spans[2][0] + level
            if rel < spans[3][0] < slot:
                slot = spans[3][0]
        return slot

    # ------------------------------------------------------------------ #
    # Phase 1: tree construction (rounds 1 .. 2cd+1).
    # ------------------------------------------------------------------ #

    def _construction_round(
        self, rel: int, inbox: Sequence[Envelope]
    ) -> List[Part]:
        st = self.state
        out: List[Part] = []
        if self.is_root and rel == 1:
            out.append(wire.tree_construct(self.p, 0, ()))

        if not self.is_root and not st.activated:
            beacons = [
                (env.sender, part.payload)
                for env in inbox
                for part in env.parts
                if part.kind == "tree_construct"
            ]
            if beacons:
                # Arbitrary tie breaking, realized as smallest sender id.
                parent, (sender_level, sender_ancestors) = min(
                    beacons, key=lambda beacon: beacon[0]
                )
                st.activated = True
                st.level = sender_level + 1
                st.parent = parent
                width = 2 * self.p.t
                chain = ([parent] + list(sender_ancestors))[:width]
                chain += [None] * (width - len(chain))
                st.ancestors = [self.node_id] + chain
                out.append(wire.ack(self.p, parent))
                self._pending_tree_construct = rel + 1

        if self._pending_tree_construct == rel:
            self._pending_tree_construct = None
            out.append(
                wire.tree_construct(
                    self.p,
                    st.level,
                    tuple(a for a in st.ancestors[1:] if a is not None),
                )
            )

        for env in inbox:
            for part in env.parts:
                if part.kind == "ack" and part.payload == (self.node_id,):
                    st.children.add(env.sender)
        return out

    # ------------------------------------------------------------------ #
    # Phase 2: tree aggregation (phase rounds 1 .. 2cd+1).
    # ------------------------------------------------------------------ #

    def _aggregation_round(
        self, p: int, inbox: Sequence[Envelope]
    ) -> Optional[List[Part]]:
        st = self.state
        if not st.activated or st.level > self.cd:
            return None
        if st.max_level < st.level:
            st.max_level = st.level
        if p != self.cd - st.level + 1:
            return None
        arrived = {
            env.sender: part.payload
            for env in inbox
            for part in env.parts
            if part.kind == "aggregation"
        }
        for child in sorted(st.children):
            if child in arrived:
                child_psum, child_max_level = arrived[child]
                st.psum = self.p.caaf.op(st.psum, child_psum)
                st.max_level = max(st.max_level, child_max_level)
            else:
                self.floods.initiate(wire.critical_failure(self.p, child))
                st.critical_failures.add(child)
        # Line 23: every node (root included) broadcasts its aggregate.
        return [wire.aggregation(self.p, st.psum, st.max_level)]

    # ------------------------------------------------------------------ #
    # Phase 3: speculative flooding (phase rounds 1 .. 2cd+1).
    # ------------------------------------------------------------------ #

    def _flooding_round(self, p: int, inbox: Sequence[Envelope]) -> None:
        st = self.state
        if self.is_root and p == 1:
            self._initiate_psum_flood()
        elif (
            st.activated
            and not self.is_root
            and p == st.level + 1
        ):
            heard_parent = any(env.sender == st.parent for env in inbox)
            if not heard_parent:
                self._initiate_psum_flood()

    def _initiate_psum_flood(self) -> None:
        part = wire.flooded_psum(self.p, self.node_id, self.state.psum)
        if self.floods.initiate(part):
            self.flooded_sources[self.node_id] = self.state.psum

    # ------------------------------------------------------------------ #
    # Phase 4: partial-sum selection (phase rounds 1 .. cd+1).
    # ------------------------------------------------------------------ #

    def _selection_round(self, p: int, inbox: Sequence[Envelope]) -> None:
        if p != 1 or not self.state.activated:
            return
        for source in sorted(self.flooded_sources):
            label = self._witness_label(source)
            if label is not None:
                self.floods.initiate(wire.determination(self.p, label, source))
                self.determinations.add((label, source))

    def _witness_label(self, source: int) -> Optional[str]:
        """Lines 32-39 of Algorithm 2: this node's determination on ``source``.

        Returns None when this node is not a witness of ``source``.
        """
        witness = self._witness_of(source)
        if witness is None:
            return None
        i, j = witness
        if j is None:
            return DOMINATED
        anc = self.state.ancestors
        dominated = any(
            anc[k] is not None and anc[k] in self.flooded_sources
            for k in range(i + 1, j + 1)
        )
        return DOMINATED if dominated else KEEP

    # ------------------------------------------------------------------ #
    # Observations and output.
    # ------------------------------------------------------------------ #

    def _note_flood_observations(self, fresh: Sequence[Part]) -> None:
        for kind, payload, _bits in fresh:
            if kind == "flooded_psum":
                source, psum = payload
                self.flooded_sources.setdefault(source, psum)
            elif kind == "critical_failure":
                self.state.critical_failures.add(payload[0])
            elif kind == "determination":
                self.determinations.add(payload)
            elif kind == "agg_abort":
                self.aborted = True

    def _produce_output(self) -> None:
        self.done = True
        if self.aborted:
            self.result = None
            return
        total = self.p.caaf.identity
        for source, psum in self.flooded_sources.items():
            if (KEEP, source) in self.determinations:
                total = self.p.caaf.op(total, psum)
        self.result = total


# --------------------------------------------------------------------- #
# Standalone runner.
# --------------------------------------------------------------------- #


@dataclass
class AggOutcome:
    """Result of one standalone AGG execution."""

    result: Optional[int]
    aborted: bool
    stats: SimStats
    nodes: Dict[int, AggNode]
    network: Network


def run_agg(
    topology: Topology,
    inputs: Dict[int, int],
    t: int,
    schedule: Optional[FailureSchedule] = None,
    c: int = 2,
    caaf=None,
    max_input: Optional[int] = None,
    injectors=(),
) -> AggOutcome:
    """Run one AGG execution on ``topology`` with the given failure schedule.

    ``injectors`` are forwarded to the :class:`repro.sim.network.Network`.
    """
    from .caaf import SUM

    schedule = schedule or FailureSchedule()
    schedule.validate(topology)
    params = params_for(
        topology,
        t=t,
        c=c,
        caaf=caaf or SUM,
        max_input=max_input
        if max_input is not None
        else max(list(inputs.values()) + [1]),
    )
    nodes = {
        u: AggNode(params, u, inputs[u]) for u in topology.nodes()
    }
    network = Network(
        topology.adjacency,
        nodes,
        schedule.crash_rounds,
        injectors=injectors,
        root=topology.root,
    )
    stats = network.run(params.agg_rounds, stop_on_output=False)
    root = nodes[topology.root]
    return AggOutcome(
        result=root.result,
        aborted=root.aborted,
        stats=stats,
        nodes=nodes,
        network=network,
    )
