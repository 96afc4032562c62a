"""Byzantine compromise: non-root nodes that lie about their claims
(:class:`ByzantineSchedule`), run under the witness defence of
:class:`repro.resilience.byzantine.ByzantinePlan`; the
:class:`ByzantineOracle` grades its convictions and influence bound."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.families import load_config
from ..sim.faults import FaultInjector, _drawn, check_fraction
from ..sim.message import Part
from ..sim.monitors import Monitor
from ..sim.specs import JsonFields, SpecReader, config_jsonable
from . import FaultFlag, without

#: Byzantine node behaviors.
BYZ_EQUIVOCATE = "equivocate"
BYZ_INFLATE = "inflate"
BYZ_DEFLATE = "deflate"
BYZ_REPLAY = "replay"
BYZ_OMIT = "omit"
BYZ_MODES = (BYZ_EQUIVOCATE, BYZ_INFLATE, BYZ_DEFLATE, BYZ_REPLAY, BYZ_OMIT)

#: Wire kinds a Byzantine node lies about: its own sub-aggregate claims.
#: ``aggregation`` carries ``(psum, max_level)`` upstream; ``flooded_psum``
#: carries ``(source, psum)`` during speculative flooding.  A compromised
#: node perturbs only *its own* claims (floods it originates), never
#: content it merely relays — relay tampering is a corruption fault and
#: stays with :class:`repro.sim.faults.MessageCorruption`.
BYZ_TARGET_KINDS = frozenset({"aggregation", "flooded_psum"})

#: The rejection of a schedule that compromises the root.
BYZ_ROOT_ERROR = (
    "the root cannot be byzantine: it is the certification authority of "
    "every aggregate (Section 2 trusts the root)"
)


@dataclass
class ByzCounts:
    """Tally of enacted Byzantine perturbations, for run reports."""

    equivocations: int = 0
    inflations: int = 0
    deflations: int = 0
    replays: int = 0
    omissions: int = 0


class ByzantineSchedule(JsonFields, FaultInjector):
    """Compromised non-root nodes that lie about their sub-aggregates.

    Every fault model so far keeps nodes *honest*: crashes, churn, gray
    latency and link corruption never make a node sign a false claim.
    This injector compromises selected non-root nodes — each follows one
    deterministic misbehavior from its activation round on:

    * ``equivocate`` — send different sub-aggregates to different
      neighbors: receivers at an odd rank in the sender's sorted
      neighbor list get ``psum + k``, even ranks the true value (two
      authenticated contradictory frames — the classic equivocation);
    * ``inflate`` / ``deflate`` — shift the claimed psum by ``+k`` /
      ``-k`` (clamped at 0) consistently to everyone;
    * ``replay`` — resend the node's *previous* claim of the same kind
      (authentic old content presented as current);
    * ``omit`` — selectively suppress copies to odd-rank neighbors (a
      targeted silence indistinguishable from a crash to the victim).

    The compromised node knows its own signing key: when the integrity
    layer is active (:attr:`integrity` set to the run's
    ``IntegrityConfig``), perturbed inner parts are re-signed with
    :func:`repro.integrity.frames.compute_tag`, so the lie verifies —
    exactly the fault class channel authentication cannot catch.

    Perturbed payloads stay within tuples/ints/strs/``None`` so recorded
    runs replay bit-exactly, and every rewrite preserves the copy's bit
    size (a lie costs the same bits as the truth).  The schedule is its
    own **ground-truth ledger** for grading: :attr:`delivered_taints`
    books every tainted copy a receiver actually saw (equivocation marks
    *all* copies of the split broadcast, so two contradictory delivered
    contents are visible to the oracle).
    """

    modifies_delivery = True

    def __init__(
        self,
        behaviors=None,
        root: Optional[int] = None,
    ) -> None:
        super().__init__()
        #: Per node: ``(mode, magnitude, start_round)``.
        self.behaviors: Dict[int, Tuple[str, int, int]] = {}
        for node, entry in dict(behaviors or {}).items():
            mode, k, start = (tuple(entry) + (1, 1))[:3]
            if mode not in BYZ_MODES:
                raise ValueError(
                    f"unknown byzantine mode {mode!r} for node {node} "
                    f"(expected one of {BYZ_MODES})"
                )
            if int(k) < 1:
                raise ValueError(
                    f"byzantine magnitude for node {node} must be >= 1, "
                    f"got {k}"
                )
            if int(start) < 1:
                raise ValueError(
                    f"byzantine start round for node {node} must be >= 1, "
                    f"got {start}"
                )
            self.behaviors[int(node)] = (mode, int(k), int(start))
        if root is not None and root in self.behaviors:
            raise ValueError(BYZ_ROOT_ERROR)
        #: The run's IntegrityConfig when the integrity layer is active —
        #: set by the runner so perturbed frames are re-signed (a
        #: compromised node holds its own key).  ``None`` outside
        #: integrity runs.
        self.integrity = None
        #: Epoch counter, kept in lock-step with the defense
        #: coordinator's (both advance once per network build) so tainted
        #: deliveries match observations across eviction retries.
        self.epoch = -1
        #: Tainted deliveries a receiver actually saw, as
        #: ``(epoch, round, sender, receiver, content_key)`` — the
        #: ByzantineOracle's ground truth.
        self.delivered_taints: List[Tuple] = []
        self.counts = ByzCounts()
        #: Rewrites created: ``{(sender, receiver, content_key): mode}``;
        #: the recorder annotates bundles with :meth:`byz_mode` so
        #: replays rebuild the same ground truth.
        self._taint: Dict[Tuple, str] = {}
        # Receiver rank in each sender's sorted neighbor list (equivocate
        # / omit target selection); filled at attach.
        self._rank: Dict[Tuple[int, int], int] = {}
        self._degree: Dict[int, int] = {}
        # Per (sender, kind): last completed claim and the claim of the
        # round currently streaming through on_transmit, for ``replay``.
        self._hist: Dict[Tuple[int, str], Tuple[int, tuple]] = {}
        self._cur: Dict[Tuple[int, str], Tuple[int, tuple]] = {}

    JSON_FIELDS = ("behaviors",)

    #: The accepted ``from_spec`` grammar, quoted in every rejection.
    SPEC_GRAMMAR = (
        "comma-separated behaviors: '<node>:<mode>[=<k>][@r<R>]' with "
        "modes equivocate, inflate, deflate, replay, omit, magnitude "
        "k >= 1 (default 1) and activation round R >= 1 (default 1) "
        "(e.g. '5:equivocate,7:inflate=4@r3,9:omit')"
    )

    @classmethod
    def from_spec(cls, spec: str, **kwargs) -> "ByzantineSchedule":
        """Build from a CLI spec like ``5:equivocate,7:inflate=4@r3``.

        Unknown modes, malformed magnitudes or rounds, and nodes given
        more than once all raise ``ValueError`` naming the offending
        token and :data:`SPEC_GRAMMAR`.
        """

        reader = SpecReader("byzantine", cls.SPEC_GRAMMAR, spec)
        behaviors: Dict[int, Tuple[str, int, int]] = {}
        for item in reader:
            node_raw, sep, body = item.partition(":")
            if not sep:
                raise reader.reject("needs <node>:<mode>")
            node = reader.integer(node_raw, "node")
            if node in behaviors:
                raise reader.reject(f"node {node} given more than once")
            body, at, round_raw = body.partition("@")
            start = reader.round(round_raw) if at else 1
            mode, eq, k_raw = body.partition("=")
            mode = mode.strip()
            if mode not in BYZ_MODES:
                raise reader.reject(f"unknown byzantine mode {mode!r}")
            k = reader.at_least_one(k_raw.strip(), "magnitude") if eq else 1
            behaviors[node] = (mode, k, start)
        return cls(behaviors=behaviors, **kwargs)

    # -------------------------------------------------------------- #
    # Introspection (the ByzantineOracle's ground truth).
    # -------------------------------------------------------------- #

    @property
    def has_events(self) -> bool:
        return bool(self.behaviors)

    @property
    def budget(self) -> int:
        """The declared adversary budget b: number of compromised nodes."""
        return len(self.behaviors)

    def byz_nodes(self) -> List[int]:
        """Compromised node ids, sorted."""
        return sorted(self.behaviors)

    def byz_mode(
        self, sender: int, receiver: int, part: Part
    ) -> Optional[str]:
        """How ``part`` on this link was tainted (one of
        :data:`BYZ_MODES`), or None — the recorder annotates bundles with
        this so replays rebuild the same ground truth."""
        return self._taint.get((sender, receiver, part.content_key))

    def validate(self, topology) -> None:
        """Reject behaviors naming unknown nodes or the root.

        The root is the output: a compromised root could report anything
        and no witness protocol over its *inputs* could tell — Section 2
        protects it, and so does every defended run.
        """
        nodes = set(topology.nodes())
        for node in self.behaviors:
            if node not in nodes:
                raise ValueError(
                    f"byzantine schedule names unknown node {node}"
                )
            if node == topology.root:
                raise ValueError(
                    f"byzantine schedule compromises the root {node}: the "
                    "model (and the witness defense) assume an honest root"
                )

    # -------------------------------------------------------------- #
    # Injector hooks.
    # -------------------------------------------------------------- #

    def attach(self, network) -> None:
        """Bind to a network; each attach starts a new epoch."""
        super().attach(network)
        if network.root is not None and network.root in self.behaviors:
            raise ValueError(BYZ_ROOT_ERROR)
        self.epoch += 1
        self._rank = {}
        self._degree = {}
        for sender, neighbours in network.adjacency.items():
            ordered = sorted(neighbours)
            self._degree[sender] = len(ordered)
            for rank, receiver in enumerate(ordered):
                self._rank[(sender, receiver)] = rank
        self._hist = {}
        self._cur = {}

    def _remember(self, sender: int, kind: str, sent_round: int, payload):
        """Track the sender's previous claim of ``kind`` for ``replay``.

        ``on_transmit`` runs once per neighbor copy of the same
        broadcast; copies of the current round must not shadow the
        previous round's claim, so promotion happens only when a newer
        round streams through.  Returns the previous completed claim.
        """
        key = (sender, kind)
        current = self._cur.get(key)
        if current is not None and current[0] < sent_round:
            self._hist[key] = current
            current = None
        if current is None:
            self._cur[key] = (sent_round, payload)
        previous = self._hist.get(key)
        return previous[1] if previous is not None else None

    def _reframe(self, part: Part, inner_parts: List[Part]) -> Part:
        """Re-sign a rewritten integrity frame (the node holds its key)."""
        from ..integrity.frames import compute_tag

        seq, claimed_sender, _inner, _tag = part.payload
        inner = tuple((p.kind, p.payload, p.bits) for p in inner_parts)
        tag = compute_tag(self.integrity, claimed_sender, seq, inner)
        return Part(part.kind, (seq, claimed_sender, inner, tag), part.bits)

    def _perturb_claim(
        self,
        sender: int,
        receiver: int,
        sent_round: int,
        part: Part,
    ) -> Tuple[Optional[Part], Optional[str]]:
        """Rewrite one claim part per the sender's behavior.

        Returns ``(rewritten_part, mode)``; ``(None, "omit")`` suppresses
        the copy, ``(part, None)`` passes it through untouched.
        """
        mode, k, start = self.behaviors[sender]
        if sent_round < start:
            return part, None
        if part.kind == "flooded_psum" and part.payload[0] != sender:
            return part, None  # relayed content: never tampered
        rank = self._rank.get((sender, receiver), 0)
        if mode == BYZ_OMIT:
            if self._degree.get(sender, 0) < 2 or rank % 2 == 0:
                return part, None
            self.counts.omissions += 1
            return None, BYZ_OMIT
        if part.kind == "aggregation":
            psum, max_level = part.payload
            rebuild = lambda v: (v, max_level)  # noqa: E731
        else:
            source, psum = part.payload
            rebuild = lambda v: (source, v)  # noqa: E731
        previous = self._remember(sender, part.kind, sent_round, part.payload)
        if mode == BYZ_EQUIVOCATE:
            if self._degree.get(sender, 0) < 2:
                return part, None
            # Odd ranks get the lie, even ranks the truth; every copy of
            # the split broadcast is tainted so the ledger shows both
            # contradictory delivered contents.
            self.counts.equivocations += 1
            if rank % 2 == 1:
                return Part(part.kind, rebuild(psum + k), part.bits), mode
            return part, mode
        if mode == BYZ_INFLATE:
            self.counts.inflations += 1
            return Part(part.kind, rebuild(psum + k), part.bits), mode
        if mode == BYZ_DEFLATE:
            self.counts.deflations += 1
            return Part(part.kind, rebuild(max(0, psum - k)), part.bits), mode
        # BYZ_REPLAY: resend the previous claim of this kind, if any.
        if previous is None or previous == part.payload:
            return part, None
        self.counts.replays += 1
        return Part(part.kind, previous, part.bits), mode

    def on_transmit(
        self, due: int, sender: int, receiver: int, part: Part
    ) -> List[Tuple[int, Part]]:
        """Maybe rewrite (or suppress) one delivery copy of a claim: a bare
        claim part, or the claims inside the sender's own integrity frame
        (which is then re-signed)."""
        if sender not in self.behaviors:
            return [(due, part)]
        framed = part.kind == "integ_frame" and self.integrity is not None
        if framed:
            try:
                _seq, claimed_sender, inner, _tag = part.payload
            except (TypeError, ValueError):
                return [(due, part)]
            if claimed_sender != sender:
                return [(due, part)]
            claims = [
                Part(kind, payload, bits) for kind, payload, bits in inner
            ]
        elif part.kind in BYZ_TARGET_KINDS:
            claims = [part]
        else:
            return [(due, part)]
        kept: List[Part] = []
        mode = None
        touched = False
        for claim in claims:
            rewritten, how = claim, None
            if claim.kind in BYZ_TARGET_KINDS:
                rewritten, how = self._perturb_claim(
                    sender, receiver, due - 1, claim
                )
            touched = touched or how is not None
            if rewritten is not None:
                kept.append(rewritten)
                mode = how or mode
        if not touched:
            return [(due, part)]
        if framed:
            out = self._reframe(part, kept)
        elif kept:
            out = kept[0]
        else:
            return []  # omitted
        if mode is not None:
            self._taint[(sender, receiver, out.content_key)] = mode
        return [(due, out)]

    def arrange_inbox(self, rnd: int, receiver: int, envelopes: List) -> List:
        """Observe (never modify) the inbox: log delivered taints."""
        for envelope in envelopes:
            for part in envelope.parts:
                key = (envelope.sender, receiver, part.content_key)
                if key in self._taint:
                    self.delivered_taints.append(
                        (self.epoch, rnd, envelope.sender, receiver,
                         part.content_key)
                    )
        return envelopes

    def __repr__(self) -> str:
        return (
            f"ByzantineSchedule(b={self.budget}, "
            f"behaviors={sorted(self.behaviors.items())})"
        )


def random_byz(
    topology,
    rate: float,
    rng: random.Random,
    horizon: int,
    root: Optional[int] = None,
) -> ByzantineSchedule:
    """Sample a bounded Byzantine schedule at a per-node compromise ``rate``.

    Each non-root node is independently compromised with probability
    ``rate``: the mode is drawn uniformly from :data:`BYZ_MODES`, the
    magnitude from 1..3, and the activation round from
    ``[1, max(1, horizon // 2)]``.  The draw order is fixed (sorted
    nodes) so schedules are reproducible per RNG state.  The root is
    never compromised (it is the certification authority).
    """
    check_fraction("byzantine rate", rate)
    horizon = max(2, horizon)
    behaviors: Dict[int, Tuple[str, int, int]] = {}
    for node in _drawn(topology.nodes(), rate, rng, skip=root):
        mode = BYZ_MODES[rng.randrange(len(BYZ_MODES))]
        k = rng.randint(1, 3)
        start = rng.randint(1, max(1, horizon // 2))
        behaviors[node] = (mode, k, start)
    return ByzantineSchedule(behaviors=behaviors, root=root)


class ByzantineOracle(Monitor):
    """Byzantine detection quality, graded against the taint ledger.

    The :class:`ByzantineSchedule` knows exactly which
    nodes lied and which contradictory contents were delivered; the
    witness defence (:mod:`repro.resilience.byzantine`) only sees
    delivered claims.  This oracle compares the two and reports under
    three rules:

    * ``false-conviction`` — the witness pool convicted an honest node.
      Eviction turns a conviction into a crash, so a false conviction
      silently drops a truthful contribution — the one failure mode a
      sound accusation protocol must never exhibit.
    * ``undetected-equivocation`` — the ground-truth ledger shows two
      contradictory delivered contents for one claim (same epoch, round,
      sender, kind) yet the sender was never convicted.  Two delivered
      variants are an equivocation proof by definition; missing it means
      the cross-validation echo lost information.
    * ``influence-exceeded`` — a certified result whose error over its
      claimed coverage exceeds its shipped ``influence_bound`` (or that
      ships no bound at all while compromised nodes remain): the
      certification promised more than the defence delivered.

    Convictions and equivocations are graded once per run via
    :meth:`grade_convictions`; the final certificate via
    :meth:`grade_result`.  Per-network hooks are no-ops — grading needs
    the whole-run ledger, which only the runner holds.
    """

    rule = "byzantine"

    def __init__(self, byz, mode: str = "strict") -> None:
        super().__init__(mode)
        self.byz = byz
        self.false_convictions = 0
        self.undetected_equivocations = 0
        self.influence_exceeded = 0
        self._reported: set = set()

    def grade_convictions(self, convictions) -> None:
        """Grade the conviction set against the compromised-node ledger.

        ``convictions`` is any iterable of convicted node ids (the
        defence coordinator's ``convictions`` mapping iterates as one).
        """
        if self.byz is None:
            return
        convicted = set(convictions)
        compromised = set(self.byz.byz_nodes())
        for node in sorted(convicted - compromised):
            key = ("false", node)
            if key in self._reported:
                continue
            self._reported.add(key)
            self.false_convictions += 1
            self.report_as(
                "false-conviction",
                f"honest node {node} was convicted by the witness pool "
                f"(compromised nodes: {sorted(compromised)}): its "
                "contribution was wrongly evicted",
            )
        groups: Dict[tuple, set] = {}
        for epoch, rnd, sender, _receiver, content_key in (
            self.byz.delivered_taints
        ):
            kind, payload = content_key
            groups.setdefault((epoch, rnd, sender, kind), set()).add(payload)
        for group in sorted(groups, key=str):
            variants = groups[group]
            epoch, rnd, sender, kind = group
            if len(variants) < 2 or sender in convicted:
                continue
            key = ("equiv", group)
            if key in self._reported:
                continue
            self._reported.add(key)
            self.undetected_equivocations += 1
            self.report_as(
                "undetected-equivocation",
                f"node {sender} delivered {len(variants)} contradictory "
                f"{kind!r} contents in epoch {epoch} round {rnd} but was "
                "never convicted",
                rnd,
            )

    def grade_result(self, partial) -> None:
        """Grade the final certificate: the shipped bound must hold.

        An honest run's value lies in the Section 2 correctness bracket
        ``[lower_bound, upper_bound]`` (coverage aggregate up to the
        all-nodes aggregate — mid-run crashes may or may not have folded
        in before dying); the certificate promises the compromised
        residue moves it by at most ``influence_bound`` beyond that.
        """
        if partial is None or not partial.certified or partial.value is None:
            return
        bound = partial.influence_bound
        if bound is None:
            remaining = set(self.byz.byz_nodes()) & set(partial.coverage)
            if remaining:
                self.influence_exceeded += 1
                self.report_as(
                    "influence-exceeded",
                    f"certified result ships no influence bound although "
                    f"compromised nodes {sorted(remaining)} remain in its "
                    "coverage",
                )
            return
        lo = (partial.lower_bound or 0) - bound
        hi = (
            partial.upper_bound if partial.upper_bound is not None else 0
        ) + bound
        if not lo <= partial.value <= hi:
            self.influence_exceeded += 1
            self.report_as(
                "influence-exceeded",
                f"certified value {partial.value} falls outside "
                f"[{partial.lower_bound}, {partial.upper_bound}] widened "
                f"by the shipped influence bound {bound}",
            )


CODECS = {
    "byz": (ByzantineSchedule.from_jsonable, config_jsonable),
    "byz_config": (
        load_config("..resilience.byzantine:ByzantineConfig"),
        config_jsonable,
    ),
}


def parse(spec: str, root: Optional[int]) -> ByzantineSchedule:
    """The schedule of a ``--byz`` spec string."""
    return ByzantineSchedule.from_spec(spec)


draw = random_byz


def oracles(cfg, inputs, *, caaf, mode: str) -> list:
    """The Byzantine oracle, when some node is compromised."""
    if not cfg["byz"].has_events:
        return []
    return [ByzantineOracle(cfg["byz"], mode=mode)]


def plan(topology, inputs, schedule, cfg, *, mode: str, **common):
    """The witness defence's plan
    (:class:`repro.resilience.byzantine.ByzantinePlan`)."""
    from ..resilience.byzantine import ByzantinePlan

    return ByzantinePlan(
        topology, inputs, cfg["byz"], schedule, config=cfg["byz_config"],
        integrity=cfg["integrity"], mode=mode, **common,
    )


def sweep_columns(records) -> dict:
    """A sweep point's rows with a taint ledger, total convictions and
    oracle violations (which must stay zero)."""
    rows = sum(1 for r in records if "false_convictions" in r.extra)
    if not rows:
        return {}
    return {
        "byz_rows": rows,
        "convictions": sum(
            int(r.extra.get("convicted") or 0) for r in records
        ),
        "byz_violations": sum(
            int(r.extra.get("false_convictions") or 0)
            + int(r.extra.get("undetected_equivocations") or 0)
            + int(r.extra.get("influence_exceeded") or 0)
            for r in records
        ),
    }


FLAGS = (
    FaultFlag("--byz", dict(
        help="Byzantine compromise schedule (algorithm1 / unknown_f): "
        "an explicit spec '5:equivocate,7:inflate=4@r3,9:omit' "
        "(modes: equivocate, inflate, deflate, replay, omit) or "
        "'rate:<float>' for seeded random compromise; runs go "
        "through witness cross-validation with accusation/eviction "
        "and influence-bounded certification (echo traffic is "
        "booked as overhead, never protocol CC)",
    ), "byz"),
    FaultFlag("--witnesses", dict(
        type=int,
        help="with --byz: witnesses echoing each claim for "
        "cross-validation (default 2)",
    ), needs=(without("byz", "sizes the --byz witness panels"),)),
    FaultFlag("--evict-policy", dict(
        choices=["evict", "flag"],
        help="with --byz: conviction response — 'evict' discards the "
        "epoch and re-aggregates without the convict (default); "
        "'flag' keeps the value but leaves the convict's influence "
        "unbounded (uncertified)",
    ), needs=(without("byz", "picks the --byz conviction response"),)),
)

VERDICTS = (
    # Witnesses: an honest node convicted (eviction must stand on an
    # equivocation proof or failed delta audit, never on suspicion), an
    # equivocation that never drew an accusation, or a value farther from
    # the honest bracket than the certified b * v_max influence bound.
    ("false_convictions", "FALSE-CONVICTION"),
    ("undetected_equivocations", "UNDETECTED-EQUIVOCATION"),
    ("influence_exceeded", "INFLUENCE-EXCEEDED"),
)

CHAOS_COLUMNS = (
    ("convicted", lambda x: x.get("convicted", 0)),
    ("evicted", lambda x: x.get("evicted", 0)),
    ("bound", lambda x: x.get("influence_bound", 0)),
    ("epochs", lambda x: x.get("epochs", 1)),
)


def cli_config(args, spec) -> dict:
    """``--byz`` and the ``--witnesses`` / ``--evict-policy`` config."""
    config = None
    if args.witnesses is not None or args.evict_policy is not None:
        from ..resilience.byzantine import ByzantineConfig

        config = ByzantineConfig(
            witnesses=2 if args.witnesses is None else args.witnesses,
            evict_policy=args.evict_policy or "evict",
        )
    return dict(byz=spec("byz"), byz_config=config)
