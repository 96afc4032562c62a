"""Reliable local-broadcast transport over a lossy network.

The paper's model (Section 2) promises that a broadcast made in round ``r``
reaches every live neighbour in round ``r + 1``, exactly once, in sender
order.  :class:`repro.sim.faults.MessageFaults` breaks all three promises.
This module restores them *underneath* an unmodified protocol handler, so
AGG/VERI and the composed protocols run bit-identically to the in-model
execution as long as the retransmit budget holds out.

Mechanism — windowed logical rounds:

* Every **logical** protocol round spans a fixed **window** of ``W``
  physical network rounds.  At slot 1 of window ``r`` each live node hands
  its inner handler the (recovered) logical inbox of round ``r`` and wraps
  whatever the handler broadcasts into a single *frame* carrying the
  logical round number, an attempt counter, and the inner parts.  An empty
  broadcast still produces a heartbeat frame, so a missing frame is
  distinguishable from a silent node.  The inner handler keeps the wake
  contract of :mod:`repro.sim.node` in logical rounds: it is called only
  when its logical inbox is non-empty or its ``next_wake`` is due, and
  otherwise the heartbeat carries ``()`` without calling it, exactly what
  the call would have returned.
* Frames are deduplicated per ``(sender, logical round)`` — duplicate
  copies injected by the network are suppressed — and buffered per logical
  round, so arbitrary within-window reordering and delays are absorbed.
  The delivered inbox is sorted by sender id with per-frame part order
  preserved, which reproduces the exact-model delivery order.  Every
  receiver of a frame buffers the very contents tuple its sender framed,
  so each frame's logical-inbox envelope is built once and shared
  (:meth:`ReliableTransport.logical_envelope`), as on the exact path.
  Likewise a copy whose payload *is* the last frame its sender built
  skips the shape checks (:func:`well_formed_frame`); every other copy —
  corrupted, rewritten, replayed or superseded — is checked in full.
* At fixed **NACK slots** inside the window a receiver that is still
  missing a frame broadcasts a NACK naming the missing senders; the named
  senders rebroadcast their frame (attempt > 0).  NACK slots follow a
  bounded exponential backoff: consecutive gaps start at 2 physical rounds
  (the minimum feasible NACK->retransmit cycle) and double up to
  ``backoff_cap``.  Each frame is retransmitted at most
  ``retransmits`` times.
* If a frame is still missing when its window closes, the receiver records
  a **gap** with the :class:`ReliableTransport` coordinator and presumes
  the sender dead (it stops NACKing it; any later frame revives it).  Gaps
  whose sender really had crashed by the deadline are the model's own
  silence and are *excused*; a gap from a live sender means delivery
  semantics were violated despite the budget, and poisons certification
  (see :mod:`repro.resilience.partial`).

All transport bits — frame headers, NACKs, and entire retransmitted
frames — are classified by :meth:`ReliableTransport.overhead_bits` and
booked under :attr:`repro.sim.stats.SimStats.overhead_bits`, so
``SimStats.max_bits`` keeps meaning the *protocol* CC and the paper's
envelope checks stay honest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..obs import spans as _spans
from ..sim.message import Envelope, Part, TAG_BITS, id_bits
from ..sim.node import NodeHandler
from ..sim.specs import JsonFields
from .detector import LEVEL_CONFIRM, PhiAccrualDetector, AdaptiveRto

#: Wire kinds used by the transport shim.
FRAME_KIND = "xport_frame"
NACK_KIND = "xport_nack"
TRANSPORT_KINDS = frozenset({FRAME_KIND, NACK_KIND})

#: What a sender that built no frame yet has in ``ReliableTransport.built``
#: (not None: a corrupted payload can be None).
_UNBUILT = object()

#: Accepted retransmission-timing modes.
RTO_MODES = ("fixed", "adaptive")

#: Bits for a logical-round sequence number on the wire.
SEQ_BITS = 16
#: Bits for a frame's attempt counter.
ATTEMPT_BITS = 3
#: Bits for the incarnation stamp revived nodes append to frames and
#: NACKs (absent — and free — for incarnation 0, the pre-churn format).
INCARNATION_BITS = 4
#: Header cost of every frame: tag + sequence number + attempt counter.
FRAME_HEADER_BITS = TAG_BITS + SEQ_BITS + ATTEMPT_BITS


@dataclass(frozen=True)
class TransportConfig(JsonFields):
    """Tuning knobs for the reliable transport.

    Attributes:
        retransmits: Maximum retransmissions of any single frame (the
            per-frame recovery budget).  0 disables recovery and leaves
            only framing + dedup + reorder buffering.
        backoff_cap: Upper bound, in physical rounds, on the gap between
            consecutive NACK slots.  The gap sequence is 2, 4, 8, ...
            capped here; ``backoff_cap=2`` forces linear (every other
            slot) NACKing.
        rto: Retransmission-timing mode.  ``"fixed"`` keeps the
            historical schedule (NACKs at the precomputed slots, windows
            of exactly :attr:`window` rounds) and is bit-identical to
            pre-gray builds.  ``"adaptive"`` times NACKs per link from an
            EWMA RTT estimator (:class:`repro.resilience.detector.AdaptiveRto`)
            and lets the coordinator close a logical round early once
            every live node reports a complete inbox — clean stretches
            run 2-round windows instead of :attr:`window`-round ones,
            while degraded links stretch back up to the fixed cap.  The
            φ-accrual detector runs only in this mode.
    """

    retransmits: int = 2
    backoff_cap: int = 8
    rto: str = "fixed"

    # Pre-gray (v3 and older) bundles carry no rto.  A hedged bundle cannot
    # be replayed: the transport no longer relays overheard frames.
    QUIET = ("rto",)
    RETIRED = {"hedge": False}
    REQUIRED = ("retransmits",)

    def __post_init__(self) -> None:
        if self.retransmits < 0:
            raise ValueError(
                f"retransmits must be >= 0, got {self.retransmits}"
            )
        if self.backoff_cap < 2:
            raise ValueError(
                f"backoff_cap must be >= 2, got {self.backoff_cap}"
            )
        if self.rto not in RTO_MODES:
            raise ValueError(
                f"rto must be one of {RTO_MODES}, got {self.rto!r}"
            )

    @property
    def adaptive(self) -> bool:
        """Whether per-link adaptive RTO replaces the fixed schedule."""
        return self.rto == "adaptive"

    @cached_property
    def nack_slots(self) -> Tuple[int, ...]:
        """Window slots at which receivers NACK missing frames.

        Computed once per config: the transport consults it every round.
        """
        slots: List[int] = []
        slot, gap = 2, 2
        for _ in range(self.retransmits):
            slots.append(slot)
            gap = min(gap, self.backoff_cap)
            slot += gap
            gap *= 2
        return tuple(slots)

    @cached_property
    def window(self) -> int:
        """Physical rounds per logical round.

        Sized so the retransmission triggered by the last NACK slot still
        arrives before the logical round is finalized (frames arriving at
        slot 1 of the next window are absorbed before delivery).
        """
        slots = self.nack_slots
        return (slots[-1] + 1) if slots else 2


class TransportGap(NamedTuple):
    """A frame that never arrived: receiver gave up on sender for a round."""

    logical_round: int
    sender: int
    receiver: int
    #: Last physical round at which the frame could still have arrived.
    deadline: int


class ReliableTransport:
    """Shared coordinator for one network's worth of :class:`TransportNode`.

    Holds the config, the retransmit-budget ledger, fault-recovery counters
    and the gap log; also serves as the network's overhead classifier via
    :meth:`overhead_bits`.
    """

    def __init__(self, config: Optional[TransportConfig] = None) -> None:
        self.config = config or TransportConfig()
        #: ``config.adaptive``, read once: the transport consults it in
        #: every round of every node.
        self.adaptive = self.config.adaptive
        self.n_nodes = 0
        #: Retransmissions used, per ``(sender, logical_round)``.
        self.retx_used: Dict[Tuple[int, int], int] = {}
        self.frames = 0
        self.retransmissions = 0
        self.nacks = 0
        self.duplicates_suppressed = 0
        self.stale_frames = 0
        self.revivals = 0
        #: NACKs discarded because they referenced a seq window from a
        #: peer's *previous incarnation* (crash-recovery churn): the
        #: rebooted peer re-syncs at the next window boundary, so
        #: retransmitting against its ghost NACK would only burn budget.
        self.stale_nacks = 0
        #: Rejoins enacted through the ``on_churn_revive`` hook, by mode.
        self.rejoins_durable = 0
        self.rejoins_amnesiac = 0
        #: Frames/NACKs whose payload did not have the expected shape
        #: (possible under corruption injection without an integrity
        #: layer); dropped rather than crashing the decoder.
        self.malformed = 0
        self.gaps: List[TransportGap] = []
        #: Per-link retransmission audit: attempts granted and budget-cap
        #: hits, keyed ``(frame sender, NACKing receiver)`` — the
        #: aggregate counters above stay, but per-link RTO adaptation is
        #: only auditable with the link-level split.
        self.link_attempts: Dict[Tuple[int, int], int] = {}
        self.link_cap_hits: Dict[Tuple[int, int], int] = {}
        #: φ-accrual suspicion and per-link RTO state (adaptive mode
        #: only; ``None`` keeps the fixed path untouched).
        self.detector: Optional[PhiAccrualDetector] = (
            PhiAccrualDetector() if self.adaptive else None
        )
        self.rtos: Dict[Tuple[int, int], AdaptiveRto] = {}
        # Adaptive-window state: start round of the current logical round
        # plus the sealed history (lr -> start round).  Fixed mode never
        # touches these; slot arithmetic stays closed-form.
        self._cur_lr = 1
        self._cur_start = 1
        self._starts: Dict[int, int] = {1: 1}
        #: Per-round missing-frame reports: round -> node -> count.
        self._reports: Dict[int, Dict[int, int]] = {}
        #: Logical-inbox envelopes of logical round ``_envelopes_lr``,
        #: shared by every receiver of one frame: ``sender -> (buffered
        #: contents, envelope)`` (see :meth:`logical_envelope`).
        self._envelopes: Dict[int, Tuple[tuple, Envelope]] = {}
        self._envelopes_lr = 0
        #: The last frame payload each sender built (see
        #: :meth:`TransportNode._absorb`).
        self.built: Dict[int, tuple] = {}

    @property
    def window(self) -> int:
        return self.config.window

    def wrap(self, handlers: Dict[int, NodeHandler], adjacency) -> Dict[int, "TransportNode"]:
        """Wrap every handler in a :class:`TransportNode` bound to this coordinator."""
        self.n_nodes = max(self.n_nodes, len(adjacency))
        # A new network's rounds restart at 1 (failover epochs): reset the
        # window tracker and the detector's arrival clocks, keeping the
        # learned inter-arrival history and RTO estimators.
        self._cur_lr = 1
        self._cur_start = 1
        self._starts = {1: 1}
        self._reports = {}
        self._envelopes = {}
        self._envelopes_lr = 0
        if self.detector is not None:
            self.detector._last = {}
            self.detector._level = {}
        return {
            u: TransportNode(self, u, handlers[u], adjacency[u])
            for u in handlers
        }

    # ------------------------------------------------------------------ #
    # Adaptive windows (rto="adaptive" only).
    # ------------------------------------------------------------------ #

    def locate(self, rnd: int) -> Tuple[int, int]:
        """The ``(logical round, slot)`` physical round ``rnd`` falls in.

        Fixed mode is closed-form arithmetic.  Adaptive mode seals window
        boundaries lazily: the first ``locate`` call for a round decides —
        from the previous round's missing-frame reports only, so the
        decision is identical no matter which node asks first — whether
        the current logical round closes here.  A window closes when
        every reporting node had a complete inbox (earliest possible:
        after slot 2), or at the fixed cap :attr:`window`.
        """
        if not self.adaptive:
            window = self.config.window
            return (rnd - 1) // window + 1, (rnd - 1) % window + 1
        slot = rnd - self._cur_start + 1
        if slot >= 3 and self._should_close(slot):
            self._cur_lr += 1
            self._cur_start = rnd
            self._starts[self._cur_lr] = rnd
            slot = 1
        return self._cur_lr, slot

    def _should_close(self, slot: int) -> bool:
        if slot > self.config.window:
            return True
        reports = self._reports.get(self._cur_start + slot - 2)
        return bool(reports) and all(v == 0 for v in reports.values())

    def window_start(self, logical_round: int) -> int:
        """First physical round of ``logical_round``'s window."""
        if not self.adaptive:
            return (logical_round - 1) * self.config.window + 1
        return self._starts.get(
            logical_round, (logical_round - 1) * self.config.window + 1
        )

    def report_missing(self, node: int, rnd: int, missing: int) -> None:
        """One node's end-of-round count of still-missing frames."""
        self._reports.setdefault(rnd, {})[node] = missing
        for old in [r for r in self._reports if r < rnd - 2]:
            del self._reports[old]

    def logical_envelope(
        self, sender: int, logical_round: int, contents: tuple
    ) -> Envelope:
        """The logical-inbox envelope of ``sender``'s frame ``contents``
        (``(kind, payload, bits)`` triples) for ``logical_round``.

        Local broadcast hands every receiver the same buffered tuple, so
        a receiver whose ``contents`` *is* (identity, not ``==``) the
        tuple the sender's last envelope was built from gets that
        envelope, and the frame's parts are built once.  Only the logical
        round being delivered is kept.
        """
        if logical_round != self._envelopes_lr:
            self._envelopes = {}
            self._envelopes_lr = logical_round
        memo = self._envelopes.get(sender)
        if memo is not None and memo[0] is contents:
            return memo[1]
        envelope = Envelope(sender, tuple(
            Part(kind, payload, bits) for kind, payload, bits in contents
        ))
        self._envelopes[sender] = (contents, envelope)
        return envelope

    # ------------------------------------------------------------------ #
    # Detection and per-link timing (adaptive mode).
    # ------------------------------------------------------------------ #

    def rto_of(self, receiver: int, sender: int) -> AdaptiveRto:
        """The receiver's RTO estimator for frames from ``sender``."""
        key = (receiver, sender)
        estimator = self.rtos.get(key)
        if estimator is None:
            estimator = self.rtos[key] = AdaptiveRto()
        return estimator

    def note_arrival(
        self, receiver: int, sender: int, frame_lr: int, rnd: int
    ) -> None:
        """Feed one first-attempt frame arrival to detector and RTO.

        Karn-style exclusion: links with any retransmission outstanding
        for this frame contribute no RTT sample (an original-vs-retransmit
        ambiguity would poison the estimator); the φ-accrual arrival clock
        still advances — a frame is a heartbeat however it got here.
        """
        if self.detector is None:
            return
        self.detector.observe(receiver, sender, frame_lr)
        if self.retx_used.get((sender, frame_lr), 0) == 0:
            rtt = max(1, rnd - self.window_start(frame_lr))
            self.rto_of(receiver, sender).sample(rtt)

    # ------------------------------------------------------------------ #
    # Bit accounting.
    # ------------------------------------------------------------------ #

    def nack_bits(self, n_missing: int) -> int:
        """Wire cost of a NACK naming ``n_missing`` senders."""
        return TAG_BITS + SEQ_BITS + n_missing * id_bits(max(self.n_nodes, 2))

    def overhead_bits(self, part: Part) -> int:
        """How many of ``part``'s bits are transport overhead.

        First-attempt frames cost their header — including the
        incarnation stamp a revived sender appends, which is transport
        framing, not protocol payload (the wrapped protocol parts inside
        are the only protocol bits); retransmitted frames and NACKs are
        overhead in full; protocol parts cost nothing here.
        """
        if part.kind == FRAME_KIND:
            attempt = part.payload[1]
            if attempt > 0:
                return part.bits
            header = FRAME_HEADER_BITS
            if len(part.payload) > 3:
                header += INCARNATION_BITS
            return header
        if part.kind == NACK_KIND:
            return part.bits
        return 0

    # ------------------------------------------------------------------ #
    # Budget ledger and gap log.
    # ------------------------------------------------------------------ #

    def try_consume_retransmit(self, sender: int, logical_round: int) -> Optional[int]:
        """Reserve one retransmission; returns the attempt number or None."""
        used = self.retx_used.get((sender, logical_round), 0)
        if used >= self.config.retransmits:
            return None
        self.retx_used[(sender, logical_round)] = used + 1
        self.retransmissions += 1
        return used + 1

    def consume_retransmit(
        self, sender: int, logical_round: int, requesters
    ) -> Optional[int]:
        """Like :meth:`try_consume_retransmit`, with per-link attribution.

        ``requesters`` are the receivers whose NACKs triggered this
        attempt; each ``(sender, requester)`` link is charged one attempt
        (or one cap hit when the budget is already spent), making per-link
        RTO adaptation auditable in traces.
        """
        attempt = self.try_consume_retransmit(sender, logical_round)
        ledger = self.link_attempts if attempt is not None else self.link_cap_hits
        requesters = tuple(requesters)
        for requester in requesters:
            key = (sender, requester)
            ledger[key] = ledger.get(key, 0) + 1
        if _spans.enabled:
            _spans.active().event(
                "transport.retransmit"
                if attempt is not None
                else "transport.cap_hit",
                cat="transport",
                tid=sender,
                round=logical_round,
                attempt=attempt,
                requesters=len(requesters),
            )
        return attempt

    def link_counters(self) -> Dict[str, Dict[str, object]]:
        """Per-link retransmit/RTO audit, JSON-ready (``"s->r"`` keys)."""
        out: Dict[str, Dict[str, object]] = {
            "attempts": {
                f"{s}->{r}": n
                for (s, r), n in sorted(self.link_attempts.items())
            },
            "cap_hits": {
                f"{s}->{r}": n
                for (s, r), n in sorted(self.link_cap_hits.items())
            },
            "budget": self.config.retransmits,
        }
        if self.rtos:
            out["rto"] = {
                f"{r}->{s}": est.as_dict()
                for (r, s), est in sorted(self.rtos.items())
                if est.samples
            }
        return out

    def record_gap(
        self, logical_round: int, sender: int, receiver: int, deadline: int
    ) -> None:
        self.gaps.append(TransportGap(logical_round, sender, receiver, deadline))

    def budget_overruns(self) -> List[Tuple[int, int, int]]:
        """``(sender, logical_round, used)`` entries exceeding the budget.

        The transport enforces the budget itself, so a non-empty result
        means the ledger was corrupted — watched by
        :class:`repro.sim.monitors.RetransmitBudgetMonitor`.
        """
        return [
            (sender, lr, used)
            for (sender, lr), used in sorted(self.retx_used.items())
            if used > self.config.retransmits
        ]

    def counters(self) -> Dict[str, int]:
        """Plain-dict counter snapshot for reports and run rows."""
        out = {
            "frames": self.frames,
            "retransmissions": self.retransmissions,
            "nacks": self.nacks,
            "duplicates_suppressed": self.duplicates_suppressed,
            "stale_frames": self.stale_frames,
            "stale_nacks": self.stale_nacks,
            "revivals": self.revivals,
            "rejoins_durable": self.rejoins_durable,
            "rejoins_amnesiac": self.rejoins_amnesiac,
            "malformed": self.malformed,
            "gaps": len(self.gaps),
        }
        if self.detector is not None:
            out.update(self.detector.counters())
        return out

    def live_gaps(self, network) -> List[TransportGap]:
        """Gaps that are unexcused delivery failures on ``network``.

        A live gap means the retransmit budget was exhausted against a
        live sender; it voids result certification.  A gap is instead the
        model's own silence, and excused, when during the logical round's
        window:

        * the **sender** was down at any point (it had crashed, or under
          crash-recovery churn it never emitted, or could not
          retransmit, the frame);
        * the **receiver** was down at any point (a revived node charges
          itself a gap for every frame it slept through);
        * the **link was flapped** (an edge failure, which the paper's
          model sanctions and the f-budget monitor counts — see
          :class:`repro.sim.monitors.FBudgetMonitor`).

        :meth:`repro.sim.network.Network.is_alive` consults crash rounds
        and downtime intervals and
        :meth:`~repro.sim.network.Network.link_up` the flap windows.
        Without churn this reduces to the sender's crash round passing
        the deadline: a receiver records its own gaps while running.
        """
        out = []
        for g in self.gaps:
            start = self.window_start(g.logical_round)
            span = range(start, g.deadline + 1)
            if any(not network.is_alive(g.sender, r) for r in span):
                continue
            if any(not network.is_alive(g.receiver, r) for r in span):
                continue
            if any(not network.link_up(g.sender, g.receiver, r) for r in span):
                continue
            out.append(g)
        return out


class TransportNode(NodeHandler):
    """Per-node transport shim wrapping an inner protocol handler.

    Unknown attributes (``result``, ``done``, ``state``, ...) delegate to
    the inner handler, so monitors and outcome extraction that read the
    handler directly keep working on wrapped nodes.
    """

    def __init__(
        self,
        transport: ReliableTransport,
        node_id: int,
        inner: NodeHandler,
        neighbours,
    ) -> None:
        self.transport = transport
        self.node_id = node_id
        self.inner = inner
        self.neighbours = tuple(neighbours)
        #: Neighbours presumed alive (still expected to send frames).
        self._expected = set(self.neighbours)
        #: Buffered frame contents: logical round -> sender -> parts tuple.
        self._buf: Dict[int, Dict[int, tuple]] = {}
        #: Highest logical round already delivered to the inner handler.
        self._delivered = 0
        #: Contents of my own current frame, kept for retransmission.
        self._outbox: tuple = ()
        self._outbox_round = 0
        #: My incarnation (bumped by the churn injector's revive hook);
        #: 0 keeps the pre-churn wire format bit-identical.
        self._incarnation = 0
        #: Highest incarnation observed per peer, learned from frames.
        self._peer_inc: Dict[int, int] = {}
        #: Adaptive mode: slot of my last NACK, per ``(lr, sender)``.
        self._last_nack: Dict[Tuple[int, int], int] = {}
        #: The inner handler's next wake, in logical rounds (``None``:
        #: only on mail); 0 runs it at the first window.
        self._inner_wake: Optional[int] = 0

    # -- delegation ---------------------------------------------------- #

    def __getattr__(self, name):
        # Only called when normal lookup fails; never for our own fields.
        inner = object.__getattribute__(self, "inner")
        return getattr(inner, name)

    def wants_to_stop(self) -> bool:
        return self.inner.wants_to_stop()

    def next_wake(self, rnd: int) -> Optional[int]:
        """The next window start, or the next NACK slot while a frame of
        the current window is still missing; frames and NACKs arrive as
        mail.  A not-due fixed-mode round absorbs nothing,
        advances nothing and NACKs nothing."""
        transport = self.transport
        if transport.adaptive:
            # locate() seals adaptive windows from every node's per-round
            # report_missing, so an adaptive node runs every round.
            return rnd + 1
        # Fixed windows: round rnd + 1 is slot rnd % W + 1 of logical
        # round rnd // W + 1, whose successor starts at round lr * W + 1.
        cfg = transport.config
        window = cfg.window
        slot = rnd % window + 1
        if slot == 1:
            return rnd + 1
        lr = rnd // window + 1
        if not self._expected.issubset(self._buf.get(lr, ())):
            for nack in cfg.nack_slots:
                if nack >= slot:
                    return rnd + 1 + nack - slot
        return lr * window + 1

    # -- churn ---------------------------------------------------------- #

    def on_churn_revive(self, mode: str, incarnation: int, rnd: int) -> None:
        """Rejoin hook called by :class:`repro.families.churn.ChurnSchedule`.

        *Durable* rejoins keep everything: the local value, the outbox and
        the seq/buffer state all survived on persistent storage.
        *Amnesiac* rejoins lose it all — the transport re-syncs its seq
        state to the current window (so pre-crash frames are recognized as
        stale) and the inner protocol handler is replaced by an inert
        :class:`AmnesiacInner` that only heartbeats until the epoch
        manager re-admits the node at the next epoch boundary.
        """
        self._incarnation = incarnation
        if mode == "amnesiac":
            self.transport.rejoins_amnesiac += 1
            lr_now = self.transport.locate(rnd)[0]
            self._buf = {}
            self._outbox = ()
            self._outbox_round = 0
            self._delivered = lr_now - 1
            self._expected = set(self.neighbours)
            self._peer_inc = {}
            self.inner = AmnesiacInner(self.node_id, self.inner)
            self._inner_wake = 0
        else:
            self.transport.rejoins_durable += 1

    # -- round machinery ----------------------------------------------- #

    def on_round(self, rnd: int, inbox) -> List[Part]:
        transport = self.transport
        lr, slot = transport.locate(rnd)

        requesters = self._absorb(lr, slot, rnd, inbox)
        out: List[Part] = []

        if slot == 1:
            out.append(self._advance_logical_round(lr, rnd))
        elif requesters and self._outbox_round == lr:
            attempt = transport.consume_retransmit(
                self.node_id, lr, sorted(requesters)
            )
            if attempt is not None:
                out.append(self._frame(lr, attempt))

        if transport.adaptive:
            missing = sorted(self._expected.difference(self._buf.get(lr, ())))
            due = [m for m in missing if self._nack_due(lr, m, slot)]
            if due:
                transport.nacks += 1
                for m in due:
                    self._last_nack[(lr, m)] = slot
                payload = (lr, tuple(due))
                bits = transport.nack_bits(len(due))
                if self._incarnation:
                    payload += (self._incarnation,)
                    bits += INCARNATION_BITS
                out.append(Part(NACK_KIND, payload, bits))
            transport.report_missing(self.node_id, rnd, len(missing))
            return out
        if slot not in transport.config.nack_slots:
            return out
        missing = self._expected.difference(self._buf.get(lr, ()))
        if missing:
            transport.nacks += 1
            payload = (lr, tuple(sorted(missing)))
            bits = transport.nack_bits(len(missing))
            if self._incarnation:
                payload += (self._incarnation,)
                bits += INCARNATION_BITS
            out.append(Part(NACK_KIND, payload, bits))
        return out

    def _nack_due(self, lr: int, sender: int, slot: int) -> bool:
        """Adaptive NACK pacing: wait out the link's RTO before nagging.

        The first NACK for a missing frame waits ``rto + 1`` slots past
        the broadcast slot (one round for the frame, ``rto`` for the path
        it usually takes); re-NACKs back off by at least the RTO so a
        congested link is not hammered with requests it cannot honour.
        """
        rto = self.transport.rto_of(self.node_id, sender).rto
        last = self._last_nack.get((lr, sender))
        if last is None:
            return slot >= rto + 2
        return slot >= last + max(2, rto)

    def _absorb(self, lr: int, slot: int, rnd: int, inbox) -> set:
        """File incoming frames and NACKs; returns the neighbours whose
        NACKs named me this round.

        A frame whose payload *is* the last one its sender built
        (:attr:`ReliableTransport.built`) is well formed by construction
        and skips :func:`well_formed_frame`.
        """
        transport = self.transport
        built, unbuilt = transport.built, _UNBUILT
        requesters: set = set()
        for envelope in inbox:
            sender = envelope.sender
            for part in envelope.parts:
                if part.kind == FRAME_KIND:
                    payload = part.payload
                    if payload is not built.get(
                        sender, unbuilt
                    ) and not well_formed_frame(payload):
                        transport.malformed += 1
                        continue
                    frame_inc = payload[3] if len(payload) == 4 else 0
                    if frame_inc > self._peer_inc.get(sender, 0):
                        self._peer_inc[sender] = frame_inc
                    frame_lr = payload[0]
                    if frame_lr <= self._delivered:
                        transport.stale_frames += 1
                        continue
                    buf = self._buf.setdefault(frame_lr, {})
                    if sender in buf:
                        transport.duplicates_suppressed += 1
                        continue
                    buf[sender] = payload[2]
                    if payload[1] == 0:
                        transport.note_arrival(
                            self.node_id, sender, frame_lr, rnd
                        )
                    if (
                        sender not in self._expected
                        and sender in self.neighbours
                    ):
                        self._expected.add(sender)
                        transport.revivals += 1
                elif part.kind == NACK_KIND:
                    payload = part.payload
                    if (
                        not isinstance(payload, tuple)
                        or len(payload) not in (2, 3)
                        or not isinstance(payload[0], int)
                        or not isinstance(payload[1], tuple)
                        or (
                            len(payload) == 3
                            and not isinstance(payload[2], int)
                        )
                    ):
                        transport.malformed += 1
                        continue
                    nack_lr, missing = payload[0], payload[1]
                    # Stale-NACK guard: a NACK stamped with an incarnation
                    # older than the sender's latest observed one references
                    # a seq window from before its crash.  The rebooted peer
                    # re-syncs at the next window boundary on its own, so
                    # retransmitting against the ghost request would only
                    # burn per-frame budget needed for real losses.
                    nack_inc = payload[2] if len(payload) == 3 else 0
                    if nack_inc < self._peer_inc.get(sender, 0):
                        transport.stale_nacks += 1
                        continue
                    if nack_lr == lr and slot > 1 and self.node_id in missing:
                        requesters.add(sender)
                else:  # non-transport part: a mixed network; pass through.
                    buf = self._buf.setdefault(lr, {})
                    existing = buf.get(sender, ())
                    buf[sender] = existing + (
                        (part.kind, part.payload, part.bits),
                    )
        return requesters

    def _advance_logical_round(self, lr: int, rnd: int) -> Part:
        """Finalize round ``lr - 1``, feed the inner handler, emit frame ``lr``."""
        transport = self.transport
        if lr > 1:
            arrived = self._buf.pop(lr - 1, {})
            detector = transport.detector
            for sender in sorted(self._expected.difference(arrived)):
                transport.record_gap(lr - 1, sender, self.node_id, rnd)
                # Graded eviction: with a φ-accrual detector a missing
                # frame alone does not kill the peer — only a *confirmed*
                # suspicion (φ past the confirm threshold) stops expecting
                # it, so stragglers stay in the membership.
                if (
                    detector is None
                    or detector.level(self.node_id, sender, lr, rnd)
                    == LEVEL_CONFIRM
                ):
                    self._expected.discard(sender)
            if self._last_nack:
                self._last_nack = {
                    k: v for k, v in self._last_nack.items() if k[0] >= lr
                }
            logical_inbox = [
                transport.logical_envelope(sender, lr - 1, arrived[sender])
                for sender in sorted(arrived)
                if arrived[sender]
            ]
        else:
            logical_inbox = []
        self._delivered = lr - 1
        # The inner handler keeps the wake contract in logical rounds: an
        # empty-inbox call before its wake would broadcast nothing.
        wake = self._inner_wake
        if logical_inbox or (wake is not None and wake <= lr):
            inner = self.inner
            self._outbox = tuple(
                (p.kind, p.payload, p.bits)
                for p in inner.on_round(lr, logical_inbox)
            )
            self._inner_wake = inner.next_wake(lr)
        else:
            self._outbox = ()
        self._outbox_round = lr
        transport.frames += 1
        return self._frame(lr, attempt=0)

    def _frame(self, lr: int, attempt: int) -> Part:
        payload_bits = sum(bits for _, _, bits in self._outbox)
        payload = (lr, attempt, self._outbox)
        header = FRAME_HEADER_BITS
        if self._incarnation:
            payload += (self._incarnation,)
            header += INCARNATION_BITS
        self.transport.built[self.node_id] = payload
        return Part(FRAME_KIND, payload, header + payload_bits)


def well_formed_frame(payload) -> bool:
    """Whether a frame payload has the shape :meth:`TransportNode._absorb`
    files: ``(logical round: int, attempt, contents: tuple)``, plus an int
    incarnation from a revived sender.

    Under corruption injection with no integrity layer a frame can be
    truncated or have a flipped field; such a copy is dropped instead of
    crashing the decoder (the NACK path then recovers the logical frame).
    Incarnation-0 frames keep the historical 3-field shape so pre-churn
    recordings replay bit-identically.
    """
    return (
        isinstance(payload, tuple)
        and len(payload) in (3, 4)
        and isinstance(payload[0], int)
        and isinstance(payload[2], tuple)
        and (len(payload) == 3 or isinstance(payload[3], int))
    )


class AmnesiacInner(NodeHandler):
    """Inner handler of an amnesiac-rejoined node.

    All protocol state died with the previous incarnation; until the
    epoch manager re-admits the node at the next epoch boundary it only
    sustains the transport heartbeat (empty frames) so neighbours detect
    the rejoin.  ``result`` intentionally resolves to ``None``: a node
    that lost its state cannot vouch for an output.
    """

    def __init__(self, node_id: int, lost: Optional[NodeHandler] = None):
        self.node_id = node_id
        #: The pre-crash handler, kept for forensics only (never run).
        self.lost = lost
        self.result = None

    def on_round(self, rnd: int, inbox) -> List[Part]:
        return []

    def wants_to_stop(self) -> bool:
        return False


def as_transport(spec) -> Optional[ReliableTransport]:
    """Coerce ``None`` / :class:`TransportConfig` / :class:`ReliableTransport`."""
    if spec is None:
        return None
    if isinstance(spec, ReliableTransport):
        return spec
    if isinstance(spec, TransportConfig):
        return ReliableTransport(spec)
    raise TypeError(
        f"expected TransportConfig or ReliableTransport, got {type(spec).__name__}"
    )
