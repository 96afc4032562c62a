"""Authenticated wire frames: end-to-end message integrity over lossy links.

The paper's model (Section 2) assumes every *delivered* bit is correct;
:class:`repro.sim.faults.MessageCorruption` breaks that promise with
bit-flips, truncations and stale replays — the silent-data-corruption
class that SUM-style CAAFs amplify into silently wrong global answers.
This module restores delivered-bit integrity underneath an unmodified
protocol (or transport) handler:

* Every node's per-round broadcast is wrapped in a single **integrity
  frame** carrying a sequence number (the physical round), the sender id,
  the inner parts, and an authenticator *tag* over the canonical bytes of
  all three — a CRC-32 checksum truncated to :data:`CHECKSUM_BITS`
  (``mode="checksum"``: flips, not adversaries) or a seeded-key
  HMAC-SHA256 truncated to :data:`MAC_BITS` (``mode="mac"``).  Both are
  deterministic functions of the frame content and ``key_seed``, so runs
  record and replay bit-exactly.
* The tag is computed **once per frame**, by the sender: local
  broadcast delivers the same frame object to every neighbour, so the
  coordinator remembers ``(sender, seq) -> (inner, tag)`` for the
  current and previous round and a receiver reuses that tag only when
  the delivered ``inner`` *is* the signed tuple (identity, not ``==``)
  and carries the signed tag.  Any other frame — rebuilt, late, or with
  a flipped tag — is re-tagged with :func:`compute_tag`, so every
  ``bad-digest`` verdict comes from a fresh computation.  Equality would
  not be safe: ``1 == True`` with equal hashes, but their ``repr`` (the
  bytes the tag covers) differ, so an equal-but-rebuilt frame must be
  recomputed to be caught.
* The inner parts are decoded **once per frame** too:
  :meth:`IntegrityCoordinator.sign` checks ``inner``'s structure and
  keeps the decoded parts as one :class:`~repro.sim.message.Envelope`,
  which every intact copy (the signed ``inner`` object, the signed tag,
  an int seq and the right claimed sender) delivers after only the
  receiver's staleness check.  Every other frame is decoded and checked
  in full.
* Receivers verify structure, sender binding, tag and per-link sequence
  monotonicity.  Any failure raises a structured
  :class:`FrameIntegrityError` — decoders never crash on garbage and
  never silently accept it — and the frame is **dropped**.  Underneath a
  :mod:`repro.resilience.transport` shim the dropped frame looks like a
  lost frame, so the existing NACK path retransmits it: detection
  composes with recovery for free.
* Persistent corruption trips the per-link quarantine
  (:mod:`repro.integrity.quarantine`).
* All framing and tag bits are classified as overhead by
  :meth:`IntegrityCoordinator.overhead_fn` and booked under
  :attr:`repro.sim.stats.SimStats.overhead_bits` — never protocol CC,
  the same accounting rule as the transport.  With ``mode="off"`` no
  wrapping happens at all, so protocol CC accounting is untouched.

Layering: integrity wraps **outermost** (outside the transport shim), so
what travels on the wire — and what the corruption injector can touch —
is always an authenticated frame.
"""

from __future__ import annotations

import hashlib
import hmac
import zlib
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple

from ..sim.message import Envelope, Part, TAG_BITS
from ..sim.node import NodeHandler
from ..sim.specs import JsonFields
from .quarantine import LinkQuarantine

#: Wire kind of an integrity frame.
INTEG_KIND = "integ_frame"

#: Bits for the frame sequence number (the physical round).
SEQ_BITS = 16
#: Header cost of every integrity frame: tag + sequence number.  The
#: sender id inside the frame is bound by the authenticator but carried
#: by the envelope, so it costs no extra wire bits.
INTEG_HEADER_BITS = TAG_BITS + SEQ_BITS

#: Authenticator widths per mode.
CHECKSUM_BITS = 16
MAC_BITS = 32

#: Accepted ``--integrity`` modes.
INTEGRITY_MODES = ("off", "checksum", "mac")

# Structured rejection reasons (the FrameIntegrityError taxonomy).
REASON_STRUCTURE = "bad-structure"
REASON_DIGEST = "bad-digest"
REASON_SENDER = "sender-mismatch"
REASON_STALE = "stale-replay"
REASON_UNFRAMED = "unframed"
REASON_QUARANTINED = "quarantined"

#: Reasons that prove corruption (an honest network cannot produce them)
#: and therefore move the quarantine score.  A stale frame is authentic
#: content at the wrong time — indistinguishable from honest delay — and
#: is dropped without blame.
BLAMED_REASONS = frozenset(
    {REASON_STRUCTURE, REASON_DIGEST, REASON_SENDER, REASON_UNFRAMED}
)


class FrameIntegrityError(ValueError):
    """A delivered frame failed integrity verification.

    Attributes:
        reason: One of the ``REASON_*`` constants — the taxonomy consumers
            branch on (quarantine blames only :data:`BLAMED_REASONS`).
        sender / receiver: The link the frame arrived on.
        detail: Human-readable description of the failure.
    """

    def __init__(
        self,
        reason: str,
        detail: str,
        sender: Optional[int] = None,
        receiver: Optional[int] = None,
    ) -> None:
        self.reason = reason
        self.sender = sender
        self.receiver = receiver
        self.detail = detail
        link = (
            f" on link {sender}->{receiver}"
            if sender is not None and receiver is not None
            else ""
        )
        super().__init__(f"[{reason}]{link} {detail}")


@dataclass(frozen=True)
class IntegrityConfig(JsonFields):
    """Tuning knobs for the integrity layer.

    Attributes:
        mode: ``"checksum"`` (CRC-32 truncated to 16 bits — catches random
            flips), ``"mac"`` (seeded-key HMAC-SHA256 truncated to 32
            bits — catches anything that doesn't know the key), or
            ``"off"`` (no wrapping; :func:`as_integrity` returns None).
        key_seed: Seed the shared MAC key is derived from; deterministic
            so recorded runs replay bit-exactly.
        quarantine_threshold: Blamed rejections on one link before it is
            quarantined (treated as a failed edge).
    """

    mode: str = "mac"
    key_seed: int = 0
    quarantine_threshold: int = 10

    REQUIRED = ("mode",)

    def __post_init__(self) -> None:
        if self.mode not in INTEGRITY_MODES:
            raise ValueError(
                f"mode must be one of {INTEGRITY_MODES}, got {self.mode!r}"
            )
        if self.quarantine_threshold < 1:
            raise ValueError(
                "quarantine_threshold must be >= 1, got "
                f"{self.quarantine_threshold}"
            )

    @cached_property
    def mac_key(self) -> bytes:
        """The shared MAC key, derived from ``key_seed`` once per config."""
        return hashlib.sha256(
            f"repro-integrity-key:{self.key_seed}".encode("utf-8")
        ).digest()

    @property
    def digest_bits(self) -> int:
        """Wire width of the authenticator tag for this mode."""
        return MAC_BITS if self.mode == "mac" else CHECKSUM_BITS


def _canonical_bytes(sender: int, seq: int, inner: tuple) -> bytes:
    """Deterministic byte form of the authenticated frame content.

    ``repr`` of the int/str/tuple payloads the protocols use is stable
    across processes — the same property the record/replay layer relies
    on — so it doubles as the canonical encoding here.
    """
    return repr((sender, seq, inner)).encode("utf-8")


def decode_inner(inner: tuple) -> Tuple[Part, ...]:
    """A frame's ``inner`` field as :class:`Part` objects.

    Raises ``TypeError`` or ``ValueError`` when ``inner`` is not a tuple
    of ``(kind: str, payload, bits: int)`` triples.
    """
    parts = []
    for kind, payload, bits in inner:
        if not isinstance(kind, str) or not isinstance(bits, int):
            raise TypeError("inner part types")
        parts.append(Part(kind, payload, bits))
    return tuple(parts)


def compute_tag(config: IntegrityConfig, sender: int, seq: int, inner: tuple) -> int:
    """The frame authenticator: truncated HMAC (mac) or CRC-32 (checksum)."""
    data = _canonical_bytes(sender, seq, inner)
    if config.mode == "mac":
        digest = hmac.digest(config.mac_key, data, "sha256")
        return int.from_bytes(digest[: MAC_BITS // 8], "big")
    return zlib.crc32(data) & ((1 << CHECKSUM_BITS) - 1)


class IntegrityCoordinator:
    """Shared state for one run's worth of :class:`IntegrityNode`.

    Holds the config, verification counters, the rejection log (matched
    against the corruption injector's delivered-corruption ground truth
    by :func:`unresolved_corruptions`), and the link quarantine; also
    serves as the network's overhead classifier via :meth:`overhead_fn`.

    The ``epoch`` counter advances once per :meth:`wrap` call — i.e. once
    per network build, in lock-step with
    :attr:`repro.sim.faults.MessageCorruption.epoch` — so rejection
    records match delivered-corruption records even when failover runs
    several networks per logical run.
    """

    def __init__(self, config: Optional[IntegrityConfig] = None) -> None:
        self.config = config or IntegrityConfig()
        if self.config.mode == "off":
            raise ValueError(
                "mode 'off' means no integrity layer; use as_integrity()"
            )
        self.epoch = -1
        self.frames = 0
        self.verified = 0
        #: ``compute_tag`` evaluations (one per frame sent, plus one per
        #: delivered frame the memo cannot vouch for) and memo hits.
        self.tags_computed = 0
        self.tags_reused = 0
        #: The frames still deliverable on time, as ``seq -> {sender:
        #: (inner, tag, envelope)}``: the signed inner tuple, its tag and
        #: the verified envelope every intact copy delivers (None when
        #: ``inner`` is malformed); see :meth:`intact`.
        self._sent: Dict[
            int, Dict[int, Tuple[tuple, int, Optional[Envelope]]]
        ] = {}
        self.rejected: Counter = Counter()
        self.quarantine = LinkQuarantine(self.config.quarantine_threshold)
        #: Every rejection as ``(epoch, round, sender, receiver,
        #: content_key)`` — multiset-matched against delivered
        #: corruptions by :func:`unresolved_corruptions`.
        self._rejection_log: List[Tuple] = []

    # -- wrapping ------------------------------------------------------- #

    def wrap(self, handlers: Dict[int, NodeHandler]) -> Dict[int, "IntegrityNode"]:
        """Wrap every handler in an :class:`IntegrityNode`; starts a new epoch."""
        self.epoch += 1
        self._sent = {}
        return {u: IntegrityNode(self, u, handlers[u]) for u in handlers}

    # -- tagging -------------------------------------------------------- #

    def sign(self, sender: int, seq: int, inner: tuple) -> int:
        """Tag a frame ``sender`` broadcasts in round ``seq``, and remember
        the tag and the decoded parts for its receivers.

        ``inner`` is decoded (and its structure checked) here, once per
        frame; every intact copy then delivers the same envelope.  The
        memo keeps rounds ``seq`` and ``seq - 1`` only: a frame is on time
        when delivered the round after it was sent, and a later copy is
        recomputed like any other.
        """
        tag = compute_tag(self.config, sender, seq, inner)
        self.tags_computed += 1
        try:
            envelope = Envelope(sender, decode_inner(inner))
        except (TypeError, ValueError):
            envelope = None
        sent = self._sent
        if seq not in sent:
            for old in [s for s in sent if s < seq - 1]:
                del sent[old]
            sent[seq] = {}
        sent[seq][sender] = (inner, tag, envelope)
        return tag

    def intact(self, sender: int, payload) -> Optional[Envelope]:
        """The shared verified envelope of an intact copy of a frame
        ``sender`` signed, else None.

        Intact means ``payload`` is a ``(seq, sender, inner, tag)`` tuple
        of plain ints whose ``inner`` *is* the signed tuple (identity,
        not ``==``) and whose ``tag`` is the signed tag.  Such a copy
        passes every structure, sender and tag check, so its signed tag
        is reused and only the receiver's staleness check is left.  Every
        other frame returns None and is verified in full, its tag freshly
        computed by :meth:`expected_tag`.
        """
        if type(payload) is not tuple or len(payload) != 4:
            return None
        seq, claimed, inner, tag = payload
        if (
            type(seq) is not int
            or type(claimed) is not int
            or type(tag) is not int
            or claimed != sender
        ):
            return None
        signed = self._sent.get(seq, {}).get(sender)
        if signed is None or signed[0] is not inner or signed[1] != tag:
            return None
        return signed[2]

    def expected_tag(self, sender: int, seq: int, inner: tuple, tag: int) -> int:
        """The tag a delivered frame that is not an intact signed copy
        (:meth:`intact`) must carry, always freshly computed with
        :func:`compute_tag`; see the module docstring for why equality
        with the signed frame is not enough to reuse its tag."""
        self.tags_computed += 1
        return compute_tag(self.config, sender, seq, inner)

    def overhead_fn(self, inner_fn=None):
        """Overhead classifier composing with an inner (transport) classifier.

        An integrity frame's header and tag bits are overhead; the inner
        parts it carries are classified by ``inner_fn`` (so retransmitted
        transport frames inside stay overhead, and protocol payload stays
        protocol CC).  Non-frame parts delegate to ``inner_fn`` directly.
        """
        framing = INTEG_HEADER_BITS + self.config.digest_bits

        def classify(part: Part) -> int:
            if part.kind != INTEG_KIND:
                return inner_fn(part) if inner_fn is not None else 0
            overhead = framing
            if inner_fn is not None:
                payload = part.payload
                try:
                    inner = payload[2]
                except (TypeError, IndexError):
                    return overhead
                # A frame just signed (every broadcast one) reuses the
                # parts decoded at signing.
                signed = self.intact(payload[1], payload)
                if signed is not None:
                    for inner_part in signed.parts:
                        overhead += inner_fn(inner_part)
                else:
                    for kind, inner_payload, bits in inner:
                        overhead += inner_fn(Part(kind, inner_payload, bits))
            return overhead

        return classify

    # -- rejection bookkeeping ------------------------------------------ #

    def record_rejection(
        self, rnd: int, sender: int, receiver: int, part: Part, reason: str
    ) -> None:
        """Book one dropped frame: counters, rejection log, quarantine."""
        self.rejected[reason] += 1
        self._rejection_log.append(
            (self.epoch, rnd, sender, receiver, part.content_key)
        )
        self.quarantine.record(
            (sender, receiver), rnd, blamed=reason in BLAMED_REASONS
        )

    def rejection_keys(self) -> List[Tuple]:
        """The rejection log, for multiset matching by
        :func:`unresolved_corruptions`."""
        return list(self._rejection_log)

    @property
    def quarantined_links(self) -> List[Tuple[int, int]]:
        return self.quarantine.quarantined_links()

    def counters(self) -> Dict[str, int]:
        """Plain-dict counter snapshot for reports and run rows."""
        return {
            "frames": self.frames,
            "verified": self.verified,
            "tags_computed": self.tags_computed,
            "tags_reused": self.tags_reused,
            "rejected": sum(self.rejected.values()),
            **{f"rejected_{k}": v for k, v in sorted(self.rejected.items())},
            "quarantined": len(self.quarantine.quarantined),
            "quarantined_nodes": len(self.quarantine.quarantined_nodes),
        }


class IntegrityNode(NodeHandler):
    """Per-node integrity shim wrapping an inner (protocol or transport)
    handler.

    Unknown attributes delegate to the inner handler, so monitors and
    outcome extraction keep working on wrapped nodes (and chain through a
    :class:`repro.resilience.transport.TransportNode` inside).
    """

    def __init__(
        self, coordinator: IntegrityCoordinator, node_id: int, inner: NodeHandler
    ) -> None:
        self.coordinator = coordinator
        self.node_id = node_id
        self.inner = inner
        #: Highest frame sequence number accepted, per sender — replayed
        #: (or duplicated) frames carry a non-increasing seq and are
        #: dropped as stale.
        self._last_seq: Dict[int, int] = {}

    # -- delegation ---------------------------------------------------- #

    def __getattr__(self, name):
        # Only called when normal lookup fails; never for our own fields.
        inner = object.__getattribute__(self, "inner")
        return getattr(inner, name)

    def wants_to_stop(self) -> bool:
        return self.inner.wants_to_stop()

    def next_wake(self, rnd: int) -> Optional[int]:
        # Not forwarded by __getattr__: NodeHandler defines the default.
        return self.inner.next_wake(rnd)

    # -- frame verification --------------------------------------------- #

    def _open(self, rnd: int, sender: int, part: Part) -> Envelope:
        """Verify one delivered frame; returns the envelope of its inner
        parts or raises :class:`FrameIntegrityError` (never any other
        exception, however mangled the payload).

        An intact copy of a signed frame gets the envelope shared by all
        its receivers (:meth:`IntegrityCoordinator.intact`) and skips
        straight to the staleness check; any other frame is decoded and
        checked in full.
        """
        me = self.node_id
        if part.kind != INTEG_KIND:
            raise FrameIntegrityError(
                REASON_UNFRAMED,
                f"unauthenticated part kind {part.kind!r}",
                sender,
                me,
            )
        payload = part.payload
        coordinator = self.coordinator
        envelope = coordinator.intact(sender, payload)
        if envelope is not None:
            seq = payload[0]
            coordinator.tags_reused += 1
        else:
            seq, envelope = self._verify_in_full(sender, payload)
        # Authentic frame — but possibly a replayed (or duplicated) old
        # one.  Frames are broadcast in round ``seq`` and delivered no
        # earlier than ``seq + 1``; per-link seq must strictly increase.
        if seq > rnd - 1:
            raise FrameIntegrityError(
                REASON_STALE,
                f"frame seq {seq} from the future at round {rnd}",
                sender,
                me,
            )
        last = self._last_seq.get(sender, 0)
        if seq <= last:
            raise FrameIntegrityError(
                REASON_STALE,
                f"frame seq {seq} not newer than last accepted {last}",
                sender,
                me,
            )
        self._last_seq[sender] = seq
        return envelope

    def _verify_in_full(self, sender: int, payload) -> Tuple[int, Envelope]:
        """Structure, sender binding and tag of a frame that is not an
        intact signed copy; returns its ``(seq, envelope)``."""
        me = self.node_id
        try:
            seq, claimed_sender, inner, tag = payload
            if not (
                isinstance(seq, int)
                and isinstance(claimed_sender, int)
                and isinstance(tag, int)
                and isinstance(inner, tuple)
            ):
                raise TypeError("field types")
            parts = decode_inner(inner)
        except (TypeError, ValueError) as exc:
            raise FrameIntegrityError(
                REASON_STRUCTURE,
                f"malformed frame payload {payload!r} ({exc})",
                sender,
                me,
            ) from None
        if claimed_sender != sender:
            raise FrameIntegrityError(
                REASON_SENDER,
                f"frame claims sender {claimed_sender}, delivered by {sender}",
                sender,
                me,
            )
        expected = self.coordinator.expected_tag(sender, seq, inner, tag)
        if tag != expected:
            raise FrameIntegrityError(
                REASON_DIGEST,
                f"tag {tag:#x} != expected {expected:#x}",
                sender,
                me,
            )
        return seq, Envelope(sender, parts)

    # -- round machinery ----------------------------------------------- #

    def on_round(self, rnd: int, inbox) -> List[Part]:
        coordinator = self.coordinator
        quarantine = coordinator.quarantine
        me = self.node_id
        # Only a rejection in this loop can quarantine one of my links.
        guarded = bool(quarantine.quarantined or quarantine.quarantined_nodes)
        verified_inbox: List[Envelope] = []
        for envelope in inbox:
            sender = envelope.sender
            for part in envelope.parts:
                if guarded and quarantine.is_quarantined((sender, me)):
                    coordinator.record_rejection(
                        rnd, sender, me, part, REASON_QUARANTINED
                    )
                    continue
                try:
                    verified = self._open(rnd, sender, part)
                except FrameIntegrityError as exc:
                    coordinator.record_rejection(
                        rnd, sender, me, part, exc.reason
                    )
                    guarded = bool(
                        quarantine.quarantined or quarantine.quarantined_nodes
                    )
                    continue
                coordinator.verified += 1
                if quarantine.scores:
                    quarantine.clear((sender, me))
                if verified.parts:
                    verified_inbox.append(verified)
        out = list(self.inner.on_round(rnd, verified_inbox))
        if not out:
            return []
        coordinator.frames += 1
        return [self._frame(rnd, out)]

    def _frame(self, rnd: int, parts: List[Part]) -> Part:
        """Wrap one round's broadcast into a single authenticated frame."""
        coordinator = self.coordinator
        inner = tuple((p.kind, p.payload, p.bits) for p in parts)
        tag = coordinator.sign(self.node_id, rnd, inner)
        payload_bits = sum(p.bits for p in parts)
        return Part(
            INTEG_KIND,
            (rnd, self.node_id, inner, tag),
            INTEG_HEADER_BITS + coordinator.config.digest_bits + payload_bits,
        )


def as_integrity(spec) -> Optional[IntegrityCoordinator]:
    """Coerce ``None`` / mode string / :class:`IntegrityConfig` /
    :class:`IntegrityCoordinator`; ``"off"`` collapses to None."""
    if spec is None:
        return None
    if isinstance(spec, IntegrityCoordinator):
        return spec
    if isinstance(spec, str):
        if spec == "off":
            return None
        spec = IntegrityConfig(mode=spec)
    if isinstance(spec, IntegrityConfig):
        if spec.mode == "off":
            return None
        return IntegrityCoordinator(spec)
    raise TypeError(
        "expected IntegrityConfig, IntegrityCoordinator or mode string, "
        f"got {type(spec).__name__}"
    )


def unresolved_corruptions(
    sources, coordinator: Optional[IntegrityCoordinator]
) -> List[Tuple]:
    """Delivered corruptions the integrity layer never rejected.

    ``sources`` are injectors exposing ``delivered_corruptions`` (see
    :func:`repro.sim.faults.ledger_sources`): the out-of-band ground
    truth of corrupted frames that actually reached a receiver.  Each is
    multiset-matched against the coordinator's rejection log; what is
    left over was *accepted* — a silent corruption.  With no coordinator
    (integrity off) every delivered corruption is unresolved.
    """
    rejections: Counter = Counter(
        coordinator.rejection_keys() if coordinator is not None else ()
    )
    unresolved: List[Tuple] = []
    for source in sources or ():
        for record in getattr(source, "delivered_corruptions", ()):
            key = tuple(record)
            if rejections[key] > 0:
                rejections[key] -= 1
            else:
                unresolved.append(key)
    return unresolved


def integrity_columns(
    coordinator: Optional[IntegrityCoordinator],
) -> Dict[str, Any]:
    """Run-row columns of the integrity layer (none when it is off):
    rejected frames, quarantined links and, once any, quarantined nodes."""
    if coordinator is None:
        return {}
    counters = coordinator.counters()
    columns: Dict[str, Any] = {
        "integrity_rejected": counters["rejected"],
        "quarantined_links": sorted(coordinator.quarantined_links),
    }
    if counters["quarantined_nodes"]:
        columns["quarantined_nodes"] = (
            coordinator.quarantine.quarantined_node_ids()
        )
    return columns


def corruption_columns(
    sources, coordinator: Optional[IntegrityCoordinator]
) -> Dict[str, int]:
    """Run-row columns of the corruption ledger (none without ``sources``):
    corruptions delivered, and those the integrity layer never rejected."""
    if not sources:
        return {}
    return {
        "delivered_corruptions": sum(
            len(s.delivered_corruptions) for s in sources
        ),
        "unresolved_corruptions": len(
            unresolved_corruptions(sources, coordinator)
        ),
    }
