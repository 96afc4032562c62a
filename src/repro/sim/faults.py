"""Fault-injection middleware for the simulator's delivery path.

The paper's model (Section 2) admits only *oblivious crash* failures: a
schedule fixed before the protocol flips any coins, killing whole nodes.
Theorems 1, 5 and 7 are stated for exactly that adversary.  This module
generalizes the simulator so experiments can also probe behaviour *outside*
the model — message drops, duplications, delays, reorderings, and crashes
chosen adaptively from observed traffic — without touching protocol code.

A :class:`FaultInjector` is middleware on :class:`repro.sim.network.Network`
round execution:

* :meth:`FaultInjector.begin_round` / :meth:`FaultInjector.end_round`
  bracket each round; adaptive adversaries use ``end_round`` to pick
  crashes online via :meth:`repro.sim.network.Network.schedule_crash`.
* :meth:`FaultInjector.on_broadcast` observes every physical broadcast.
* :meth:`FaultInjector.on_transmit` rewrites one scheduled per-link
  delivery into zero or more ``(due_round, part)`` copies — dropping,
  duplicating or delaying it.  Only injectors with
  ``modifies_delivery = True`` are consulted, so crash-only middleware
  keeps the exact-model delivery path (and its bit-exact determinism).
* :meth:`FaultInjector.arrange_inbox` may permute one receiver's inbox.
* :meth:`FaultInjector.on_deliver` observes each delivered copy.
* :meth:`FaultInjector.end_run` fires once, after the last round of
  :meth:`repro.sim.network.Network.run`.

The network calls each observer hook (``begin_round``, ``on_broadcast``,
``on_deliver``, ``end_round``, ``end_run``) only on the injectors whose
class overrides the base no-op, in list order, so an injector pays
nothing for the hooks it does not define.  The runtime invariant
monitors (:mod:`repro.sim.monitors`) are injectors too; callers put them
last, so they check a round after every fault of that round.

The oblivious crash schedule itself is the :class:`ScheduledCrashes`
injector — ``Network(..., crash_rounds=...)`` is sugar for prepending one —
so in-model and out-of-model failures flow through a single interface.

All randomized decisions use a private ``random.Random(seed)`` so fault
sequences are reproducible per seed, and every fault type takes an
explicit budget cap.

The message-fault and corruption injectors read their CLI specs through
:class:`repro.sim.specs.SpecReader`.  The schedule families outside the
model — crash-recovery churn, gray failures and Byzantine compromise —
live in :mod:`repro.families`, one module each; their random draws share
:func:`check_fraction` and :func:`_drawn` from here.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from .message import Part
from .network import ROOT_CRASH_ERROR
from .specs import SpecReader


def check_fraction(what: str, value: float) -> None:
    """Reject a rate or fraction outside ``[0, 1]``."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} must be in [0, 1], got {value}")


def _drawn(items, rate: float, rng: random.Random, skip=None):
    """The sorted ``items`` (less ``skip``) one ``rng.random() < rate``
    roll each selects.  A caller draws an item's details before the next
    roll, so a schedule is a pure function of the rng state."""
    for item in sorted(items):
        if item != skip and rng.random() < rate:
            yield item


class FaultInjector:
    """Base middleware: observes everything, changes nothing.

    Subclasses override the hooks they need.  ``modifies_delivery`` must
    be True for injectors that rewrite transmissions or inbox order; it
    routes the network onto the scheduled-delivery path.
    """

    #: Whether this injector rewrites deliveries (drop/dup/delay/reorder).
    modifies_delivery = False

    def __init__(self) -> None:
        self.network = None

    def attach(self, network) -> None:
        """Bind to a network; called once from ``Network.__init__``.

        The reference is a :func:`weakref.proxy`: the network owns its
        injectors, so an owning back-reference would make every run a
        reference cycle that outlives the run until a full GC pass.
        """
        self.network = weakref.proxy(network)

    def begin_round(self, rnd: int) -> None:
        """Hook: round ``rnd`` is about to deliver and compute."""

    def on_broadcast(self, rnd: int, node: int, parts, bits: int) -> None:
        """Hook: ``node`` physically broadcast ``parts`` in round ``rnd``."""

    def on_transmit(
        self, due: int, sender: int, receiver: int, part: Part
    ) -> List[Tuple[int, Part]]:
        """Rewrite one scheduled delivery; default passes it through.

        ``due`` is the round the copy is currently scheduled to arrive.
        Return ``[]`` to drop, multiple tuples to duplicate, or later due
        rounds to delay.
        """
        return [(due, part)]

    def arrange_inbox(self, rnd: int, receiver: int, envelopes: List) -> List:
        """Hook: final chance to permute one receiver's round inbox."""
        return envelopes

    def on_deliver(self, rnd: int, sender: int, receiver: int, part: Part) -> None:
        """Hook: ``receiver`` got ``part`` from ``sender`` in round ``rnd``."""

    def end_round(self, rnd: int) -> None:
        """Hook: round ``rnd`` finished computing and broadcasting."""

    def end_run(self, rnd: int) -> None:
        """Hook: :meth:`repro.sim.network.Network.run` stopped after
        round ``rnd``; called once per run."""


class ScheduledCrashes(FaultInjector):
    """The paper's oblivious crash schedule, as an injector.

    Seeds the network's crash map at attach time — semantically identical
    to the historical ``Network(crash_rounds=...)`` behaviour (which now
    delegates here), and composable with chaos injectors.

    The root may never crash (Section 2): an explicit ``root`` argument is
    checked at construction, and a network-declared root
    (``Network(..., root=...)``) at attach time — both reject with the
    same :data:`repro.sim.network.ROOT_CRASH_ERROR` as
    :meth:`repro.adversary.schedule.FailureSchedule.validate`.  The
    :mod:`repro.resilience` failover layer opts out of this strict mode
    with ``allow_root_crash=True`` (a network that sets its own
    ``allow_root_crash`` flag opts out at attach time as well).
    """

    def __init__(
        self,
        crash_rounds,
        root: Optional[int] = None,
        allow_root_crash: bool = False,
    ) -> None:
        super().__init__()
        # Accept a plain mapping or a FailureSchedule-like object.
        rounds = getattr(crash_rounds, "crash_rounds", crash_rounds)
        self.crash_rounds: Dict[int, float] = dict(rounds or {})
        self.allow_root_crash = allow_root_crash
        self._check_root(root)

    def _check_root(self, root: Optional[int], network=None) -> None:
        """Reject a schedule that takes ``root`` down, unless this
        schedule or the ``network`` allows root crashes."""
        if (
            root is not None
            and root in self._downed()
            and not self.allow_root_crash
            and not getattr(network, "allow_root_crash", False)
        ):
            raise ValueError(ROOT_CRASH_ERROR)

    def _downed(self):
        """The nodes this schedule takes down."""
        return self.crash_rounds

    def attach(self, network) -> None:
        """Seed the network's crash map (earliest round wins per node)."""
        super().attach(network)
        self._check_root(network.root, network)
        for node, rnd in self.crash_rounds.items():
            current = network.crash_rounds.get(node)
            network.crash_rounds[node] = (
                rnd if current is None else min(current, rnd)
            )



class _Tally:
    """An injector's per-kind counters: ``total`` sums every field."""

    @property
    def total(self) -> int:
        """All injected faults combined."""
        return sum(self.as_dict().values())

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view for tables and JSON rows."""
        return asdict(self)


def _budget_left(used: int, cap: Optional[int]) -> bool:
    """Whether an injector may fire once more under its ``cap``."""
    return cap is None or used < cap


@dataclass
class FaultCounts(_Tally):
    """Tally of injected faults, for reporting alongside run results."""

    drops: int = 0
    duplicates: int = 0
    delays: int = 0
    reorders: int = 0


class MessageFaults(FaultInjector):
    """Drop / duplicate / delay / reorder in-flight messages.

    Faults are decided independently per scheduled (sender, receiver,
    part) copy with the given probabilities, using a deterministic
    per-``seed`` RNG, under explicit budget caps:

    Args:
        drop: Probability a delivery copy is silently lost.
        duplicate: Probability a copy is delivered twice (the duplicate
            arrives 1..``max_delay`` rounds later).
        delay: Probability a copy is postponed by 1..``max_delay`` rounds.
        max_delay: Largest injected postponement, in rounds.
        reorder: Probability a receiver's round inbox is shuffled.
        seed: Seed of the private fault RNG.
        max_drops / max_duplicates / max_delays / max_reorders: Hard caps
            per fault type; ``None`` means unlimited.
        protect: Node ids whose incident deliveries are never faulted
            (e.g. the root, to keep the root-safety assumption).
    """

    modifies_delivery = True

    def __init__(
        self,
        drop: float = 0.0,
        duplicate: float = 0.0,
        delay: float = 0.0,
        max_delay: int = 3,
        reorder: float = 0.0,
        seed: int = 0,
        max_drops: Optional[int] = None,
        max_duplicates: Optional[int] = None,
        max_delays: Optional[int] = None,
        max_reorders: Optional[int] = None,
        protect: Iterable[int] = (),
    ) -> None:
        super().__init__()
        self.drop = drop
        self.duplicate = duplicate
        self.delay = delay
        self.reorder = reorder
        for name in ("drop", "duplicate", "delay", "reorder"):
            check_fraction(f"{name} rate", getattr(self, name))
        if max_delay < 1:
            raise ValueError(f"max_delay must be >= 1, got {max_delay}")
        self.max_delay = max_delay
        self.seed = seed
        self.rng = random.Random(seed)
        self.max_drops = max_drops
        self.max_duplicates = max_duplicates
        self.max_delays = max_delays
        self.max_reorders = max_reorders
        self.protect = frozenset(protect)
        self.counts = FaultCounts()

    #: The accepted ``from_spec`` grammar, quoted in every rejection.
    SPEC_GRAMMAR = (
        "key=value[,key=value...] with keys drop, dup|duplicate, delay, "
        "reorder (rates in [0, 1]) and max_delay (integer rounds >= 1)"
    )

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0, **kwargs) -> "MessageFaults":
        """Build from a CLI spec like ``drop=0.1,dup=0.05,delay=0.1,reorder=0.2``.

        Keys: ``drop``, ``dup``/``duplicate``, ``delay``, ``reorder``
        (rates) and ``max_delay`` (rounds).  Unknown keys, missing ``=``,
        non-numeric values, and repeated keys all raise ``ValueError``
        naming the offending token and :data:`SPEC_GRAMMAR`.
        """
        values = SpecReader("fault", cls.SPEC_GRAMMAR, spec).key_values(
            {
                "drop": "drop",
                "dup": "duplicate",
                "duplicate": "duplicate",
                "delay": "delay",
                "reorder": "reorder",
                "max_delay": "max_delay",
            },
            integers=("max_delay",),
            normalize=lambda key: key.strip().replace("-", "_"),
        )
        values.update(kwargs)
        return cls(seed=seed, **values)

    def on_transmit(
        self, due: int, sender: int, receiver: int, part: Part
    ) -> List[Tuple[int, Part]]:
        """Apply drop, then delay, then duplication to one delivery copy."""
        if sender in self.protect or receiver in self.protect:
            return [(due, part)]
        rng = self.rng
        if (
            self.drop
            and _budget_left(self.counts.drops, self.max_drops)
            and rng.random() < self.drop
        ):
            self.counts.drops += 1
            return []
        if (
            self.delay
            and _budget_left(self.counts.delays, self.max_delays)
            and rng.random() < self.delay
        ):
            self.counts.delays += 1
            due += rng.randint(1, self.max_delay)
        deliveries = [(due, part)]
        if (
            self.duplicate
            and _budget_left(self.counts.duplicates, self.max_duplicates)
            and rng.random() < self.duplicate
        ):
            self.counts.duplicates += 1
            deliveries.append((due + rng.randint(1, self.max_delay), part))
        return deliveries

    def arrange_inbox(self, rnd: int, receiver: int, envelopes: List) -> List:
        """Shuffle one receiver's inbox with probability ``reorder``."""
        if (
            self.reorder
            and len(envelopes) > 1
            and receiver not in self.protect
            and _budget_left(self.counts.reorders, self.max_reorders)
            and self.rng.random() < self.reorder
        ):
            self.counts.reorders += 1
            shuffled = list(envelopes)
            self.rng.shuffle(shuffled)
            return shuffled
        return envelopes

    def __repr__(self) -> str:
        return (
            f"MessageFaults(drop={self.drop}, duplicate={self.duplicate}, "
            f"delay={self.delay}, reorder={self.reorder}, seed={self.seed})"
        )


@dataclass
class CorruptionCounts(_Tally):
    """Tally of injected corruptions, for reporting alongside run results."""

    bitflips: int = 0
    truncations: int = 0
    stale_replays: int = 0


def flip_int_leaf(payload, rng: random.Random):
    """Flip one random bit in one random int leaf of a payload tree.

    Returns the rewritten payload, or ``None`` when the payload holds no
    int leaves to corrupt (e.g. the empty ``()`` of an abort part).  The
    result is built only from tuples, ints, strs and ``None``, so its
    ``repr`` round-trips through ``ast.literal_eval`` — the property the
    record/replay layer relies on to replay corrupted runs bit-exactly.
    """
    leaves: List[Tuple] = []

    def walk(value, path):
        if isinstance(value, bool):
            return
        if isinstance(value, int):
            leaves.append(path)
        elif isinstance(value, tuple):
            for i, item in enumerate(value):
                walk(item, path + (i,))

    walk(payload, ())
    if not leaves:
        return None
    path = leaves[rng.randrange(len(leaves))]

    def rewrite(value, path):
        if not path:
            bit = rng.randrange(max(1, value.bit_length() + 1))
            return value ^ (1 << bit)
        i = path[0]
        return tuple(
            rewrite(item, path[1:]) if j == i else item
            for j, item in enumerate(value)
        )

    return rewrite(payload, path)


class MessageCorruption(FaultInjector):
    """Silently corrupt in-flight message content.

    Unlike :class:`MessageFaults` (which loses, duplicates or postpones
    otherwise-correct copies), this injector rewrites a copy's *payload* —
    the silent-data-corruption class the paper's crash-only model excludes.
    Three modes, each rolled independently per scheduled delivery copy
    (first hit wins):

    * ``bitflip`` — XOR one random bit of one random int leaf of the
      payload (the classic flipped-bit on the wire);
    * ``truncate`` — drop the payload's last field (a short read);
    * ``stale`` — replace the copy with the previous part the same link
      carried (a replayed old frame: authentic content, wrong time).

    Rates apply per copy; ``link_scale`` multiplies them on selected
    ``(sender, receiver)`` links so tests can make one link persistently
    corrupt (the quarantine trigger).  Every corruption is remembered as
    ``(sender, receiver, content_key)``, and :meth:`arrange_inbox`
    matches delivered envelopes against that set out-of-band — the
    :class:`repro.sim.monitors.CorruptionOracleMonitor` compares this
    ground truth with the integrity layer's rejection log to flag any run
    that silently *accepted* a corrupted frame.

    Corrupted payloads stay within tuples/ints/strs/``None`` so recorded
    runs replay bit-exactly (see :func:`flip_int_leaf`).
    """

    modifies_delivery = True

    def __init__(
        self,
        bitflip: float = 0.0,
        truncate: float = 0.0,
        stale: float = 0.0,
        seed: int = 0,
        max_bitflips: Optional[int] = None,
        max_truncations: Optional[int] = None,
        max_stales: Optional[int] = None,
        protect: Iterable[int] = (),
        link_scale: Optional[Dict[Tuple[int, int], float]] = None,
    ) -> None:
        super().__init__()
        self.bitflip = bitflip
        self.truncate = truncate
        self.stale = stale
        for name in ("bitflip", "truncate", "stale"):
            check_fraction(f"{name} rate", getattr(self, name))
        self.seed = seed
        self.rng = random.Random(seed)
        self.max_bitflips = max_bitflips
        self.max_truncations = max_truncations
        self.max_stales = max_stales
        self.protect = frozenset(protect)
        self.link_scale = dict(link_scale or {})
        self.counts = CorruptionCounts()
        #: Epoch counter, kept in lock-step with the integrity
        #: coordinator's (both advance once per network build) so
        #: delivered-corruption records match rejection records even when
        #: failover runs several networks per logical run.
        self.epoch = -1
        #: Corrupted deliveries created: ``{(sender, receiver,
        #: content_key): mode}`` with mode ``"content"`` (bitflip /
        #: truncate) or ``"stale"`` (replayed authentic content).
        self._corrupt: Dict[Tuple, str] = {}
        #: Content corruptions actually *seen by a receiver*, as
        #: ``(epoch, round, sender, receiver, content_key)`` — the oracle
        #: monitor's ground truth.  Stale replays land in
        #: :attr:`delivered_stales` instead: an accepted replay whose
        #: fresher copy was never accepted is authentic content one round
        #: late — indistinguishable from an honest delay, so it is not
        #: silent corruption.
        self.delivered_corruptions: List[Tuple] = []
        #: Replayed-but-authentic deliveries seen by a receiver.
        self.delivered_stales: List[Tuple] = []
        # Per-link memory of the previous part, for stale replays.
        self._history: Dict[Tuple[int, int], Part] = {}

    #: The accepted ``from_spec`` grammar, quoted in every rejection.
    SPEC_GRAMMAR = (
        "mode:rate[,mode:rate...] with modes bitflip, truncate, stale "
        "and rates in [0, 1] (e.g. 'bitflip:0.02,stale:0.01')"
    )

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0, **kwargs) -> "MessageCorruption":
        """Build from a CLI spec like ``bitflip:0.02,truncate:0.01``.

        Modes: ``bitflip``, ``truncate``, ``stale`` with per-copy rates.
        Unknown modes, missing rates, non-numeric rates, and repeated
        modes all raise ``ValueError`` naming the offending token and
        :data:`SPEC_GRAMMAR`.  ``=`` is accepted as a separator alongside
        ``:`` for symmetry with the fault spec grammar.
        """
        values = SpecReader("corruption", cls.SPEC_GRAMMAR, spec).key_values(
            {mode: mode for mode in ("bitflip", "truncate", "stale")},
            seps=":=",
            noun="mode",
            value="rate",
        )
        values.update(kwargs)
        return cls(seed=seed, **values)

    def attach(self, network) -> None:
        """Bind to a network; each attach starts a new epoch."""
        super().attach(network)
        self.epoch += 1
        self._history = {}

    def _record(
        self, sender: int, receiver: int, part: Part, mode: str = "content"
    ) -> None:
        key = (sender, receiver, part.content_key)
        # "content" wins a collision: if the same bytes were ever a
        # content corruption, acceptance is never excusable.
        if mode == "content" or key not in self._corrupt:
            self._corrupt[key] = mode

    def corruption_mode(
        self, sender: int, receiver: int, part: Part
    ) -> Optional[str]:
        """How ``part`` on this link was corrupted (``"content"`` /
        ``"stale"``), or None — the recorder annotates bundles with this
        so replays rebuild the same split ground truth."""
        return self._corrupt.get((sender, receiver, part.content_key))

    def on_transmit(
        self, due: int, sender: int, receiver: int, part: Part
    ) -> List[Tuple[int, Part]]:
        """Maybe corrupt one delivery copy (bitflip, truncate or stale)."""
        link = (sender, receiver)
        previous = self._history.get(link)
        self._history[link] = part
        if sender in self.protect or receiver in self.protect:
            return [(due, part)]
        scale = self.link_scale.get(link, 1.0)
        rng = self.rng
        if (
            self.bitflip
            and _budget_left(self.counts.bitflips, self.max_bitflips)
            and rng.random() < min(1.0, self.bitflip * scale)
        ):
            flipped = flip_int_leaf(part.payload, rng)
            if flipped is not None:
                self.counts.bitflips += 1
                corrupted = Part(part.kind, flipped, part.bits)
                self._record(sender, receiver, corrupted)
                return [(due, corrupted)]
        if (
            self.truncate
            and isinstance(part.payload, tuple)
            and part.payload
            and _budget_left(self.counts.truncations, self.max_truncations)
            and rng.random() < min(1.0, self.truncate * scale)
        ):
            self.counts.truncations += 1
            corrupted = Part(part.kind, part.payload[:-1], part.bits)
            self._record(sender, receiver, corrupted)
            return [(due, corrupted)]
        if (
            self.stale
            and previous is not None
            and previous != part
            and _budget_left(self.counts.stale_replays, self.max_stales)
            and rng.random() < min(1.0, self.stale * scale)
        ):
            self.counts.stale_replays += 1
            self._record(sender, receiver, previous, mode="stale")
            return [(due, previous)]
        return [(due, part)]

    def arrange_inbox(self, rnd: int, receiver: int, envelopes: List) -> List:
        """Observe (never modify) the inbox: log delivered corruptions."""
        for envelope in envelopes:
            for part in envelope.parts:
                key = (envelope.sender, receiver, part.content_key)
                mode = self._corrupt.get(key)
                if mode is not None:
                    ledger = (
                        self.delivered_corruptions
                        if mode == "content"
                        else self.delivered_stales
                    )
                    ledger.append(
                        (self.epoch, rnd, envelope.sender, receiver,
                         part.content_key)
                    )
        return envelopes

    def __repr__(self) -> str:
        return (
            f"MessageCorruption(bitflip={self.bitflip}, "
            f"truncate={self.truncate}, stale={self.stale}, seed={self.seed})"
        )


def flat_injectors(injectors):
    """Injectors plus one level of wrapper ``.inner`` chains (recorder /
    replay wrappers)."""
    for injector in injectors or ():
        yield injector
        inner = getattr(injector, "inner", None)
        if isinstance(inner, (list, tuple)):
            yield from inner


def ledger_sources(injectors, ledger: str) -> List:
    """The injectors (flattening wrappers) that keep the ground-truth
    ledger attribute ``ledger``: ``"delivered_corruptions"`` (corruption),
    ``"degraded_intervals"`` (gray failures) or ``"delivered_taints"``
    (Byzantine taints)."""
    return [i for i in flat_injectors(injectors) if hasattr(i, ledger)]
