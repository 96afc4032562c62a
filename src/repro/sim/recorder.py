"""Deterministic failure forensics: recording executions into repro bundles.

The chaos layer (:mod:`repro.sim.faults`, :mod:`repro.adversary.adaptive`)
can *find* executions where a protocol misbehaves outside the paper's
oblivious crash model, but a finding is only useful if it can be re-run.
This module captures everything needed to make one execution a permanent,
deterministic artifact:

* the **configuration** — protocol, parameters, topology, inputs, declared
  oblivious crash schedule, and the exact protocol-RNG state at run start;
* the **fault decisions actually taken** — every drop / duplicate / delay
  keyed by ``(epoch, due_round, sender, receiver, part, occurrence)``,
  every inbox reordering, and every online (adaptive) crash, so replay
  re-applies outcomes instead of re-rolling injector RNG;
* per-round **digests** (broadcast count/bits, and — under delivery
  faults — delivered-envelope count/bits) used by :mod:`repro.sim.replay`
  to detect the first round a replay diverges;
* the **expected outcome** (result, correctness, CC, rounds, recorded
  monitor violations) the replay must reproduce.

Executions that build several :class:`repro.sim.network.Network` instances
per logical run (``agg_veri`` runs AGG then VERI) are handled by an
*epoch* counter: every ``attach`` starts a new epoch, and all decision
keys carry it.

The serialized form is a versioned JSON "repro bundle"
(:meth:`ExecutionRecord.to_json` / :meth:`ExecutionRecord.from_json`);
:mod:`repro.sim.replay` re-executes bundles and
:mod:`repro.adversary.shrink` minimizes them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .faults import FaultInjector
from .message import Part
from .specs import listify

#: Bundle file magic + schema version; bump on incompatible change.
BUNDLE_FORMAT = "repro-bundle"
#: Version written by this build.  v2 adds per-transmit ``outp`` entries
#: (content rewrites from corruption injectors); v3 adds churn params
#: (``params["churn"]`` — a serialized
#: :class:`repro.families.churn.ChurnSchedule` — and
#: ``params["churn_policy"]``) so crash-recovery runs replay with
#: the same revive/flap timeline; v4 adds gray-failure params
#: (``params["gray"]`` — a serialized
#: :class:`repro.families.gray.GrayFailureSchedule` — plus the transport's
#: ``rto`` knob inside ``params["transport"]``) so straggler
#: runs replay with the same degradation ledger and detection config;
#: v5 adds Byzantine params (``params["byz"]`` — a serialized
#: :class:`repro.families.byz.ByzantineSchedule` — and
#: ``params["byz_config"]`` — a serialized
#: :class:`repro.resilience.byzantine.ByzantineConfig`) so defended runs
#: replay with the same compromised-node behaviours and witness
#: configuration; the schedule is deterministic, so replay re-runs it
#: live rather than re-applying recorded rewrites.  ``outp`` entries may
#: carry a forensic ``byz:<mode>`` marker when a Byzantine injector rides
#: inside the recorded chain — replay routes those away from the
#: corruption ledgers.  v1/v2/v3/v4 bundles load unchanged.
BUNDLE_VERSION = 5
SUPPORTED_BUNDLE_VERSIONS = frozenset({1, 2, 3, 4, 5})


class RecordingError(RuntimeError):
    """An execution did something the recorder cannot capture faithfully."""


def part_key(part: Part) -> List[Any]:
    """JSON-stable identity of a message part: ``[kind, payload_repr, bits]``.

    ``repr`` of the payload is used because payloads are arbitrary hashable
    tuples; for the int/str/tuple payloads the protocols use, ``repr`` is
    deterministic across processes (unlike ``hash``).
    """
    return [part.kind, repr(part.payload), part.bits]


class TransmitKeys:
    """One epoch's decision keys ``(due, sender, receiver, kind,
    payload_repr, bits, occ)`` for the recorder and the replayer; ``occ``
    counts earlier copies with the same key."""

    def __init__(self) -> None:
        self._occ: Dict[Tuple, int] = {}
        # id(part) -> (part, payload repr) for the current broadcast; the
        # held part keeps its id from being reused.
        self._reprs: Dict[int, Tuple[Part, str]] = {}

    def new_broadcast(self) -> None:
        self._reprs = {}

    def key(self, due: int, sender: int, receiver: int, part: Part) -> Tuple:
        cached = self._reprs.get(id(part))
        if cached is None:
            cached = self._reprs[id(part)] = (part, repr(part.payload))
        base = (due, sender, receiver, part.kind, cached[1], part.bits)
        occ = self._occ[base] = self._occ.get(base, -1) + 1
        return base + (occ,)

    @staticmethod
    def of_entry(t: Dict[str, Any]) -> Tuple:
        """The key of a bundle ``transmits`` entry."""
        return (t["due"], t["s"], t["r"], *t["part"], t["occ"])


@dataclass
class ExecutionRecord:
    """One complete, replayable execution — the in-memory form of a bundle.

    Attributes mirror the bundle JSON one-to-one; see the module docstring
    for semantics.  ``transmits`` entries are dicts with keys ``e`` (epoch),
    ``due`` (original due round), ``s``/``r`` (sender/receiver), ``part``
    (:func:`part_key`), ``occ`` (occurrence index among identical keys) and
    ``out`` (the due rounds actually delivered — ``[]`` is a drop, two
    entries a duplication, a shifted round a delay).  When an injector
    rewrote content (corruption), the entry also carries ``outp``: the
    full ``[[due, part_key], ...]`` delivered list, replayed verbatim
    (bundle version 2).  ``reorders`` carry a
    permutation ``perm`` such that ``new[i] = old[perm[i]]``; ``crashes``
    are online ``schedule_crash`` decisions ``{e, at, node, round}``
    re-applied at the end of round ``at``.
    """

    protocol: str
    topology: Dict[str, Any]
    inputs: Dict[str, int]
    schedule: Dict[str, int]
    params: Dict[str, Any]
    seed: Optional[int] = None
    rng_state: Optional[List[Any]] = None
    strict_model: bool = False
    monitor_mode: Optional[str] = None
    faulty_delivery: bool = False
    transmits: List[Dict[str, Any]] = field(default_factory=list)
    reorders: List[Dict[str, Any]] = field(default_factory=list)
    crashes: List[Dict[str, Any]] = field(default_factory=list)
    digests: Dict[str, List[List[int]]] = field(default_factory=dict)
    expected: Dict[str, Any] = field(default_factory=dict)
    version: int = BUNDLE_VERSION
    format: str = BUNDLE_FORMAT

    # ------------------------------------------------------------------ #
    # Serialization.
    # ------------------------------------------------------------------ #

    def to_jsonable(self) -> Dict[str, Any]:
        """Plain-dict form, stable under ``json`` round-trips."""
        return listify(asdict(self))

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The versioned JSON bundle text (sorted keys: diff-friendly)."""
        return json.dumps(self.to_jsonable(), indent=indent, sort_keys=True)

    @classmethod
    def from_jsonable(cls, data: Dict[str, Any]) -> "ExecutionRecord":
        """Rebuild from :meth:`to_jsonable` output, validating the header."""
        if data.get("format") != BUNDLE_FORMAT:
            raise ValueError(
                f"not a {BUNDLE_FORMAT} file (format={data.get('format')!r})"
            )
        if data.get("version") not in SUPPORTED_BUNDLE_VERSIONS:
            raise ValueError(
                f"unsupported bundle version {data.get('version')!r} "
                f"(this build reads versions "
                f"{sorted(SUPPORTED_BUNDLE_VERSIONS)})"
            )
        fields = {f for f in cls.__dataclass_fields__}
        # Bundles older than this build may hold a write-only
        # ``injector_specs`` list; it carries nothing replay reads.
        data = {k: v for k, v in data.items() if k != "injector_specs"}
        unknown = set(data) - fields
        if unknown:
            raise ValueError(f"bundle has unknown fields: {sorted(unknown)}")
        return cls(**{k: v for k, v in data.items() if k in fields})

    @classmethod
    def from_json(cls, text: str) -> "ExecutionRecord":
        """Parse a bundle produced by :meth:`to_json`."""
        return cls.from_jsonable(json.loads(text))

    def save(self, path: str) -> str:
        """Write the bundle to ``path`` and return the path."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str) -> "ExecutionRecord":
        """Read a bundle file written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    # ------------------------------------------------------------------ #
    # Derived views.
    # ------------------------------------------------------------------ #

    @property
    def n_decisions(self) -> int:
        """All shrinkable events: fault decisions + scheduled crashes +
        declared Byzantine behaviours."""
        return (
            len(self.transmits)
            + len(self.reorders)
            + len(self.crashes)
            + len(self.schedule)
            + len((self.params.get("byz") or {}).get("behaviors") or {})
        )

    def content_hash(self, length: int = 10) -> str:
        """A short stable digest of the bundle (used in corpus filenames)."""
        body = json.dumps(
            {
                k: v
                for k, v in self.to_jsonable().items()
                if k not in ("expected",)
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(body.encode("utf-8")).hexdigest()[:length]

    def build_topology(self):
        """Reconstruct the :class:`repro.graphs.topology.Topology`, in the
        recorded node order (:func:`repro.graphs.io.from_dict`)."""
        # Imported lazily: repro.graphs is a sibling package of repro.sim.
        from ..graphs.io import from_dict

        return from_dict(self.topology, name="bundle")

    def build_inputs(self) -> Dict[int, int]:
        """Reconstruct the per-node input map with int keys."""
        return {int(u): int(v) for u, v in self.inputs.items()}

    def build_schedule(self):
        """Reconstruct the declared oblivious crash schedule."""
        from ..adversary.schedule import FailureSchedule

        return FailureSchedule({int(u): int(r) for u, r in self.schedule.items()})


def serialize_topology(topology) -> Dict[str, Any]:
    """The bundle's inline topology form: :func:`repro.graphs.io.to_dict`
    (adjacency + root + name, and the node order when it is not
    ascending)."""
    from ..graphs.io import to_dict

    return to_dict(topology)


class RecordingInjector(FaultInjector):
    """Middleware that runs an inner injector chain and records its decisions.

    Replaces the caller's injector list on the network: the recorder itself
    drives the inner chain for delivery rewrites and inbox arrangement, so
    each *original* transmission maps cleanly to its *final* outcome (the
    network would otherwise present rewritten copies to later injectors
    individually).  Crash-only chains keep the exact-model delivery path
    because :attr:`modifies_delivery` mirrors the inner chain.

    Online crashes (adaptive adversaries calling ``schedule_crash``) are
    captured by diffing the network's crash map at every round end against
    the epoch's baseline snapshot.
    """

    def __init__(self, inner: Sequence[FaultInjector] = ()) -> None:
        super().__init__()
        self.inner: List[FaultInjector] = list(inner)
        self.epoch = -1
        self.transmits: List[Dict[str, Any]] = []
        self.reorders: List[Dict[str, Any]] = []
        self.crashes: List[Dict[str, Any]] = []
        # epoch -> round -> [broadcasts, broadcast bits, deliveries,
        # delivered bits].  Deliveries are tallied in arrange_inbox, which
        # the scheduled-delivery path runs for every non-empty inbox — so
        # a tampered drop/duplicate decision shows up even when the
        # broadcast pattern is unchanged (e.g. a removed duplicate of a
        # flooded part that receivers would de-duplicate anyway).
        self._digests: Dict[int, Dict[int, List[int]]] = {}
        self._keys = TransmitKeys()
        self._crash_snapshot: Dict[int, float] = {}

    @property
    def modifies_delivery(self) -> bool:
        """Whether the inner chain, as it stands, rewrites deliveries."""
        return any(getattr(i, "modifies_delivery", False) for i in self.inner)

    # -- lifecycle ------------------------------------------------------ #

    def attach(self, network) -> None:
        """Start a new epoch: forward attach, snapshot baseline crashes."""
        super().attach(network)
        self.epoch += 1
        self._keys = TransmitKeys()
        for injector in self.inner:
            injector.attach(network)
        self._crash_snapshot = dict(network.crash_rounds)
        self._digests[self.epoch] = {}

    def begin_round(self, rnd: int) -> None:
        for injector in self.inner:
            injector.begin_round(rnd)

    def on_broadcast(self, rnd: int, node: int, parts, bits: int) -> None:
        """Tally the per-round digest, then forward the observation."""
        digest = self._digests[self.epoch].setdefault(rnd, [0, 0, 0, 0])
        digest[0] += 1
        digest[1] += bits
        self._keys.new_broadcast()
        for injector in self.inner:
            injector.on_broadcast(rnd, node, parts, bits)

    def end_round(self, rnd: int) -> None:
        """Forward (inner adversaries crash here), then diff the crash map."""
        for injector in self.inner:
            injector.end_round(rnd)
        for node, crash_round in self.network.crash_rounds.items():
            if self._crash_snapshot.get(node) != crash_round:
                self.crashes.append(
                    {
                        "e": self.epoch,
                        "at": rnd,
                        "node": node,
                        "round": int(crash_round),
                    }
                )
        self._crash_snapshot = dict(self.network.crash_rounds)

    # -- delivery rewrites ---------------------------------------------- #

    def on_transmit(
        self, due: int, sender: int, receiver: int, part: Part
    ) -> List[Tuple[int, Part]]:
        """Run the inner chain on one delivery copy; record any deviation."""
        deliveries: List[Tuple[int, Part]] = [(due, part)]
        for injector in self.inner:
            if not getattr(injector, "modifies_delivery", False):
                continue
            rewritten: List[Tuple[int, Part]] = []
            for d, p in deliveries:
                rewritten.extend(injector.on_transmit(d, sender, receiver, p))
            deliveries = rewritten
        key = self._keys.key(due, sender, receiver, part)
        if deliveries != [(due, part)]:
            entry = {
                "e": self.epoch,
                "due": due,
                "s": sender,
                "r": receiver,
                "part": [part.kind, key[4], part.bits],
                "occ": key[6],
                "out": [d for d, _ in deliveries],
            }
            if any(p != part for _, p in deliveries):
                # A corruption injector rewrote content: record the full
                # delivered (due, part) list so replay re-applies the
                # rewrite instead of re-rolling injector RNG.  Rewrites
                # the injector classified as stale replays (authentic
                # content, wrong time) carry a third "stale" element so
                # the replay rebuilds the same split ground truth; a
                # Byzantine injector's rewrites carry ``byz:<mode>`` so
                # replay keeps them out of the corruption ledgers.
                entry["outp"] = [
                    [d, part_key(p)]
                    + (
                        [mode]
                        if p != part
                        and (mode := self._rewrite_mode(sender, receiver, p))
                        is not None
                        else []
                    )
                    for d, p in deliveries
                ]
            self.transmits.append(entry)
        return deliveries

    def _rewrite_mode(self, sender: int, receiver: int, part: Part):
        """Ask the inner chain how a rewritten part was tampered.

        Corruption injectors answer through ``corruption_mode`` (only the
        ``stale`` classification matters to replay); Byzantine schedules
        through ``byz_mode``, reported as a ``byz:<mode>`` marker.
        """
        for injector in self.inner:
            fn = getattr(injector, "corruption_mode", None)
            if fn is not None:
                mode = fn(sender, receiver, part)
                if mode == "stale":
                    return mode
            fn = getattr(injector, "byz_mode", None)
            if fn is not None:
                mode = fn(sender, receiver, part)
                if mode is not None:
                    return f"byz:{mode}"
        return None

    def arrange_inbox(self, rnd: int, receiver: int, envelopes: List) -> List:
        """Run the inner chain on one inbox; record the final permutation."""
        digest = self._digests[self.epoch].setdefault(rnd, [0, 0, 0, 0])
        digest[2] += len(envelopes)
        digest[3] += sum(p.bits for e in envelopes for p in e.parts)
        arranged = list(envelopes)
        for injector in self.inner:
            if getattr(injector, "modifies_delivery", False):
                arranged = injector.arrange_inbox(rnd, receiver, arranged)
        if arranged != list(envelopes):
            if sorted(map(repr, arranged)) != sorted(map(repr, envelopes)):
                raise RecordingError(
                    "an injector added or removed envelopes in "
                    "arrange_inbox; only permutations are replayable"
                )
            remaining = list(range(len(envelopes)))
            perm: List[int] = []
            for envelope in arranged:
                for pos, idx in enumerate(remaining):
                    if envelopes[idx] == envelope:
                        perm.append(idx)
                        del remaining[pos]
                        break
            self.reorders.append(
                {"e": self.epoch, "round": rnd, "r": receiver, "perm": perm}
            )
        return arranged

    # -- export --------------------------------------------------------- #

    def digests_jsonable(self) -> Dict[str, List[List[int]]]:
        """Digests as ``{epoch: [[round, broadcasts, bcast_bits,
        deliveries, delivered_bits], ...]}``."""
        return {
            str(epoch): [
                [rnd, *d] for rnd, d in sorted(rounds.items())
            ]
            for epoch, rounds in self._digests.items()
        }


def expected_outcome(record) -> Dict[str, Any]:
    """The outcome slice of a bundle, from a finished ``RunRecord``."""
    return {
        "result": record.result,
        "correct": record.correct,
        "cc_bits": record.cc_bits,
        "rounds": record.rounds,
        "error": record.error,
        "error_kind": record.error_kind,
        "violations": list(record.extra.get("violations", [])),
    }


def make_execution_record(
    recorder: RecordingInjector,
    protocol: str,
    topology,
    inputs: Dict[int, int],
    schedule,
    params: Dict[str, Any],
    run_record=None,
    seed: Optional[int] = None,
    rng_state=None,
    strict_model: bool = False,
    monitor_mode: Optional[str] = None,
) -> ExecutionRecord:
    """Assemble the bundle for one recorded execution."""
    crash_rounds = getattr(schedule, "crash_rounds", schedule) or {}
    record = ExecutionRecord(
        protocol=protocol,
        topology=serialize_topology(topology),
        inputs={str(u): int(v) for u, v in inputs.items()},
        schedule={str(u): int(r) for u, r in crash_rounds.items()},
        params={k: v for k, v in params.items() if v is not None},
        seed=seed,
        rng_state=listify(rng_state) if rng_state is not None else None,
        strict_model=strict_model,
        monitor_mode=monitor_mode,
        faulty_delivery=recorder.modifies_delivery,
        transmits=list(recorder.transmits),
        reorders=list(recorder.reorders),
        crashes=list(recorder.crashes),
        digests=recorder.digests_jsonable(),
        expected=expected_outcome(run_record) if run_record else {},
    )
    return record
