"""Deterministic replay of recorded repro bundles, with divergence detection.

A bundle (:class:`repro.sim.recorder.ExecutionRecord`) pins down one
execution completely: configuration, protocol-RNG state, and every fault
decision the chaos layer actually took.  :class:`ReplayInjector` re-applies
those decisions *positionally* — no injector RNG is re-rolled — so a replay
is bit- and stats-identical to the recording, or loudly not:

* per-round **digest checks** (broadcast and delivered-envelope counts
  and bits) raise
  :class:`ReplayDivergence` naming the first round where the live
  execution departs from the recording;
* a recorded decision whose transmission never shows up (or an inbox whose
  size changed) is likewise a divergence, pinned to its round;
* after the run, :func:`replay_bundle` compares the final outcome (result,
  correctness grade, CC bits, rounds, monitor violations) against the
  bundle's ``expected`` block.

``strict=False`` turns the injector into a best-effort re-applier with no
divergence checks — the mode :mod:`repro.adversary.shrink` uses to probe
deliberately modified bundles.
"""

from __future__ import annotations

import ast
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .faults import FaultInjector
from .message import Part
from .recorder import ExecutionRecord, TransmitKeys, part_key


class ReplayDivergence(RuntimeError):
    """A replayed execution departed from its recording.

    Attributes:
        epoch: Network epoch (0-based; ``agg_veri`` has two) of the first
            divergent event.
        round: Round of the first divergent event (None: final outcome).
        detail: Human-readable description of the mismatch.
    """

    def __init__(
        self, detail: str, epoch: Optional[int] = None, rnd: Optional[int] = None
    ) -> None:
        self.epoch = epoch
        self.round = rnd
        at = ""
        if rnd is not None:
            at = f" at round {rnd}" + (
                f" (epoch {epoch})" if epoch is not None else ""
            )
        super().__init__(f"replay diverged{at}: {detail}")


class ReplayInjector(FaultInjector):
    """Re-apply a recording's fault decisions instead of rolling RNG.

    Decisions are keyed by ``(epoch, due/round, sender, receiver, part,
    occurrence)``; anything without a recorded decision passes through
    untouched, mirroring the recorder (which only stores deviations from
    passthrough).  With ``strict=True`` every recorded decision must be
    consumed in its round and every round's digest must match.
    """

    def __init__(self, record: ExecutionRecord, strict: bool = True) -> None:
        super().__init__()
        self.record = record
        self.strict = strict
        #: The first divergence raised (the runner converts in-run
        #: exceptions into error rows; replay_bundle re-raises this).
        self.divergence: Optional[ReplayDivergence] = None
        self.modifies_delivery = record.faulty_delivery
        self.epoch = -1
        # Static per-epoch indices over the recording.
        self._transmits: Dict[int, Dict[Tuple, List[int]]] = {}
        self._transmit_due: Dict[int, Dict[int, int]] = {}
        self._reorders: Dict[int, Dict[Tuple[int, int], List[int]]] = {}
        self._reorder_rounds: Dict[int, Dict[int, int]] = {}
        self._crashes: Dict[int, Dict[int, List[Tuple[int, int]]]] = {}
        self._digests: Dict[int, Dict[int, Tuple[int, int]]] = {}
        for t in record.transmits:
            key = TransmitKeys.of_entry(t)
            # v2 entries with content rewrites carry the full delivered
            # (due, part_key) list in "outp"; plain decisions only dues.
            if t.get("outp") is not None:
                # v2 entries: [due, part_key] or [due, part_key, "stale"].
                out = [
                    (e[0], tuple(e[1]), e[2] if len(e) > 2 else None)
                    for e in t["outp"]
                ]
            else:
                out = [(d, None, None) for d in t["out"]]
            self._transmits.setdefault(t["e"], {})[key] = out
            dues = self._transmit_due.setdefault(t["e"], {})
            dues[t["due"]] = dues.get(t["due"], 0) + 1
        for r in record.reorders:
            self._reorders.setdefault(r["e"], {})[(r["round"], r["r"])] = list(
                r["perm"]
            )
            rounds = self._reorder_rounds.setdefault(r["e"], {})
            rounds[r["round"]] = rounds.get(r["round"], 0) + 1
        for c in record.crashes:
            self._crashes.setdefault(c["e"], {}).setdefault(c["at"], []).append(
                (c["node"], c["round"])
            )
        for epoch, rows in record.digests.items():
            self._digests[int(epoch)] = {
                row[0]: tuple(row[1:]) for row in rows
            }
        # Live per-epoch state.
        self._keys = TransmitKeys()
        self._consumed_due: Dict[int, int] = {}
        self._consumed_reorders: Dict[int, int] = {}
        self._live_digest: Dict[int, List[int]] = {}
        # Content rewrites re-applied so far, mirrored from the recording:
        # lets the replay rebuild the same delivered-corruption ground
        # truth the original corruption injector produced (split into
        # content corruptions vs stale replays exactly as recorded), so
        # the silent-corruption oracle monitor grades replays identically.
        self._corrupt: Dict[Tuple, str] = {}
        self.delivered_corruptions: List[Tuple] = []
        self.delivered_stales: List[Tuple] = []

    @property
    def has_rewrites(self) -> bool:
        """Whether the recording contains any content rewrites (corruption).

        Byzantine-marked rewrites don't count: they are re-applied but
        belong to the schedule's taint ledger, not the corruption oracle.
        """
        return any(
            pk is not None and not (mode or "").startswith("byz:")
            for per_epoch in self._transmits.values()
            for out in per_epoch.values()
            for _, pk, mode in out
        )

    # -- lifecycle ------------------------------------------------------ #

    def attach(self, network) -> None:
        """Advance to the next recorded epoch and reset live tallies."""
        super().attach(network)
        self.epoch += 1
        self._keys = TransmitKeys()
        self._consumed_due = {}
        self._consumed_reorders = {}
        self._live_digest = {}

    def on_broadcast(self, rnd: int, node: int, parts, bits: int) -> None:
        digest = self._live_digest.setdefault(rnd, [0, 0, 0, 0])
        digest[0] += 1
        digest[1] += bits
        self._keys.new_broadcast()

    def on_transmit(
        self, due: int, sender: int, receiver: int, part: Part
    ) -> List[Tuple[int, Part]]:
        """Apply the recorded decision for this copy, if one exists."""
        key = self._keys.key(due, sender, receiver, part)
        out = self._transmits.get(self.epoch, {}).get(key)
        if out is None:
            return [(due, part)]
        self._consumed_due[due] = self._consumed_due.get(due, 0) + 1
        deliveries: List[Tuple[int, Part]] = []
        own_key = part_key(part)
        for d, pk, mode in out:
            if pk is None or list(pk) == own_key:
                deliveries.append((d, part))
            else:
                rebuilt = self._rebuild_part(pk, due)
                deliveries.append((d, rebuilt))
                mode = mode or "content"
                if mode.startswith("byz:"):
                    # Forensic Byzantine markers: the lie is re-applied
                    # but never booked as corruption — the taint ledger
                    # belongs to the (deterministic, re-run) schedule,
                    # not the corruption oracle.
                    continue
                key = (sender, receiver, rebuilt.content_key)
                if mode == "content" or key not in self._corrupt:
                    self._corrupt[key] = mode
        return deliveries

    def _rebuild_part(self, pk, due: int) -> Part:
        """Reconstruct a recorded rewritten part from its part_key."""
        kind, payload_repr, bits = pk
        try:
            payload = ast.literal_eval(payload_repr)
        except (ValueError, SyntaxError) as exc:
            self._diverge(
                f"recorded rewritten payload {payload_repr!r} cannot be "
                f"reconstructed: {exc}",
                due,
                cause=exc,
            )
            raise  # pragma: no cover — _diverge always raises
        return Part(kind, payload, bits)

    def arrange_inbox(self, rnd: int, receiver: int, envelopes: List) -> List:
        """Apply the recorded permutation for this inbox, if one exists."""
        digest = self._live_digest.setdefault(rnd, [0, 0, 0, 0])
        digest[2] += len(envelopes)
        digest[3] += sum(p.bits for e in envelopes for p in e.parts)
        if self._corrupt:
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
        perm = self._reorders.get(self.epoch, {}).get((rnd, receiver))
        if perm is None:
            return envelopes
        if len(perm) != len(envelopes):
            if self.strict:
                self._diverge(
                    f"recorded reorder for node {receiver} permutes "
                    f"{len(perm)} envelopes but the live inbox has "
                    f"{len(envelopes)}",
                    rnd,
                )
            return envelopes
        self._consumed_reorders[rnd] = self._consumed_reorders.get(rnd, 0) + 1
        return [envelopes[i] for i in perm]

    def end_round(self, rnd: int) -> None:
        """Re-apply online crashes, then verify this round against the record."""
        for node, crash_round in self._crashes.get(self.epoch, {}).get(rnd, ()):
            try:
                self.network.schedule_crash(node, crash_round)
            except ValueError as exc:
                if self.strict:
                    self._diverge(
                        f"recorded crash of node {node} (round {crash_round}) "
                        f"cannot be re-applied: {exc}",
                        rnd,
                        cause=exc,
                    )
        if not self.strict:
            return
        expected = self._digests.get(self.epoch, {}).get(rnd, (0, 0, 0, 0))
        live = tuple(self._live_digest.get(rnd, (0, 0, 0, 0)))
        if live != expected:
            self._diverge(
                f"expected {expected[0]} broadcast(s) / {expected[1]} bits "
                f"and {expected[2]} delivered envelope(s) / {expected[3]} "
                f"bits, saw {live[0]} / {live[1]} and {live[2]} / {live[3]}",
                rnd,
            )
        recorded = self._transmit_due.get(self.epoch, {}).get(rnd + 1, 0)
        consumed = self._consumed_due.get(rnd + 1, 0)
        if consumed != recorded:
            self._diverge(
                f"{recorded - consumed} recorded fault decision(s) for "
                f"deliveries due round {rnd + 1} never matched a live "
                f"transmission",
                rnd,
            )
        recorded = self._reorder_rounds.get(self.epoch, {}).get(rnd, 0)
        consumed = self._consumed_reorders.get(rnd, 0)
        if consumed != recorded:
            self._diverge(
                f"{recorded - consumed} recorded inbox reorder(s) never "
                f"matched a live inbox",
                rnd,
            )

    def _diverge(
        self, detail: str, rnd: Optional[int], cause: Optional[Exception] = None
    ) -> None:
        """Record and raise the first divergence (later ones keep the first)."""
        exc = ReplayDivergence(detail, self.epoch, rnd)
        if self.divergence is None:
            self.divergence = exc
        raise exc from cause


@dataclass
class ReplayOutcome:
    """Result of replaying one bundle.

    ``mismatches`` lists human-readable ``field: expected vs got`` lines
    for every divergence between the bundle's ``expected`` block and the
    replayed run; empty means the replay reproduced the recording exactly.
    """

    record: Any
    expected: Dict[str, Any]
    mismatches: List[str] = field(default_factory=list)

    @property
    def reproduced(self) -> bool:
        """Whether the replay matched the recorded outcome exactly."""
        return not self.mismatches


def _compare_outcome(expected: Dict[str, Any], record) -> List[str]:
    """Field-by-field outcome comparison, bundle-expected vs replayed."""
    from .recorder import expected_outcome

    got = expected_outcome(record)
    mismatches = []
    for key in sorted(set(expected) | set(got)):
        if expected.get(key) != got.get(key):
            mismatches.append(
                f"{key}: recorded {expected.get(key)!r}, replayed "
                f"{got.get(key)!r}"
            )
    return mismatches


def replay_bundle(
    bundle,
    strict: bool = True,
    check_outcome: bool = True,
) -> ReplayOutcome:
    """Re-execute a repro bundle and verify it reproduces the recording.

    ``bundle`` is an :class:`ExecutionRecord` or a path to a bundle file.
    The protocol RNG is restored from the recorded state (falling back to
    ``random.Random(seed)`` for hand-written bundles), the declared crash
    schedule is re-applied, and a :class:`ReplayInjector` re-applies every
    recorded fault decision.

    With ``strict=True`` any departure — per-round digest, unmatched
    decision, or (when ``check_outcome``) final-outcome field — raises
    :class:`ReplayDivergence`.  With ``strict=False`` the injector is
    best-effort and the outcome comparison is returned, not raised (the
    shrinker's probing mode).
    """
    if isinstance(bundle, str):
        bundle = ExecutionRecord.load(bundle)
    injector = ReplayInjector(bundle, strict=strict)
    record = rerun_bundle(bundle, injector)
    if strict and injector.divergence is not None:
        # The runner converted the in-run divergence into an error row;
        # surface the original exception (it names the first divergent
        # round) instead of a generic outcome mismatch.
        raise injector.divergence
    mismatches = (
        _compare_outcome(bundle.expected, record)
        if check_outcome and bundle.expected
        else []
    )
    if strict and mismatches:
        raise ReplayDivergence(
            "final outcome mismatch: " + "; ".join(mismatches)
        )
    return ReplayOutcome(record=record, expected=dict(bundle.expected),
                         mismatches=mismatches)


def bundle_rng(bundle: ExecutionRecord) -> random.Random:
    """The protocol RNG at the recorded state (``Random(seed)`` for
    hand-written bundles without one)."""
    rng = random.Random(bundle.seed or 0)
    if bundle.rng_state is not None:
        rng.setstate(_rng_state_from_jsonable(bundle.rng_state))
    return rng


def rerun_bundle(
    bundle: ExecutionRecord, replayer: ReplayInjector, injector=None
):
    """Re-execute a bundle's run with ``replayer`` re-applying its decisions.

    Shared by :func:`replay_bundle` and
    :func:`repro.adversary.shrink.rerecord_bundle`, so a re-recorded bundle
    takes the same code path its later strict replay will.  The bundle
    params decode to the recorded run's fault families
    (:func:`repro.analysis.families.decode_params`); a gray schedule is
    rebuilt only for the straggler oracle's ground-truth ledger, since
    the replayer re-applies the recorded delivery shifts, while a
    Byzantine schedule holds no RNG and re-runs live, rebuilding its
    taint ledger.  ``injector`` (default: ``replayer``) is what the run
    attaches, e.g. a recorder wrapping the replayer.

    A ``"record"`` bundle re-attaches the standard monitor stack in record
    mode — recovery-aware when the capture allowed a root crash, with the
    replayer standing in for the original corruption injector as the
    silent-corruption oracle's ground truth — and a ``"strict"`` one
    re-runs the strict-monitors path, including its post-run oracle raise.
    """
    # Imported lazily: repro.analysis imports repro.sim at package load.
    from ..analysis import families
    from ..analysis.runner import safe_run_protocol
    from ..core.caaf import SUM
    from .monitors import violations_of

    topology = bundle.build_topology()
    inputs = bundle.build_inputs()
    kwargs = families.share(families.decode_params(bundle.params))
    monitors = None
    if bundle.monitor_mode == "record":
        monitors = families.family_monitors(
            topology,
            inputs,
            kwargs,
            f=kwargs.get("f"),
            caaf=kwargs.get("caaf", SUM),
            mode="record",
            recovery=bool(kwargs.get("allow_root_crash"))
            or kwargs.get("recovery") is not None,
            corruption=[replayer] if replayer.has_rewrites else (),
        )
    record = safe_run_protocol(
        bundle.protocol,
        topology,
        inputs,
        schedule=bundle.build_schedule(),
        seed=bundle.seed,
        rng=bundle_rng(bundle),
        strict=bundle.strict_model,
        injectors=(injector or replayer,),
        monitors=monitors,
        strict_monitors=bundle.monitor_mode == "strict",
        **kwargs,
    )
    if monitors and not record.failed:
        events = violations_of(monitors)
        if events:
            record.extra.setdefault("violations", [str(e) for e in events])
    return record


def _rng_state_from_jsonable(state) -> tuple:
    """Rebuild the nested-tuple form ``random.setstate`` expects."""

    def tupleize(value):
        if isinstance(value, list):
            return tuple(tupleize(v) for v in value)
        return value

    return tupleize(state)
