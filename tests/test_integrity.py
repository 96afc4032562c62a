"""End-to-end message integrity: corruption faults, authenticated frames,
quarantine, the silent-corruption oracle, replay, and cache identity.

The headline guarantees under test:

* a corrupted frame under ``--integrity mac`` is *always* rejected (zero
  unresolved corruptions) and recovery re-fetches the dropped frame, so
  the run still completes exactly or degrades to a certified partial;
* protocol CC accounting is bit-identical with the integrity layer on —
  framing is booked purely as ``overhead_bits``;
* a persistently corrupt link is quarantined into the model's own
  failed-edge class instead of poisoning the run forever;
* corrupted runs record/replay bit-exactly;
* the exec cache token separates corruption/integrity config (the v2
  auto-enumerated schema).
"""

import ast
import random

import pytest

from repro.analysis.runner import make_inputs, run_protocol, safe_run_protocol
from repro.exec import WorkUnit, unit_cache_hash, unit_cache_token
from repro.exec.cache import CACHE_VERSION, EXCLUDED_FIELDS
from repro.graphs import grid_graph
from repro.integrity import (
    BLAMED_REASONS,
    CHECKSUM_BITS,
    FrameIntegrityError,
    IntegrityConfig,
    IntegrityCoordinator,
    IntegrityNode,
    MAC_BITS,
    REASON_DIGEST,
    REASON_SENDER,
    REASON_STALE,
    REASON_STRUCTURE,
    as_integrity,
    compute_tag,
    unresolved_corruptions,
)
from repro.integrity.frames import integrity_columns
from repro.resilience import RecoveryPolicy, TransportConfig
from repro.sim import ExecutionRecord, replay_bundle
from repro.sim.message import Part
from repro.sim.faults import (
    MessageCorruption,
    MessageFaults,
    flip_int_leaf,
)
from repro.sim.monitors import CorruptionOracleMonitor, standard_monitors


def _hash(unit):
    """The cache entry name of ``unit``."""
    return unit_cache_hash(unit_cache_token(unit))


def grid44():
    return grid_graph(4, 4)


def run_corrupted(
    topo,
    seed=2,
    corrupt=None,
    integrity=None,
    recover=True,
    protocol="unknown_f",
    **kwargs,
):
    rng = random.Random(seed)
    inputs = make_inputs(topo, rng)
    injectors = [corrupt] if corrupt is not None else []
    recovery = None
    if recover:
        recovery = RecoveryPolicy(
            transport=TransportConfig(retransmits=3, backoff_cap=4)
        )
    return run_protocol(
        protocol,
        topo,
        inputs,
        rng=rng,
        strict=False,
        injectors=injectors,
        recovery=recovery,
        integrity=integrity,
        **kwargs,
    )


# --------------------------------------------------------------------- #
# The corruption fault class.
# --------------------------------------------------------------------- #


class TestCorruptionSpec:
    def test_from_spec_parses_modes_and_rates(self):
        inj = MessageCorruption.from_spec(
            "bitflip:0.02,truncate:0.01,stale:0.005", seed=7
        )
        assert (inj.bitflip, inj.truncate, inj.stale) == (0.02, 0.01, 0.005)
        assert inj.seed == 7

    def test_equals_separator_accepted(self):
        inj = MessageCorruption.from_spec("bitflip=0.5")
        assert inj.bitflip == 0.5

    def test_unknown_mode_names_token_and_grammar(self):
        with pytest.raises(ValueError) as exc:
            MessageCorruption.from_spec("bitrot:0.1")
        assert "bitrot" in str(exc.value)
        assert MessageCorruption.SPEC_GRAMMAR in str(exc.value)

    def test_repeated_mode_rejected(self):
        with pytest.raises(ValueError):
            MessageCorruption.from_spec("bitflip:0.1,bitflip:0.2")

    def test_non_numeric_rate_rejected(self):
        with pytest.raises(ValueError):
            MessageCorruption.from_spec("bitflip:lots")

    def test_out_of_range_rate_rejected(self):
        with pytest.raises(ValueError):
            MessageCorruption.from_spec("bitflip:1.5")
        with pytest.raises(ValueError):
            MessageCorruption(bitflip=-0.1)

    def test_empty_fragments_tolerated(self):
        inj = MessageCorruption.from_spec("bitflip:0.1,,stale:0.2,")
        assert inj.bitflip == 0.1 and inj.stale == 0.2


class TestFlipIntLeaf:
    def test_flips_exactly_one_int_leaf(self):
        rng = random.Random(3)
        payload = (4, ("x", 9), 2)
        flipped = flip_int_leaf(payload, rng)
        diffs = [
            (a, b)
            for a, b in zip(_leaves(payload), _leaves(flipped))
            if a != b
        ]
        assert len(diffs) == 1
        a, b = diffs[0]
        assert isinstance(a, int) and isinstance(b, int) and a != b

    def test_no_int_leaves_returns_none(self):
        assert flip_int_leaf((), random.Random(0)) is None
        assert flip_int_leaf(("abort",), random.Random(0)) is None

    def test_bools_are_not_flippable_leaves(self):
        assert flip_int_leaf((True, False), random.Random(0)) is None

    def test_result_reprs_round_trip(self):
        # The record/replay layer stores corrupted payloads as repr()
        # and rebuilds them with ast.literal_eval.
        rng = random.Random(11)
        for payload in [(5,), (1, (2, (3, "s"))), (0, None, 7)]:
            flipped = flip_int_leaf(payload, rng)
            assert ast.literal_eval(repr(flipped)) == flipped


def _leaves(value):
    if isinstance(value, tuple):
        out = []
        for item in value:
            out.extend(_leaves(item))
        return out
    return [value]


class TestCorruptionInjection:
    def test_per_seed_determinism(self):
        counts = []
        for _ in range(2):
            inj = MessageCorruption(bitflip=0.1, stale=0.05, seed=5)
            run_corrupted(grid44(), seed=2, corrupt=inj, recover=False)
            counts.append((inj.counts.as_dict(), list(inj.delivered_corruptions)))
        assert counts[0] == counts[1]
        assert sum(counts[0][0].values()) > 0

    def test_budget_caps_respected(self):
        inj = MessageCorruption(bitflip=1.0, seed=1, max_bitflips=3)
        run_corrupted(grid44(), corrupt=inj, recover=False)
        assert inj.counts.bitflips == 3

    def test_protected_nodes_never_corrupted(self):
        topo = grid44()
        inj = MessageCorruption(bitflip=1.0, seed=1, protect=range(16))
        run_corrupted(topo, corrupt=inj, recover=False)
        assert inj.counts.total == 0

    def test_link_scale_concentrates_corruption(self):
        inj = MessageCorruption(
            bitflip=0.01, seed=3, link_scale={(1, 0): 100.0}
        )
        run_corrupted(grid44(), corrupt=inj, recover=False)
        links = {(s, r) for (s, r, _key) in inj._corrupt}
        assert (1, 0) in links

    def test_delivered_corruptions_recorded_with_epoch_and_round(self):
        inj = MessageCorruption(bitflip=0.2, seed=2)
        run_corrupted(grid44(), corrupt=inj, recover=False)
        assert inj.delivered_corruptions
        for epoch, rnd, sender, receiver, key in inj.delivered_corruptions:
            assert epoch >= 0 and rnd >= 1
            assert isinstance(key, tuple) and isinstance(key[0], str)


# --------------------------------------------------------------------- #
# Frames: tags, config, coordinator.
# --------------------------------------------------------------------- #


class TestIntegrityConfig:
    def test_mode_validated(self):
        with pytest.raises(ValueError):
            IntegrityConfig(mode="crc")

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            IntegrityConfig(quarantine_threshold=0)

    def test_digest_bits_by_mode(self):
        assert IntegrityConfig(mode="checksum").digest_bits == CHECKSUM_BITS
        assert IntegrityConfig(mode="mac").digest_bits == MAC_BITS

    def test_as_integrity_coercions(self):
        assert as_integrity(None) is None
        assert as_integrity(IntegrityConfig(mode="off")) is None
        coord = as_integrity(IntegrityConfig(mode="mac"))
        assert isinstance(coord, IntegrityCoordinator)
        assert as_integrity(coord) is coord

    def test_coordinator_rejects_off(self):
        with pytest.raises(ValueError):
            IntegrityCoordinator(IntegrityConfig(mode="off"))


class TestComputeTag:
    def test_deterministic(self):
        cfg = IntegrityConfig(mode="mac", key_seed=4)
        inner = (("aggregation", (3, 57)),)
        assert compute_tag(cfg, 3, 9, inner) == compute_tag(cfg, 3, 9, inner)

    def test_key_seed_changes_mac(self):
        inner = (("ack", (1,)),)
        a = compute_tag(IntegrityConfig(mode="mac", key_seed=1), 1, 1, inner)
        b = compute_tag(IntegrityConfig(mode="mac", key_seed=2), 1, 1, inner)
        assert a != b

    def test_checksum_ignores_key_but_binds_content(self):
        inner = (("ack", (1,)),)
        a = compute_tag(IntegrityConfig(mode="checksum", key_seed=1), 1, 1, inner)
        b = compute_tag(IntegrityConfig(mode="checksum", key_seed=2), 1, 1, inner)
        assert a == b
        c = compute_tag(
            IntegrityConfig(mode="checksum"), 1, 1, (("ack", (2,)),)
        )
        assert a != c

    def test_tag_binds_sender_and_seq(self):
        cfg = IntegrityConfig(mode="mac")
        inner = (("ack", (1,)),)
        base = compute_tag(cfg, 3, 9, inner)
        assert compute_tag(cfg, 4, 9, inner) != base
        assert compute_tag(cfg, 3, 10, inner) != base

    def test_tag_width_respected(self):
        cfg = IntegrityConfig(mode="checksum")
        for seq in range(50):
            assert 0 <= compute_tag(cfg, 1, seq, ()) < (1 << CHECKSUM_BITS)


# --------------------------------------------------------------------- #
# End-to-end: detection, recovery, accounting, quarantine, oracle.
# --------------------------------------------------------------------- #


class TestEndToEndDetection:
    def test_mac_rejects_every_delivered_corruption(self):
        inj = MessageCorruption(bitflip=0.05, truncate=0.02, seed=2)
        coord = as_integrity(IntegrityConfig(mode="mac"))
        record = run_corrupted(grid44(), seed=2, corrupt=inj, integrity=coord)
        assert record.error is None
        assert record.extra["delivered_corruptions"] > 0
        assert record.extra["unresolved_corruptions"] == 0
        assert record.extra["integrity_rejected"] >= (
            record.extra["delivered_corruptions"]
        )
        assert set(coord.rejected) <= {
            "bad-structure", "bad-digest", "sender-mismatch",
            "stale-replay", "unframed", "quarantined",
        }

    def test_detection_composes_with_recovery(self):
        # Dropped-as-corrupt frames look like missing frames to the
        # transport, whose NACK path re-fetches them: the run still
        # finishes with the right answer.
        inj = MessageCorruption(bitflip=0.05, seed=3)
        record = run_corrupted(
            grid44(), seed=3, corrupt=inj, integrity=IntegrityConfig(mode="mac")
        )
        assert record.result is not None
        assert record.correct
        assert record.extra["certified"]

    def test_stale_replays_rejected_by_seq_monotonicity(self):
        inj = MessageCorruption(stale=0.2, seed=4)
        coord = as_integrity(IntegrityConfig(mode="mac"))
        record = run_corrupted(grid44(), seed=4, corrupt=inj, integrity=coord)
        # Replays of already-accepted frames are caught by the per-link
        # seq check; a replay whose fresher copy never arrived is
        # authentic content one round late (== honest delay), so it lands
        # in the stale ledger and is never silent *corruption*.
        assert record.extra["unresolved_corruptions"] == 0
        assert record.extra["delivered_corruptions"] == 0
        assert inj.delivered_stales
        assert coord.rejected.get(REASON_STALE, 0) > 0

    def test_stale_replay_is_not_blamed_on_the_link(self):
        # Authentic content at the wrong time is indistinguishable from
        # honest delay; it must not push a link toward quarantine.
        assert REASON_STALE not in BLAMED_REASONS
        assert REASON_DIGEST in BLAMED_REASONS

    def test_without_integrity_corruption_goes_unresolved(self):
        inj = MessageCorruption(bitflip=0.05, seed=2)
        record = run_corrupted(grid44(), seed=2, corrupt=inj, integrity=None)
        assert record.extra["delivered_corruptions"] > 0
        assert record.extra["unresolved_corruptions"] > 0


class TestAccountingUnchanged:
    def test_integrity_framing_is_pure_overhead(self):
        # Same seed, no corruption: protocol CC must be bit-identical
        # with and without the integrity layer; framing shows up only in
        # overhead_bits.
        base = run_corrupted(grid44(), seed=5, integrity=None)
        mac = run_corrupted(
            grid44(), seed=5, integrity=IntegrityConfig(mode="mac")
        )
        checksum = run_corrupted(
            grid44(), seed=5, integrity=IntegrityConfig(mode="checksum")
        )
        assert mac.cc_bits == base.cc_bits
        assert checksum.cc_bits == base.cc_bits
        assert mac.result == base.result
        assert mac.extra["overhead_bits"] > base.extra.get("overhead_bits", 0)
        # mac tags are wider than checksums.
        assert mac.extra["overhead_bits"] > checksum.extra["overhead_bits"]

    def test_clean_run_verifies_every_frame(self):
        coord = as_integrity(IntegrityConfig(mode="mac"))
        record = run_corrupted(grid44(), seed=6, integrity=coord)
        assert record.correct
        # Local broadcast: one sent frame is verified once per receiving
        # neighbour, so verified >= frames.
        assert coord.frames > 0
        assert coord.verified >= coord.frames
        assert sum(coord.rejected.values()) == 0


# --------------------------------------------------------------------- #
# One tag per frame: the sender's tag is reused, never trusted blindly.
# --------------------------------------------------------------------- #


def _verdict(node, rnd, sender, part):
    """``_open``'s result as a comparable value: parts or the reason."""
    try:
        return ("ok", list(node._open(rnd, sender, part).parts))
    except FrameIntegrityError as exc:
        return ("rejected", exc.reason)


def _memo_and_reference(mode="mac", key_seed=0, sender=3, receiver=4):
    """A signing sender plus two receivers of one frame stream: one on the
    sender's coordinator (memoised tags) and one on a coordinator that
    never signs, so its ``_open`` always calls ``compute_tag``."""
    config = IntegrityConfig(mode=mode, key_seed=key_seed)
    memo, reference = IntegrityCoordinator(config), IntegrityCoordinator(config)
    memo.wrap({})
    reference.wrap({})
    return (
        IntegrityNode(memo, sender, None),
        IntegrityNode(memo, receiver, None),
        IntegrityNode(reference, receiver, None),
    )


def _with_true_for_one(value):
    """Rebuild ``value`` with its first int leaf equal to 1 as ``True``
    (equal, same hash, different ``repr``); None when it has no such leaf."""
    if type(value) is int and value == 1:
        return True
    if isinstance(value, tuple):
        for i, item in enumerate(value):
            rebuilt = _with_true_for_one(item)
            if rebuilt is not None:
                return value[:i] + (rebuilt,) + value[i + 1:]
    return None


def _run_5x5(*injectors, integrity, seed=0):
    """A seeded grid 5x5 unknown_f run under the reliable transport."""
    topo = grid_graph(5, 5)
    rng = random.Random(seed)
    return run_protocol(
        "unknown_f",
        topo,
        make_inputs(topo, rng),
        rng=rng,
        strict=False,
        injectors=list(injectors),
        recovery=RecoveryPolicy.default(retransmit_budget=5),
        integrity=integrity,
    )


class _AuditedCoordinator(IntegrityCoordinator):
    """Checks that each bad-digest rejection follows a fresh compute of
    that very frame's tag."""

    def __init__(self, config):
        super().__init__(config)
        self.last_check = None
        self.digest_rejections_audited = 0

    def expected_tag(self, sender, seq, inner, tag):
        computed = self.tags_computed
        expected = super().expected_tag(sender, seq, inner, tag)
        self.last_check = (sender, seq, inner, self.tags_computed > computed)
        return expected

    def record_rejection(self, rnd, sender, receiver, part, reason):
        if reason == REASON_DIGEST:
            checked_sender, seq, inner, computed = self.last_check
            assert computed, "bad-digest decided from a reused tag"
            assert checked_sender == sender
            assert seq is part.payload[0] and inner is part.payload[2]
            self.digest_rejections_audited += 1
        super().record_rejection(rnd, sender, receiver, part, reason)


class TestTagWork:
    def test_clean_frame_reuses_the_senders_tag(self):
        sender, memo_rx, ref_rx = _memo_and_reference()
        frame = sender._frame(5, [Part("ack", (1, 2), 8)])
        assert _verdict(memo_rx, 6, 3, frame) == _verdict(ref_rx, 6, 3, frame)
        assert memo_rx.coordinator.tags_computed == 1
        assert memo_rx.coordinator.tags_reused == 1
        assert ref_rx.coordinator.tags_computed == 1
        assert ref_rx.coordinator.tags_reused == 0

    def test_equal_but_rebuilt_payload_is_recomputed_and_rejected(self):
        # (1,) == (True,) and they hash alike, but their repr -- the bytes
        # the tag covers -- differ.  An ==-keyed memo would accept this.
        sender, memo_rx, ref_rx = _memo_and_reference()
        frame = sender._frame(5, [Part("ack", (1, 2), 8)])
        seq, claimed, inner, tag = frame.payload
        rebuilt = _with_true_for_one(inner)
        assert rebuilt == inner and rebuilt is not inner
        forged = Part(frame.kind, (seq, claimed, rebuilt, tag), frame.bits)
        assert _verdict(memo_rx, 6, 3, forged) == ("rejected", REASON_DIGEST)
        assert _verdict(ref_rx, 6, 3, forged) == ("rejected", REASON_DIGEST)
        assert memo_rx.coordinator.tags_reused == 0

    def test_bool_seq_is_not_matched_to_the_int_seq(self):
        sender, memo_rx, ref_rx = _memo_and_reference()
        frame = sender._frame(1, [Part("ack", (7,), 8)])
        _, claimed, inner, tag = frame.payload
        forged = Part(frame.kind, (True, claimed, inner, tag), frame.bits)
        assert _verdict(memo_rx, 2, 3, forged) == _verdict(ref_rx, 2, 3, forged)
        assert _verdict(memo_rx, 2, 3, forged) == ("rejected", REASON_DIGEST)

    def test_wrap_forgets_the_previous_networks_tags(self):
        sender, memo_rx, _ = _memo_and_reference()
        frame = sender._frame(5, [Part("ack", (1,), 8)])
        memo_rx.coordinator.wrap({})
        assert _verdict(memo_rx, 6, 3, frame)[0] == "ok"
        assert memo_rx.coordinator.tags_reused == 0

    def test_memo_keeps_only_the_current_and_previous_round(self):
        sender, memo_rx, _ = _memo_and_reference()
        for rnd in range(1, 6):
            sender._frame(rnd, [Part("ack", (rnd,), 8)])
        assert sorted(memo_rx.coordinator._sent) == [4, 5]

    def test_drop_run_computes_one_tag_per_frame(self):
        coord = as_integrity(IntegrityConfig(mode="mac"))
        record = _run_5x5(MessageFaults(drop=0.01, seed=0), integrity=coord)
        assert record.correct and record.extra["certified"]
        counters = coord.counters()
        assert counters["frames"] > 0
        assert counters["tags_computed"] == counters["frames"]
        assert counters["tags_reused"] == counters["verified"]
        # Work counters only: run rows stay byte-identical.
        assert set(integrity_columns(coord)) == {
            "integrity_rejected", "quarantined_links",
        }

    def test_bitflip_rejections_are_computed_not_reused(self):
        coord = _AuditedCoordinator(IntegrityConfig(mode="mac"))
        record = _run_5x5(
            MessageFaults(drop=0.01, seed=0),
            MessageCorruption(bitflip=0.02, seed=0),
            integrity=coord,
        )
        assert record.extra["unresolved_corruptions"] == 0
        assert coord.rejected[REASON_DIGEST] > 0
        assert coord.digest_rejections_audited == coord.rejected[REASON_DIGEST]
        # Every frame reaching the tag check costs one compute or reuse.
        assert coord.tags_computed + coord.tags_reused == (
            coord.frames
            + coord.verified
            + coord.rejected[REASON_DIGEST]
            + coord.rejected[REASON_STALE]
        )


class TestQuarantine:
    def test_persistently_corrupt_link_is_quarantined(self):
        topo = grid44()
        inj = MessageCorruption(
            bitflip=0.01, seed=1, link_scale={(1, 0): 1000.0, (5, 4): 1000.0}
        )
        record = run_corrupted(
            topo,
            seed=1,
            corrupt=inj,
            integrity=IntegrityConfig(mode="mac", quarantine_threshold=3),
        )
        quarantined = {tuple(l) for l in record.extra["quarantined_links"]}
        assert quarantined & {(1, 0), (5, 4)}
        assert record.extra["unresolved_corruptions"] == 0

    def test_quarantine_never_certifies_a_wrong_answer(self):
        # Frames starved by the quarantine are real data loss: the run
        # must degrade to an *uncertified* partial, never claim a
        # certified result that is wrong.
        inj = MessageCorruption(
            bitflip=0.01, seed=1, link_scale={(1, 0): 1000.0}
        )
        record = run_corrupted(
            grid44(),
            seed=1,
            corrupt=inj,
            integrity=IntegrityConfig(mode="mac", quarantine_threshold=3),
        )
        if record.extra["certified"] and record.extra["status"] == "exact":
            assert record.correct
        assert record.extra["unresolved_corruptions"] == 0

    def test_noisy_links_are_not_quarantined(self):
        # The score counts *consecutive* blamed rejections, so random
        # noise at CI rates never crosses the threshold even on long
        # runs — only persistent corrupters do.
        inj = MessageCorruption(bitflip=0.05, seed=3)
        record = run_corrupted(
            grid44(), seed=3, corrupt=inj, integrity=IntegrityConfig(mode="mac")
        )
        assert record.extra["quarantined_links"] == []
        assert record.correct and record.extra["certified"]


class TestCorruptionOracle:
    def test_oracle_flags_silent_acceptance(self):
        topo = grid44()
        rng = random.Random(2)
        inputs = make_inputs(topo, rng)
        inj = MessageCorruption(bitflip=0.05, seed=2)
        monitors = standard_monitors(
            topo, inputs, mode="record", corruption=[inj], integrity=None
        )
        record = safe_run_protocol(
            "unknown_f", topo, inputs, seed=2, rng=rng, strict=False,
            injectors=[inj], monitors=monitors,
        )
        oracle = next(
            m for m in monitors if isinstance(m, CorruptionOracleMonitor)
        )
        assert oracle.violations
        assert all(v.rule == "silent-corruption" for v in oracle.violations)
        assert "never rejected" in oracle.violations[0].message

    def test_oracle_silent_when_integrity_rejects_everything(self):
        topo = grid44()
        rng = random.Random(2)
        inputs = make_inputs(topo, rng)
        inj = MessageCorruption(bitflip=0.05, seed=2)
        record = run_corrupted(
            topo, seed=2, corrupt=inj, integrity=IntegrityConfig(mode="mac")
        )
        assert record.extra["unresolved_corruptions"] == 0

    def test_multiset_matcher_counts_duplicates(self):
        # Two identical delivered corruptions need two rejections.
        class Source:
            delivered_corruptions = [
                (0, 3, 1, 0, ("ack", (1,))),
                (0, 3, 1, 0, ("ack", (1,))),
            ]

        coord = as_integrity(IntegrityConfig(mode="mac"))
        coord._rejection_log.append((0, 3, 1, 0, ("ack", (1,))))
        unresolved = unresolved_corruptions([Source()], coord)
        assert len(unresolved) == 1


# --------------------------------------------------------------------- #
# Record / replay of corrupted runs.
# --------------------------------------------------------------------- #


class TestCorruptedReplay:
    def _capture(self, tmp_path, integrity):
        topo = grid44()
        rng = random.Random(3)
        inputs = make_inputs(topo, rng)
        injectors = [
            MessageFaults(drop=0.03, seed=3),
            MessageCorruption(bitflip=0.05, stale=0.02, seed=3),
        ]
        record = safe_run_protocol(
            "unknown_f", topo, inputs, seed=3, rng=rng, strict=False,
            injectors=injectors,
            recovery=RecoveryPolicy(
                transport=TransportConfig(retransmits=3, backoff_cap=4)
            ),
            integrity=integrity,
            capture_dir=str(tmp_path),
        )
        assert record.extra.get("bundle"), record.error
        return record, record.extra["bundle"]

    def test_corrupted_run_replays_bit_exactly(self, tmp_path):
        record, path = self._capture(tmp_path, IntegrityConfig(mode="mac"))
        assert record.extra["delivered_corruptions"] > 0
        outcome = replay_bundle(path)
        assert outcome.reproduced
        assert (
            outcome.record.extra["delivered_corruptions"]
            == record.extra["delivered_corruptions"]
        )
        assert outcome.record.extra["unresolved_corruptions"] == 0

    def test_replay_is_idempotent(self, tmp_path):
        _record, path = self._capture(tmp_path, IntegrityConfig(mode="mac"))
        first = replay_bundle(path)
        second = replay_bundle(path)
        assert first.record.as_dict() == second.record.as_dict()

    def test_unprotected_corrupted_run_also_replays(self, tmp_path):
        record, path = self._capture(tmp_path, None)
        outcome = replay_bundle(path, check_outcome=False)
        assert outcome.record.result == record.result

    def test_bundle_params_carry_integrity_config(self, tmp_path):
        _record, path = self._capture(
            tmp_path, IntegrityConfig(mode="checksum", key_seed=3)
        )
        bundle = ExecutionRecord.load(path)
        assert bundle.params["integrity"]["mode"] == "checksum"
        assert bundle.params["integrity"]["key_seed"] == 3


# --------------------------------------------------------------------- #
# Cache identity (the satellite bugfix).
# --------------------------------------------------------------------- #


class TestCacheIdentity:
    def _unit(self, **kwargs):
        defaults = dict(
            protocol="unknown_f",
            topology=grid_graph(3, 3),
            seed=0,
            f=2,
            b=42,
        )
        defaults.update(kwargs)
        return WorkUnit(**defaults)

    def test_corrupt_spec_changes_the_hash(self):
        base = self._unit()
        assert _hash(base) == _hash(self._unit())
        assert _hash(self._unit(corrupt="bitflip:0.02")) != (
            _hash(base)
        )
        assert _hash(self._unit(corrupt="bitflip:0.02")) != (
            _hash(self._unit(corrupt="bitflip:0.05"))
        )

    def test_integrity_config_changes_the_hash(self):
        base = self._unit()
        mac = self._unit(integrity=IntegrityConfig(mode="mac"))
        checksum = self._unit(integrity=IntegrityConfig(mode="checksum"))
        assert _hash(mac) != _hash(base)
        assert _hash(mac) != _hash(checksum)

    def test_coordinator_and_config_hash_identically(self):
        cfg = IntegrityConfig(mode="mac", key_seed=2)
        assert _hash(self._unit(integrity=cfg)) == _hash(
            self._unit(integrity=as_integrity(cfg))
        )

    def test_schema_enumerates_every_field(self):
        import dataclasses

        token = unit_cache_token(self._unit())
        assert token["version"] == CACHE_VERSION
        expected = sorted(
            f.name
            for f in dataclasses.fields(WorkUnit)
            if f.name not in EXCLUDED_FIELDS
        )
        assert token["schema"] == expected
        # Every schema field is present in the token itself, so a field
        # added later can never be silently missing from the identity.
        for name in expected:
            assert name in token

    def test_v1_style_token_mismatches_on_read(self, tmp_path):
        from repro.exec import ResultCache, execute_unit

        cache = ResultCache(str(tmp_path))
        unit = self._unit()
        path = cache.put(unit, execute_unit(unit))
        import json

        with open(path) as fh:
            entry = json.load(fh)
        entry["token"].pop("corrupt")  # simulate a pre-corruption entry
        entry["token"]["schema"] = [
            n for n in entry["token"]["schema"] if n != "corrupt"
        ]
        with open(path, "w") as fh:
            json.dump(entry, fh)
        assert cache.get(unit) is None


# --------------------------------------------------------------------- #
# Property: a single bit-flip under mac is never silently wrong.
# --------------------------------------------------------------------- #

try:
    from hypothesis import HealthCheck, assume, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - property tests skip gracefully
    HAVE_HYPOTHESIS = False


PROPERTY_TOPOLOGIES = None
if HAVE_HYPOTHESIS:
    from repro.graphs import (
        balanced_tree,
        cycle_graph,
        hypercube_graph,
        random_geometric,
    )

    PROPERTY_TOPOLOGIES = [
        grid_graph(3, 3),
        grid_graph(4, 4),
        cycle_graph(10),
        balanced_tree(2, 15),
        hypercube_graph(3),
        random_geometric(12, rng=random.Random(3)),
    ]


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestSingleBitflipProperty:
    """ISSUE acceptance property: under ``--integrity mac``, any single
    bit-flip on the wire is either rejected-and-recovered (the run stays
    exact and correct) or degrades honestly — it is *never* silently
    wrong, on any topology in the stress matrix."""

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        topo_index=st.integers(0, 5),
        seed=st.integers(0, 2**20),
        protocol=st.sampled_from(["unknown_f", "algorithm1"]),
    )
    def test_single_bitflip_never_silently_wrong(
        self, topo_index, seed, protocol
    ):
        topo = PROPERTY_TOPOLOGIES[topo_index]
        rng = random.Random(seed)
        inputs = make_inputs(topo, rng)
        inj = MessageCorruption(bitflip=1.0, seed=seed, max_bitflips=1)
        kwargs = {}
        if protocol == "algorithm1":
            kwargs = dict(f=2, b=42)
        record = run_protocol(
            protocol,
            topo,
            inputs,
            rng=rng,
            strict=False,
            injectors=[inj],
            recovery=RecoveryPolicy(
                transport=TransportConfig(retransmits=4, backoff_cap=8)
            ),
            integrity=IntegrityConfig(mode="mac"),
            **kwargs,
        )
        # The corrupted copy must never be silently accepted...
        assert record.error is None, record.error
        assert record.extra["unresolved_corruptions"] == 0
        # ...and a result the runtime certifies as exact must be correct.
        if record.extra.get("certified") and record.extra.get("status") == "exact":
            assert record.correct
        # With a single flip and an intact retransmit budget the NACK
        # path always recovers the dropped frame: the run ends exact.
        assert record.correct, (topo.name, seed, protocol)


# --------------------------------------------------------------------- #
# Property: the tag memo never changes a verification verdict.
# --------------------------------------------------------------------- #

if HAVE_HYPOTHESIS:
    _payloads = st.recursive(
        st.integers(0, 3) | st.integers(-(2**40), 2**40) | st.text(max_size=3),
        lambda children: st.tuples(children) | st.tuples(children, children),
        max_leaves=6,
    )
    _parts = st.lists(
        st.builds(
            Part,
            st.sampled_from(["ack", "agg", "flood"]),
            _payloads,
            st.integers(1, 64),
        ),
        min_size=1,
        max_size=4,
    )


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestTagMemoEquivalence:
    """Over random frames and tamperings, ``_verify`` with the sender's
    tag memo returns the same parts, or raises the same reason, as a
    receiver whose every check calls ``compute_tag``."""

    @settings(max_examples=200, deadline=None)
    @given(
        mode=st.sampled_from(["mac", "checksum"]),
        key_seed=st.integers(0, 7),
        seq=st.integers(2, 500),
        old_parts=_parts,
        parts=_parts,
        case=st.sampled_from(
            ["clean", "bitflip", "truncate", "stale", "future",
             "sender", "tag", "true-for-one"]
        ),
        flip_seed=st.integers(0, 2**16),
        cut=st.integers(0, 3),
    )
    def test_memoised_verify_matches_reference(
        self, mode, key_seed, seq, old_parts, parts, case, flip_seed, cut
    ):
        sender, memo_rx, ref_rx = _memo_and_reference(mode, key_seed)
        old = sender._frame(seq - 1, old_parts)
        frame = sender._frame(seq, parts)
        payload = frame.payload
        # (round, envelope sender, part) deliveries, in order.
        deliveries = [(seq + 1, 3, frame)]
        if case == "bitflip":
            flipped = flip_int_leaf(payload, random.Random(flip_seed))
            deliveries = [(seq + 1, 3, Part(frame.kind, flipped, frame.bits))]
        elif case == "truncate":
            deliveries = [(seq + 1, 3, frame._replace(payload=payload[:cut]))]
        elif case == "stale":
            deliveries = [(seq + 1, 3, frame), (seq + 1, 3, old)]
        elif case == "future":
            deliveries = [(seq, 3, frame)]
        elif case == "sender":
            deliveries = [(seq + 1, 5, frame)]
        elif case == "tag":
            bit = 1 << (flip_seed % memo_rx.coordinator.config.digest_bits)
            tampered = payload[:3] + (payload[3] ^ bit,)
            deliveries = [(seq + 1, 3, frame._replace(payload=tampered))]
        elif case == "true-for-one":
            rebuilt = _with_true_for_one(payload[2])
            assume(rebuilt is not None)
            tampered = payload[:2] + (rebuilt,) + payload[3:]
            deliveries = [(seq + 1, 3, frame._replace(payload=tampered))]

        got = [_verdict(memo_rx, r, s, p) for r, s, p in deliveries]
        want = [_verdict(ref_rx, r, s, p) for r, s, p in deliveries]
        assert got == want
        assert ref_rx.coordinator.tags_reused == 0
        expected_reason = {
            "truncate": REASON_STRUCTURE,
            "future": REASON_STALE,
            "sender": REASON_SENDER,
            "tag": REASON_DIGEST,
            "true-for-one": REASON_DIGEST,
        }.get(case)
        if expected_reason is not None:
            assert got[-1] == ("rejected", expected_reason)
        if case in ("clean", "stale"):
            assert got[0] == ("ok", list(parts))
            # Both rounds' frames are still in the memo.
            assert memo_rx.coordinator.tags_reused == len(deliveries)
        if case == "stale":
            assert got[1] == ("rejected", REASON_STALE)
