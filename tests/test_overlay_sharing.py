"""One decode per broadcast on the transport + MAC overlay stack.

Local broadcast hands every receiver the same frame object.  The
integrity layer therefore decodes a signed frame's inner parts once, when
it signs the frame, and every intact copy delivers that one envelope; the
reliable transport builds each logical-round envelope once, for the first
receiver, and hands the same object to every receiver that buffered the
same frame contents.  A tampered copy, or a frame the replay injector
rebuilt from a bundle, is never taken for the signed frame.
"""

import random

import pytest

from repro.analysis.runner import make_inputs, run_protocol, safe_run_protocol
from repro.graphs import grid_graph
from repro.integrity import frames
from repro.integrity.frames import IntegrityConfig, IntegrityNode, as_integrity
from repro.resilience import transport as transport_mod
from repro.resilience.failover import RecoveryPolicy
from repro.resilience.transport import ReliableTransport, TransportConfig
from repro.sim import replay_bundle
from repro.sim.faults import MessageCorruption, MessageFaults
from repro.sim.replay import ReplayInjector


class _Spy:
    """Wraps ``owner.name`` and keeps ``(args, result)`` of every call."""

    def __init__(self, monkeypatch, owner, name):
        self.calls = []
        original = getattr(owner, name)

        def spy(*args):
            result = original(*args)
            self.calls.append((args, result))
            return result

        monkeypatch.setattr(owner, name, spy)


def _same_object_per_key(pairs):
    """``{key: [objects]}`` from ``(key, object)`` pairs; asserts each
    key maps to one object, and returns how many keys had two or more."""
    seen = {}
    for key, obj in pairs:
        seen.setdefault(key, []).append(obj)
    for objs in seen.values():
        assert all(o is objs[0] for o in objs)
    return sum(1 for objs in seen.values() if len(objs) > 1)


class TestCleanRunSharing:
    @pytest.fixture
    def clean_run(self, monkeypatch):
        """A clean transport + MAC ``unknown_f`` run on grid 4x4, with
        spies on every decode and envelope build."""
        decodes = _Spy(monkeypatch, frames, "decode_inner")
        opened = _Spy(monkeypatch, IntegrityNode, "_open")
        logical = _Spy(monkeypatch, ReliableTransport, "logical_envelope")
        built = []

        class CountedEnvelope(transport_mod.Envelope):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        monkeypatch.setattr(transport_mod, "Envelope", CountedEnvelope)
        coordinator = as_integrity(IntegrityConfig(mode="mac"))
        topo = grid_graph(4, 4)
        rng = random.Random(3)
        record = run_protocol(
            "unknown_f", topo, make_inputs(topo, rng), rng=rng,
            strict=False, transport=TransportConfig(), integrity=coordinator,
        )
        assert record.correct
        return coordinator, decodes, opened, logical, built

    def test_one_decode_per_signed_frame(self, clean_run):
        coordinator, decodes, _, _, _ = clean_run
        assert coordinator.frames > 0
        assert len(decodes.calls) == coordinator.frames
        # Every delivered copy took the intact path.
        assert coordinator.tags_reused == coordinator.verified
        assert coordinator.tags_computed == coordinator.frames
        assert sum(coordinator.rejected.values()) == 0

    def test_every_receiver_of_a_frame_gets_one_envelope(self, clean_run):
        _, _, opened, _, _ = clean_run
        pairs = [
            ((sender, part.payload[0]), envelope)
            for (_node, _rnd, sender, part), envelope in opened.calls
        ]
        assert len(pairs) > len({key for key, _ in pairs})
        assert _same_object_per_key(pairs) > 0

    def test_one_logical_envelope_per_delivered_frame(self, clean_run):
        _, _, _, logical, built = clean_run
        keys = {
            (sender, lr) for (_t, sender, lr, _c), _e in logical.calls
        }
        assert len(built) == len(keys) > 0
        pairs = [
            ((sender, lr), envelope)
            for (_t, sender, lr, _c), envelope in logical.calls
        ]
        assert _same_object_per_key(pairs) > 0


class TestNoSharingForForeignFrames:
    def test_tampered_and_rebuilt_frames_never_get_shared_parts(
        self, monkeypatch, tmp_path
    ):
        intact = _Spy(monkeypatch, frames.IntegrityCoordinator, "intact")
        corruption = MessageCorruption(bitflip=0.05, truncate=0.02, seed=4)
        tampered = []
        original = MessageCorruption.on_transmit

        def on_transmit(self, due, sender, receiver, part):
            out = original(self, due, sender, receiver, part)
            tampered.extend(
                (sender, p.payload) for _d, p in out
                if p is not part and p.payload is not part.payload
            )
            return out

        monkeypatch.setattr(MessageCorruption, "on_transmit", on_transmit)
        topo = grid_graph(4, 4)
        rng = random.Random(4)
        record = safe_run_protocol(
            "unknown_f", topo, make_inputs(topo, rng), seed=4, rng=rng,
            strict=False,
            injectors=[MessageFaults(drop=0.02, seed=4), corruption],
            recovery=RecoveryPolicy.default(retransmit_budget=4),
            integrity=IntegrityConfig(mode="mac"),
            capture_dir=str(tmp_path),
        )
        assert record.extra["unresolved_corruptions"] == 0
        assert tampered
        verdicts = {
            id(payload): result
            for (_c, _s, payload), result in intact.calls
        }
        checked = [
            verdicts[id(payload)] for _sender, payload in tampered
            if id(payload) in verdicts
        ]
        assert checked and all(result is None for result in checked)

        # Replay: the frames the injector rebuilds from the bundle are new
        # objects, so none of them is the signed frame.
        rebuilt = _Spy(monkeypatch, ReplayInjector, "_rebuild_part")
        intact.calls.clear()
        replay_bundle(record.extra["bundle"], strict=True)
        assert rebuilt.calls
        rebuilt_payloads = {id(part.payload) for _a, part in rebuilt.calls}
        checked = [
            result for (_c, _s, payload), result in intact.calls
            if id(payload) in rebuilt_payloads
        ]
        assert checked and all(result is None for result in checked)
