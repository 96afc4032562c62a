"""Rejoin recovery: stale-NACK guard, amnesiac handlers, snapshots.

Regression focus for the churn work (ISSUE 7):

* A NACK stamped with a pre-crash incarnation must be *discarded* —
  retransmitting against the ghost request would burn per-frame budget
  needed for real losses — and counted under ``stale_nacks``.
* An amnesiac-rejoined node's inner handler only heartbeats: it can
  never vouch for an output, so ``result`` stays ``None`` until the
  epoch manager re-admits the node.
* Anti-entropy snapshots give every contribution neighbour-redundant
  copies; an amnesiac rejoin wipes only the *holder's* cache, never the
  copies other nodes hold.
* Repair traffic never leaks into protocol CC: durable churn runs keep
  the transport baseline's ``max_bits`` bit-for-bit (property).
"""

import random

import pytest

from repro.families.churn import REJOIN_DURABLE, ChurnSchedule
from repro.graphs import grid_graph
from repro.resilience import ChurnPolicy, TransportConfig
from repro.resilience.driver import drive_epochs
from repro.resilience.epochs import ChurnPlan, SnapshotStore
from repro.resilience.transport import (
    FRAME_KIND,
    NACK_KIND,
    AmnesiacInner,
    ReliableTransport,
)
from repro.sim.message import Envelope, Part
from repro.sim.node import NodeHandler

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the toolchain
    HAVE_HYPOTHESIS = False


class _Silent(NodeHandler):
    """Inner handler that never sends and never stops."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.result = None

    def on_round(self, rnd, inbox):
        return []

    def wants_to_stop(self):
        return False


def _pair():
    """Two transport-wrapped silent nodes on a single edge."""
    transport = ReliableTransport(TransportConfig(retransmits=2))
    nodes = transport.wrap(
        {0: _Silent(0), 1: _Silent(1)}, {0: (1,), 1: (0,)}
    )
    return transport, nodes[0]


class TestStaleNackGuard:
    """The incarnation-keyed NACK filter (regression: pre-churn the
    transport would retransmit against any NACK naming it)."""

    def test_stale_incarnation_nack_is_dropped(self):
        transport, node0 = _pair()
        # Peer 1 announces incarnation 2 via a stamped frame...
        node0._absorb(
            1, 1, 1, [Envelope(1, (Part(FRAME_KIND, (1, 0, (), 2), 30),))]
        )
        assert node0._peer_inc[1] == 2
        # ...then a NACK from its dead incarnation 1 arrives (delayed in
        # flight across the crash).  It must not trigger a retransmit.
        wants = node0._absorb(
            1, 2, 2, [Envelope(1, (Part(NACK_KIND, (1, (0,), 1), 25),))]
        )
        assert not wants
        assert transport.stale_nacks == 1

    def test_current_incarnation_nack_still_retransmits(self):
        transport, node0 = _pair()
        node0._absorb(
            1, 1, 1, [Envelope(1, (Part(FRAME_KIND, (1, 0, (), 2), 30),))]
        )
        wants = node0._absorb(
            1, 2, 2, [Envelope(1, (Part(NACK_KIND, (1, (0,), 2), 25),))]
        )
        assert wants
        assert transport.stale_nacks == 0

    def test_unstamped_nack_from_incarnation_zero_peer_passes(self):
        """Pre-churn wire format: no stamp, no peer incarnation — the
        legacy path must keep retransmitting."""
        transport, node0 = _pair()
        node0._absorb(
            1, 1, 1, [Envelope(1, (Part(FRAME_KIND, (1, 0, ()), 26),))]
        )
        wants = node0._absorb(
            1, 2, 2, [Envelope(1, (Part(NACK_KIND, (1, (0,)), 21),))]
        )
        assert wants
        assert transport.stale_nacks == 0

    def test_stale_nacks_surface_in_run_extras(self):
        topo = grid_graph(3, 3)
        inputs = {u: u + 1 for u in topo.nodes()}
        ch = ChurnSchedule.from_spec(
            "5:crash@r3,5:revive@r6", root=topo.root
        )
        policy = ChurnPolicy(transport=TransportConfig(retransmits=3))
        out = drive_epochs(
            ChurnPlan(topo, inputs, ch, policy=policy),
            "unknown_f",
            rng=random.Random(7),
        )
        assert "stale_nacks" in out.partial.extra


class TestAmnesiacInner:
    def test_only_heartbeats_and_never_vouches(self):
        lost = _Silent(5)
        inner = AmnesiacInner(5, lost)
        assert inner.on_round(3, []) == []
        assert inner.result is None
        assert inner.lost is lost

    def test_amnesiac_revive_resets_transport_state(self):
        transport, node0 = _pair()
        node0._absorb(
            1, 1, 1, [Envelope(1, (Part(FRAME_KIND, (1, 0, (), 1), 30),))]
        )
        assert node0._buf
        node0.on_churn_revive("amnesiac", 1, rnd=7)
        assert node0._buf == {}
        assert node0._peer_inc == {}
        assert isinstance(node0.inner, AmnesiacInner)
        assert transport.rejoins_amnesiac == 1

    def test_durable_revive_keeps_state(self):
        transport, node0 = _pair()
        node0._absorb(
            1, 1, 1, [Envelope(1, (Part(FRAME_KIND, (1, 0, (), 1), 30),))]
        )
        node0.on_churn_revive("durable", 1, rnd=7)
        assert node0._buf, "durable rejoin must keep buffered frames"
        assert not isinstance(node0.inner, AmnesiacInner)
        assert node0._incarnation == 1
        assert transport.rejoins_durable == 1


class TestSnapshotStore:
    def test_holders_are_redundant_copies(self):
        store = SnapshotStore()
        store.seed(1, 5, 42)
        store.seed(2, 5, 42)
        assert sorted(store.holders_of(5)) == [1, 2]

    def test_amnesiac_rejoin_wipes_only_the_holder(self):
        store = SnapshotStore()
        store.seed(1, 5, 42)
        store.seed(2, 5, 42)
        store.drop_holder(1)
        assert store.holders_of(5) == [2]
        assert store.cache_of(1) == {}
        assert store.cache_of(2) == {5: 42}


# --------------------------------------------------------------------- #
# Properties.
# --------------------------------------------------------------------- #

if HAVE_HYPOTHESIS:

    _topo = grid_graph(3, 3)
    _non_root = sorted(set(_topo.nodes()) - {_topo.root})

    class TestRepairTrafficIsolation:
        @settings(
            max_examples=10,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(
            node=st.sampled_from(_non_root),
            crash=st.integers(min_value=2, max_value=10),
            gap=st.integers(min_value=1, max_value=6),
            seed=st.integers(0, 2**16),
        )
        def test_durable_blip_never_changes_protocol_cc(
            self, node, crash, gap, seed
        ):
            """All repair traffic — retransmits, NACKs, incarnation
            stamps — books as overhead, so a single-epoch durable blip
            keeps the clean transport baseline's protocol CC."""
            inputs = {u: (u * 7 + seed) % 19 + 1 for u in _topo.nodes()}
            policy = ChurnPolicy(transport=TransportConfig(retransmits=3))
            clean = drive_epochs(
                ChurnPlan(_topo, inputs, ChurnSchedule(), policy=policy),
                "unknown_f",
                rng=random.Random(seed),
            )
            churn = ChurnSchedule(
                cycles={node: [(crash, crash + gap, REJOIN_DURABLE)]},
                root=_topo.root,
            )
            blip = drive_epochs(
                ChurnPlan(_topo, inputs, churn, policy=policy),
                "unknown_f",
                rng=random.Random(seed),
            )
            # When the transport fully masks the outage the protocol
            # executes identically (same logical rounds) — then the CC
            # must match bit-for-bit.  A blip that outlasts the
            # retransmit budget legitimately changes the protocol's own
            # behaviour (unknown_f observes the gap and doubles), which
            # is in-model cost, not leaked repair traffic.
            if (
                len(blip.epochs) == 1
                and not any(e.discarded for e in blip.epochs)
                and blip.rounds == clean.rounds
            ):
                assert blip.stats.max_bits == clean.stats.max_bits
            assert blip.result == sum(inputs.values())
