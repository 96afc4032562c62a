"""Unit tests for the flood primitive: dedup, same-round forwarding, reach."""

from typing import Sequence

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary import FailureSchedule
from repro.core import run_agg_veri_pair
from repro.graphs import cycle_graph, grid_graph, path_graph
from repro.sim.flooding import RUN_INDEX, ContentIndex, FloodManager
from repro.sim.message import Envelope, Part
from repro.sim.network import Network
from repro.sim.node import NodeHandler


class Flooder(NodeHandler):
    """Forwards all floods; optionally initiates one at a given round."""

    def __init__(self, initiate_part=None, initiate_round=None):
        self.floods = FloodManager({"f"})
        self.initiate_part = initiate_part
        self.initiate_round = initiate_round
        self.first_seen = {}

    def on_round(self, rnd: int, inbox: Sequence[Envelope]):
        for part in self.floods.absorb(inbox):
            self.first_seen.setdefault(part.content_key, rnd)
        if self.initiate_part is not None and rnd == self.initiate_round:
            self.floods.initiate(self.initiate_part)
        return self.floods.emit()


class TestFloodManager:
    def test_absorb_queues_first_receipt(self):
        fm = FloodManager({"f"})
        part = Part("f", (1,), 2)
        fresh = fm.absorb([Envelope(0, (part,))])
        assert fresh == [part]
        assert fm.emit() == [part]

    def test_absorb_ignores_duplicates(self):
        fm = FloodManager({"f"})
        part = Part("f", (1,), 2)
        fm.absorb([Envelope(0, (part,))])
        fm.emit()
        assert fm.absorb([Envelope(2, (part,))]) == []
        assert fm.emit() == []

    def test_duplicate_from_different_source_ignored(self):
        # The paper: "potentially initiated by a different source".
        fm = FloodManager({"f"})
        fm.absorb([Envelope(0, (Part("f", (1,), 2),))])
        fm.emit()
        assert fm.absorb([Envelope(9, (Part("f", (1,), 2),))]) == []

    def test_non_flood_kinds_pass_through_untouched(self):
        fm = FloodManager({"f"})
        assert fm.absorb([Envelope(0, (Part("other", (), 1),))]) == []
        assert fm.emit() == []

    def test_initiate_deduplicates(self):
        fm = FloodManager({"f"})
        part = Part("f", (1,), 2)
        assert fm.initiate(part)
        assert not fm.initiate(part)
        assert fm.emit() == [part]

    def test_initiate_after_absorb_is_noop(self):
        # A witness whose determination already arrived only participates in
        # one flooding (Section 4.3).
        fm = FloodManager({"f"})
        part = Part("f", (1,), 2)
        fm.absorb([Envelope(0, (part,))])
        assert not fm.initiate(part)
        assert fm.emit() == [part]  # forwarded once, not twice

    def test_initiate_rejects_unregistered_kind(self):
        fm = FloodManager({"f"})
        with pytest.raises(ValueError):
            fm.initiate(Part("other", (), 1))

    def test_has_seen_absorbed_and_initiated(self):
        fm = FloodManager({"f"})
        fm.absorb([Envelope(0, (Part("f", (1,), 2),))])
        fm.initiate(Part("f", (2,), 2))
        assert fm.has_seen("f", (1,))
        assert fm.has_seen("f", (2,))
        assert not fm.has_seen("f", (3,))


class ReferenceFloods:
    """The per-part absorb loop: one Python step per delivered copy."""

    def __init__(self, kinds):
        self.kinds = set(kinds)
        self.seen = set()
        self.queue = []

    def _take(self, part):
        self.seen.add(part.content_key)
        self.queue.append(part)

    def absorb(self, copies):
        fresh = []
        for _sender, part in copies:
            if part.kind in self.kinds and part.content_key not in self.seen:
                self._take(part)
                fresh.append(part)
        return fresh

    def initiate(self, part):
        if part.content_key in self.seen:
            return False
        self._take(part)
        return True


_parts = st.builds(
    Part,
    kind=st.sampled_from(["f", "g", "x"]),  # "x" is not a flood kind
    payload=st.tuples(st.integers(0, 4)),
    bits=st.integers(1, 3),
)
_envelopes = st.builds(
    Envelope,
    sender=st.integers(0, 3),
    parts=st.lists(_parts, min_size=1, max_size=4).map(tuple),
)


class TestAbsorbMatchesReference:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        rounds=st.lists(
            st.tuples(
                st.lists(st.integers(0, 5), max_size=6),  # inbox picks
                st.lists(_parts.filter(lambda p: p.kind != "x"), max_size=2),
            ),
            max_size=8,
        ),
        pool=st.lists(_envelopes, min_size=1, max_size=6),
    )
    def test_fresh_parts_and_queue_match(self, rounds, pool):
        """Envelopes are drawn from a shared pool, as a broadcast is shared
        by its receivers, so inboxes repeat envelope objects."""
        fm = FloodManager({"f", "g"})
        ref = ReferenceFloods({"f", "g"})
        for picks, initiated in rounds:
            inbox = [pool[i % len(pool)] for i in picks]
            copies = [(env.sender, p) for env in inbox for p in env.parts]
            assert fm.absorb(inbox) == ref.absorb(copies)
            for part in initiated:
                assert fm.initiate(part) == ref.initiate(part)
            assert fm.emit() == ref.queue
            ref.queue = []

    def test_duplicate_broadcast_walks_no_part(self):
        """An envelope whose every content was seen costs one set check:
        its parts are never iterated."""

        class Untouchable(tuple):
            def __iter__(self):
                raise AssertionError("walked the parts of a duplicate")

        parts = (Part("f", (1,), 2), Part("g", (2,), 2))
        fm = FloodManager({"f", "g"})
        fm.absorb([Envelope(0, parts)])
        fm.emit()
        duplicate = Envelope(1, parts)
        duplicate.content_bits(fm.index)  # built once, as the first receiver does
        duplicate.parts = Untouchable(parts)
        assert fm.absorb([duplicate]) == []
        assert fm.emit() == []


#: Hash-equal payloads: a set kept one of them, and so must the masks.
_equal_payloads = [(1,), (True,), (1.0,), (0,), (False,), (0.0,), (2,)]
_dup_parts = st.builds(
    Part,
    kind=st.sampled_from(["f", "g", "x"]),
    payload=st.sampled_from(_equal_payloads),
    bits=st.integers(1, 3),
)
#: Small pools, so one envelope often repeats a content.
_dup_envelopes = st.builds(
    Envelope,
    sender=st.integers(0, 3),
    parts=st.lists(_dup_parts, min_size=1, max_size=5).map(tuple),
)


def _exact(parts):
    """Parts as comparable values that tell ``1``, ``True`` and ``1.0``
    apart."""
    return [(p.kind, repr(p.payload), p.bits) for p in parts]


class TestMasksMatchReference:
    """The bitmask seen-sets against the set-based :class:`ReferenceFloods`,
    on managers driven by hand, outside any ``Network``."""

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        rounds=st.lists(
            st.tuples(
                st.lists(st.integers(0, 5), max_size=6),  # inbox picks
                st.lists(_dup_parts.filter(lambda p: p.kind != "x"), max_size=2),
                st.booleans(),  # initiate before absorbing
            ),
            max_size=8,
        ),
        pool=st.lists(_dup_envelopes, min_size=1, max_size=6),
        shared=st.booleans(),
    )
    def test_disjoint_managers_share_envelopes(self, rounds, pool, shared):
        """Two managers with disjoint kinds read the same envelope objects,
        as Algorithm 1's AGG and VERI handlers do, in one shared index or
        each in its own."""
        token = RUN_INDEX.set(ContentIndex()) if shared else None
        try:
            managers = [FloodManager({"f"}), FloodManager({"g"})]
            refs = [ReferenceFloods({"f"}), ReferenceFloods({"g"})]
            # The second manager binds, and registers its kind, only at its
            # first use: after the first one has read the envelopes.
            managers[0].index
            for picks, initiated, initiate_first in rounds:
                inbox = [pool[i % len(pool)] for i in picks]
                copies = [(env.sender, p) for env in inbox for p in env.parts]
                for fm, ref in zip(managers, refs):
                    mine = [p for p in initiated if p.kind in ref.kinds]
                    if initiate_first:
                        for part in mine:
                            assert fm.initiate(part) == ref.initiate(part)
                    assert _exact(fm.absorb(inbox)) == _exact(ref.absorb(copies))
                    if not initiate_first:
                        for part in mine:
                            assert fm.initiate(part) == ref.initiate(part)
                    assert _exact(fm.emit()) == _exact(ref.queue)
                    ref.queue = []
                    for part in initiated:
                        assert fm.has_seen(part.kind, part.payload) == (
                            part.kind in ref.kinds
                            and part.content_key in ref.seen
                        )
            indexes = {id(fm.index) for fm in managers}
        finally:
            if token is not None:
                RUN_INDEX.reset(token)
        assert len(indexes) == (1 if shared else 2)

    def test_a_kind_registered_after_an_envelope_was_read(self):
        """VERI's manager is armed after AGG's has read the round's
        envelopes: the cached bits gave VERI's parts none, and are rebuilt
        once its kinds are registered."""
        f, g = Part("f", (1,), 2), Part("g", (1,), 2)
        env = Envelope(0, (f, g))
        token = RUN_INDEX.set(ContentIndex())
        try:
            agg = FloodManager({"f"})
            assert agg.absorb([env]) == [f]
            assert env.content_bits(agg.index)[3] == (1, 0)
            veri = FloodManager({"g"})
            assert veri.absorb([env]) == [g]
            assert agg.absorb([env]) == []
        finally:
            RUN_INDEX.reset(token)

    def test_content_repeated_inside_one_envelope(self):
        part = Part("f", (1,), 2)
        twin = Part("f", (True,), 3)  # the same content
        fm = FloodManager({"f"})
        assert fm.absorb([Envelope(0, (part, Part("x", (), 1), twin))]) == [part]
        assert fm.emit() == [part]

    def test_hash_equal_payloads_dedup_as_a_set(self):
        fm = FloodManager({"f"})
        first = Part("f", (1.0,), 2)
        assert fm.initiate(first)
        assert not fm.initiate(Part("f", (1,), 2))
        assert fm.absorb([Envelope(0, (Part("f", (True,), 2),))]) == []
        assert fm.has_seen("f", (True,))
        assert _exact(fm.emit()) == _exact([first])

    def test_initiate_before_any_receipt(self):
        fm = FloodManager({"f"})
        part = Part("f", (1,), 2)
        assert fm.initiate(part)
        assert fm.absorb([Envelope(0, (part, Part("f", (2,), 2)))]) == [
            Part("f", (2,), 2)
        ]
        assert fm.emit() == [part, Part("f", (2,), 2)]

    def test_outside_a_network_each_manager_has_its_own_index(self):
        a, b = FloodManager({"f"}), FloodManager({"f"})
        part = Part("f", (1,), 2)
        env = Envelope(0, (part,))
        assert a.absorb([env]) == [part]
        assert b.absorb([env]) == [part]  # rebuilt in b's index, not misread
        assert a.index is not b.index
        assert env.content_bits(b.index)[0] is b.index


class TestRunIndex:
    """Each ``Network`` numbers its own contents, and the managers its
    handlers first use in its rounds read that index and no other."""

    @staticmethod
    def _flood(topo, part):
        nodes = {0: Flooder(part, initiate_round=1)}
        nodes.update({u: Flooder() for u in topo.nodes() if u != 0})
        net = Network(topo.adjacency, nodes)
        net.run(topo.diameter + 1, stop_on_output=False)
        return net, nodes

    def test_networks_back_to_back_keep_their_own_index(self):
        topo = cycle_graph(6)
        first, first_nodes = self._flood(topo, Part("f", ("a",), 3))
        second, second_nodes = self._flood(topo, Part("f", ("b",), 3))
        assert dict(first.contents) == {("f", ("a",)): 1}
        assert dict(second.contents) == {("f", ("b",)): 1}
        for nodes, net in ((first_nodes, first), (second_nodes, second)):
            assert all(n.floods.index is net.contents for n in nodes.values())
            assert all(len(nodes[u].first_seen) == 1 for u in range(1, 6))
        assert RUN_INDEX.get() is None

    def test_agg_veri_pairs_back_to_back(self):
        """``run_agg_veri_pair`` builds two networks per call; two calls
        give four indexes and the same, correct outcome."""
        topo = grid_graph(4, 4)
        inputs = {u: 1 for u in topo.nodes()}
        schedule = FailureSchedule({5: 3})
        first = run_agg_veri_pair(topo, inputs, t=2, schedule=schedule)
        second = run_agg_veri_pair(topo, inputs, t=2, schedule=schedule)
        clean = run_agg_veri_pair(topo, inputs, t=2)
        assert clean.accepted and clean.agg_result == 16
        assert first == second
        assert first.agg_result in (15, 16)

    def test_a_run_nested_inside_another(self):
        """A handler that runs a whole inner network inside its round: the
        inner managers bind to the inner index, the outer ones keep the
        outer index, and both floods reach everyone."""
        inner_topo = path_graph(4)

        class Nesting(Flooder):
            def on_round(self, rnd, inbox):
                if rnd == 2:
                    self.inner = TestRunIndex._flood(
                        inner_topo, Part("f", ("inner",), 3)
                    )
                return super().on_round(rnd, inbox)

        topo = cycle_graph(6)
        part = Part("f", ("outer",), 3)
        nodes = {0: Flooder(part, initiate_round=1), 3: Nesting()}
        nodes.update({u: Flooder() for u in topo.nodes() if u not in nodes})
        net = Network(topo.adjacency, nodes)
        net.run(topo.diameter + 1, stop_on_output=False)
        inner_net, inner_nodes = nodes[3].inner
        assert inner_net.contents is not net.contents
        assert dict(inner_net.contents) == {("f", ("inner",)): 1}
        assert dict(net.contents) == {("f", ("outer",)): 1}
        assert all(n.floods.index is net.contents for n in nodes.values())
        assert all(
            n.floods.index is inner_net.contents for n in inner_nodes.values()
        )
        for u in topo.non_root_nodes():
            assert part.content_key in nodes[u].first_seen
        for u in inner_topo.non_root_nodes():
            assert ("f", ("inner",)) in inner_nodes[u].first_seen


class TestFloodPropagation:
    def test_flood_reaches_distance_x_at_round_x_after_initiation(self):
        # Same-round forwarding: initiation at round r reaches distance x at
        # round r + x — the timing the paper's wave arguments rely on.
        topo = path_graph(6)
        part = Part("f", ("hello",), 3)
        nodes = {0: Flooder(part, initiate_round=1)}
        nodes.update({i: Flooder() for i in range(1, 6)})
        net = Network(topo.adjacency, nodes)
        net.run(7, stop_on_output=False)
        for i in range(1, 6):
            assert nodes[i].first_seen[part.content_key] == 1 + i

    def test_flood_reaches_every_node_within_diameter(self):
        topo = grid_graph(4, 5)
        part = Part("f", ("x",), 3)
        nodes = {0: Flooder(part, initiate_round=1)}
        nodes.update({u: Flooder() for u in topo.nodes() if u != 0})
        net = Network(topo.adjacency, nodes)
        net.run(topo.diameter + 1, stop_on_output=False)
        for u in topo.non_root_nodes():
            assert part.content_key in nodes[u].first_seen

    def test_each_node_forwards_each_content_once(self):
        topo = cycle_graph(8)
        part = Part("f", ("x",), 3)
        nodes = {0: Flooder(part, initiate_round=1)}
        nodes.update({u: Flooder() for u in topo.nodes() if u != 0})
        net = Network(topo.adjacency, nodes)
        net.run(12, stop_on_output=False)
        # One content, forwarded once per node -> parts_sent[u] == 1.
        for u in topo.nodes():
            assert net.stats.parts_sent.get(u, 0) == 1

    def test_two_simultaneous_floods_both_reach_everyone(self):
        topo = cycle_graph(9)
        a, b = Part("f", ("a",), 3), Part("f", ("b",), 3)
        nodes = {
            0: Flooder(a, initiate_round=1),
            4: Flooder(b, initiate_round=1),
        }
        nodes.update(
            {u: Flooder() for u in topo.nodes() if u not in (0, 4)}
        )
        net = Network(topo.adjacency, nodes)
        net.run(12, stop_on_output=False)
        for u in topo.nodes():
            seen = nodes[u].first_seen if u not in (0, 4) else None
            if seen is not None:
                assert a.content_key in seen and b.content_key in seen

    def test_flood_does_not_cross_crashed_cut(self):
        topo = path_graph(5)
        part = Part("f", ("x",), 3)
        nodes = {0: Flooder(part, initiate_round=1)}
        nodes.update({i: Flooder() for i in range(1, 5)})
        net = Network(topo.adjacency, nodes, crash_rounds={2: 1})
        net.run(8, stop_on_output=False)
        assert part.content_key in nodes[1].first_seen
        assert part.content_key not in nodes[3].first_seen
        assert part.content_key not in nodes[4].first_seen
