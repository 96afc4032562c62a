"""Unit tests for the flood primitive: dedup, same-round forwarding, reach."""

from typing import Sequence

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs import cycle_graph, grid_graph, path_graph
from repro.sim.flooding import FloodManager
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
        for part in self.floods.absorb(inbox, rnd):
            self.first_seen.setdefault(part.content_key, rnd)
        if self.initiate_part is not None and rnd == self.initiate_round:
            self.floods.initiate(self.initiate_part, rnd)
        return self.floods.emit()


class TestFloodManager:
    def test_absorb_queues_first_receipt(self):
        fm = FloodManager({"f"})
        part = Part("f", (1,), 2)
        fresh = fm.absorb([Envelope(0, (part,))], rnd=3)
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

    def test_has_seen_and_contents(self):
        fm = FloodManager({"f"})
        fm.absorb([Envelope(0, (Part("f", (1,), 2),))])
        fm.initiate(Part("f", (2,), 2))
        assert fm.has_seen("f", (1,))
        assert fm.has_seen("f", (2,))
        assert sorted(fm.contents("f")) == [(1,), (2,)]

    def test_first_seen_round_recorded(self):
        fm = FloodManager({"f"})
        fm.absorb([Envelope(0, (Part("f", (1,), 2),))], rnd=7)
        assert fm.first_seen_round[("f", (1,))] == 7


class ReferenceFloods:
    """The per-part absorb loop: one Python step per delivered copy."""

    def __init__(self, kinds):
        self.kinds = set(kinds)
        self.seen = set()
        self.queue = []
        self.known = {}
        self.first_seen_round = {}

    def _take(self, part, rnd):
        key = part.content_key
        self.seen.add(key)
        self.known[key] = part
        self.first_seen_round[key] = rnd
        self.queue.append(part)

    def absorb(self, copies, rnd):
        fresh = []
        for _sender, part in copies:
            if part.kind in self.kinds and part.content_key not in self.seen:
                self._take(part, rnd)
                fresh.append(part)
        return fresh

    def initiate(self, part, rnd):
        if part.content_key in self.seen:
            return False
        self._take(part, rnd)
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
    def test_fresh_parts_queue_known_and_rounds_match(self, rounds, pool):
        """Envelopes are drawn from a shared pool, as a broadcast is shared
        by its receivers, so inboxes repeat envelope objects."""
        fm = FloodManager({"f", "g"})
        ref = ReferenceFloods({"f", "g"})
        for rnd, (picks, initiated) in enumerate(rounds, start=1):
            inbox = [pool[i % len(pool)] for i in picks]
            copies = [(env.sender, p) for env in inbox for p in env.parts]
            assert fm.absorb(inbox, rnd) == ref.absorb(copies, rnd)
            for part in initiated:
                assert fm.initiate(part, rnd) == ref.initiate(part, rnd)
            assert fm.emit() == ref.queue
            ref.queue = []
            assert list(fm.known.items()) == list(ref.known.items())
            assert list(fm.first_seen_round.items()) == list(
                ref.first_seen_round.items()
            )

    def test_duplicate_broadcast_walks_no_part(self):
        """An envelope whose every content was seen costs one set check:
        its parts are never iterated."""

        class Untouchable(tuple):
            def __iter__(self):
                raise AssertionError("walked the parts of a duplicate")

        parts = (Part("f", (1,), 2), Part("g", (2,), 2))
        fm = FloodManager({"f", "g"})
        fm.absorb([Envelope(0, parts)], rnd=1)
        fm.emit()
        duplicate = Envelope(1, parts)
        duplicate.keys  # built once, as the first receiver does
        duplicate.parts = Untouchable(parts)
        assert fm.absorb([duplicate], rnd=2) == []
        assert fm.emit() == []


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
