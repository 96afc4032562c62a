"""Execution tracing: event capture, queries, and rendering."""

import pytest

from repro.core.agg import AggNode
from repro.core.params import params_for
from repro.graphs import grid_graph, path_graph
from repro.sim import Network, Part, SendTracer, Tracer
from tests.conftest import RelayNode, SilentNode


class Beacon(SilentNode):
    def __init__(self, part, at=1):
        self.part = part
        self.at = at

    def on_round(self, rnd, inbox):
        return [self.part] if rnd == self.at else []


def line3():
    return {0: [1], 1: [0, 2], 2: [1]}


class TestEventCapture:
    def test_send_events(self):
        part = Part("ping", (), 4)
        tracer = Tracer()
        net = Network(
            line3(),
            {0: Beacon(part), 1: RelayNode(), 2: RelayNode()},
            injectors=[tracer],
        )
        net.run(3, stop_on_output=False)
        # Beacon at round 1, node 1 forwards at round 2, node 2 at round 3.
        assert len(tracer.sends) == 3
        assert tracer.sends[0].node == 0
        assert tracer.sends[0].round == 1
        assert tracer.sends[0].bits == 4

    def test_deliver_events(self):
        part = Part("ping", (), 4)
        tracer = Tracer()
        net = Network(
            line3(),
            {0: Beacon(part), 1: RelayNode(), 2: SilentNode()},
            injectors=[tracer],
        )
        net.run(3, stop_on_output=False)
        received_by_1 = tracer.deliveries_to(1)
        assert len(received_by_1) == 1
        assert received_by_1[0].sender == 0

    def test_deliveries_can_be_disabled(self):
        part = Part("ping", (), 4)
        tracer = SendTracer()
        net = Network(
            line3(),
            {0: Beacon(part), 1: RelayNode(), 2: RelayNode()},
            injectors=[tracer],
        )
        net.run(3, stop_on_output=False)
        # A send-only tracer is never called per delivered copy.
        assert tracer not in net._on_deliver
        assert not hasattr(tracer, "deliveries")
        assert tracer.sends  # sends still captured

    def test_crash_events_once(self):
        tracer = Tracer()
        net = Network(
            line3(),
            {i: SilentNode() for i in range(3)},
            crash_rounds={1: 2},
            injectors=[tracer],
        )
        net.run(4, stop_on_output=False)
        assert tracer.crashes == [(2, 1)]


class TestQueries:
    def _traced_agg(self):
        topo = grid_graph(4, 4)
        params = params_for(topo, t=1)
        nodes = {u: AggNode(params, u, 1) for u in topo.nodes()}
        tracer = Tracer()
        net = Network(topo.adjacency, nodes, injectors=[tracer])
        net.run(params.agg_rounds, stop_on_output=False)
        return topo, params, tracer

    def test_kind_histogram_covers_agg_phases(self):
        _topo, _params, tracer = self._traced_agg()
        hist = tracer.kind_histogram()
        assert hist["tree_construct"] == 16  # one beacon per node
        assert hist["ack"] == 15  # every non-root acks
        assert hist["flooded_psum"] >= 15  # root's flood forwarded by all

    def test_first_send_of_kind(self):
        _topo, _params, tracer = self._traced_agg()
        first = tracer.first_send_of_kind("tree_construct")
        assert first.node == 0 and first.round == 1

    def test_first_delivery_round_matches_distance(self):
        topo, params, tracer = self._traced_agg()
        # flooded_psum starts at the root in round 4cd+3; node 15 is at
        # distance 6, so it first hears it 6 rounds later.
        start = 4 * params.cd + 3
        event = tracer.first_delivery(15, "flooded_psum")
        assert event.round == start + topo.levels[15]

    def test_bits_per_round_totals_match_stats(self):
        topo = grid_graph(3, 3)
        params = params_for(topo, t=0)
        nodes = {u: AggNode(params, u, 1) for u in topo.nodes()}
        tracer = Tracer()
        net = Network(topo.adjacency, nodes, injectors=[tracer])
        net.run(params.agg_rounds, stop_on_output=False)
        assert sum(tracer.bits_per_round().values()) == net.stats.total_bits

    def test_sends_by_node(self):
        _topo, _params, tracer = self._traced_agg()
        assert all(e.node == 3 for e in tracer.sends_by(3))


class TestHookContracts:
    """The three tracer hooks fire in the right rounds with the right
    payloads — on both the exact and the fault-injection delivery paths."""

    def test_on_send_round_node_parts_bits(self):
        part = Part("ping", ("payload",), 6)
        tracer = Tracer()
        net = Network(
            line3(),
            {0: Beacon(part, at=2), 1: SilentNode(), 2: SilentNode()},
            injectors=[tracer],
        )
        net.run(3, stop_on_output=False)
        assert len(tracer.sends) == 1
        event = tracer.sends[0]
        assert event.round == 2
        assert event.node == 0
        assert event.parts == (part,)
        assert event.bits == 6

    def test_on_deliver_fires_one_round_after_send(self):
        part = Part("ping", ("payload",), 6)
        tracer = Tracer()
        net = Network(
            line3(),
            {0: Beacon(part, at=2), 1: SilentNode(), 2: SilentNode()},
            injectors=[tracer],
        )
        net.run(3, stop_on_output=False)
        assert len(tracer.deliveries) == 1
        event = tracer.deliveries[0]
        assert event.round == 3  # sent in 2, delivered in 3
        assert event.sender == 0
        assert event.receiver == 1
        assert event.part is part

    def test_on_crash_fires_in_the_crash_round_only(self):
        tracer = Tracer()
        net = Network(
            line3(),
            {i: SilentNode() for i in range(3)},
            crash_rounds={2: 3, 1: 5},
            injectors=[tracer],
        )
        net.run(6, stop_on_output=False)
        assert tracer.crashes == [(3, 2), (5, 1)]

    def test_no_delivery_to_dead_receiver(self):
        part = Part("ping", (), 4)
        tracer = Tracer()
        net = Network(
            line3(),
            {0: Beacon(part, at=1), 1: SilentNode(), 2: SilentNode()},
            crash_rounds={1: 2},
            injectors=[tracer],
        )
        net.run(2, stop_on_output=False)
        assert tracer.deliveries == []  # only neighbour died before delivery

    def test_hooks_fire_on_scheduled_delivery_path(self):
        from repro.sim.faults import MessageFaults

        part = Part("ping", (), 4)
        tracer = Tracer()
        # All-zero rates: path switches to scheduled delivery, but events
        # must match the exact-model run.
        net = Network(
            line3(),
            {0: Beacon(part, at=1), 1: RelayNode(), 2: SilentNode()},
            injectors=[MessageFaults(seed=0), tracer],
        )
        net.run(3, stop_on_output=False)
        assert [(e.round, e.node) for e in tracer.sends] == [(1, 0), (2, 1)]
        assert (3, 1, 2) in [
            (e.round, e.sender, e.receiver) for e in tracer.deliveries
        ]


class TestTimeline:
    def test_timeline_renders_and_filters(self):
        part = Part("ping", ("x",), 4)
        tracer = Tracer()
        net = Network(
            line3(),
            {0: Beacon(part), 1: RelayNode(), 2: RelayNode()},
            crash_rounds={2: 3},
            injectors=[tracer],
        )
        net.run(4, stop_on_output=False)
        text = tracer.timeline()
        assert "node   0 sends" in text
        assert "CRASHES" in text
        only_node2 = tracer.timeline(node=2)
        assert "node   0" not in only_node2

    def test_timeline_truncates(self):
        part = Part("p", (), 1)

        class Chatty(SilentNode):
            def on_round(self, rnd, inbox):
                return [part]

        tracer = Tracer()
        net = Network(line3(), {i: Chatty() for i in range(3)}, injectors=[tracer])
        net.run(10, stop_on_output=False)
        text = tracer.timeline(limit=5)
        assert "truncated" in text

    def test_timeline_empty(self):
        tracer = Tracer()
        assert "no matching events" in tracer.timeline()
