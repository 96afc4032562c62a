"""Unit tests for the synchronous network: delivery, crashes, accounting."""

from typing import List, Sequence

import pytest

from repro.sim.message import Envelope, Part
from repro.sim.network import Network
from repro.sim.node import NodeHandler
from tests.conftest import RelayNode, SilentNode


class Beacon(NodeHandler):
    """Sends one fixed part every round; records everything received."""

    def __init__(self, part: Part, rounds=None):
        self.part = part
        self.rounds = rounds
        self.received: List[Envelope] = []
        self.seen_rounds: List[int] = []

    def on_round(self, rnd: int, inbox: Sequence[Envelope]):
        self.received.extend(inbox)
        self.seen_rounds.append(rnd)
        if self.rounds is None or rnd in self.rounds:
            return [self.part]
        return []


def line3():
    return {0: [1], 1: [0, 2], 2: [1]}


class TestDelivery:
    def test_message_arrives_next_round(self):
        part = Part("ping", (), 4)
        nodes = {0: Beacon(part, rounds={1}), 1: RelayNode(), 2: RelayNode()}
        net = Network(line3(), nodes)
        net.step()
        assert nodes[1].received == []  # nothing in flight yet at round 1
        net.step()
        assert [p for e in nodes[1].received for p in e.parts] == [part]

    def test_local_broadcast_reaches_all_neighbours(self):
        part = Part("ping", (), 4)
        adj = {0: [1, 2, 3], 1: [0], 2: [0], 3: [0]}
        nodes = {0: Beacon(part, rounds={1})}
        nodes.update({i: RelayNode() for i in (1, 2, 3)})
        net = Network(adj, nodes)
        net.step()
        net.step()
        for i in (1, 2, 3):
            assert [p for e in nodes[i].received for p in e.parts] == [part]

    def test_non_neighbours_do_not_receive_directly(self):
        part = Part("ping", (), 4)
        nodes = {0: Beacon(part, rounds={1}), 1: SilentNode(), 2: RelayNode()}
        net = Network(line3(), nodes)
        net.step()
        net.step()
        net.step()
        assert nodes[2].received == []  # node 1 stayed silent

    def test_relay_forwards_exactly_once(self):
        part = Part("ping", (), 4)
        nodes = {0: Beacon(part, rounds={1, 2}), 1: RelayNode(), 2: RelayNode()}
        net = Network(line3(), nodes)
        for _ in range(4):
            net.step()
        # Node 2 received the single forwarded copy despite two sends by 0.
        assert [p for e in nodes[2].received for p in e.parts] == [part]

    def test_sender_does_not_receive_own_broadcast(self):
        part = Part("ping", (), 4)
        nodes = {0: Beacon(part, rounds={1}), 1: SilentNode(), 2: SilentNode()}
        net = Network(line3(), nodes)
        net.step()
        net.step()
        assert nodes[0].received == []

    def test_missing_handler_rejected(self):
        with pytest.raises(ValueError):
            Network(line3(), {0: SilentNode()})


class TestCrashSemantics:
    def test_crashed_node_does_not_send(self):
        part = Part("ping", (), 4)
        nodes = {0: Beacon(part), 1: RelayNode(), 2: RelayNode()}
        net = Network(line3(), nodes, crash_rounds={0: 1})
        for _ in range(3):
            net.step()
        assert nodes[1].received == []

    def test_message_sent_before_crash_is_delivered(self):
        part = Part("ping", (), 4)
        nodes = {0: Beacon(part, rounds={1}), 1: RelayNode(), 2: RelayNode()}
        net = Network(line3(), nodes, crash_rounds={0: 2})
        net.step()  # round 1: node 0 sends, then dies at round 2
        net.step()  # round 2: delivery still happens
        assert [p for e in nodes[1].received for p in e.parts] == [part]

    def test_crashed_node_does_not_receive(self):
        part = Part("ping", (), 4)
        nodes = {0: Beacon(part, rounds={1}), 1: RelayNode(), 2: RelayNode()}
        net = Network(line3(), nodes, crash_rounds={1: 2})
        net.step()
        net.step()
        assert nodes[1].received == []

    def test_crash_blocks_forwarding_path(self):
        part = Part("ping", (), 4)
        nodes = {0: Beacon(part, rounds={1}), 1: RelayNode(), 2: RelayNode()}
        net = Network(line3(), nodes, crash_rounds={1: 1})
        for _ in range(4):
            net.step()
        assert nodes[2].received == []

    def test_is_alive_and_alive_nodes(self):
        net = Network(line3(), {i: SilentNode() for i in range(3)}, {1: 3})
        assert net.is_alive(1, 2)
        assert not net.is_alive(1, 3)
        net.round = 5
        assert net.alive_nodes() == [0, 2]


class TestAdjacencyValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop at node 1"):
            Network({0: [1], 1: [0, 1]}, {0: SilentNode(), 1: SilentNode()})

    def test_unknown_neighbour_rejected(self):
        with pytest.raises(ValueError, match="unknown neighbour 9"):
            Network({0: [1, 9], 1: [0]}, {0: SilentNode(), 1: SilentNode()})

    def test_asymmetry_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            Network(
                {0: [1], 1: [0, 2], 2: []},
                {i: SilentNode() for i in range(3)},
            )

    def test_missing_handler_rejected(self):
        with pytest.raises(ValueError, match="no handler"):
            Network(line3(), {0: SilentNode()})

    def test_valid_graph_accepted(self):
        Network(line3(), {i: SilentNode() for i in range(3)})


class TestRunArguments:
    def test_negative_max_rounds_rejected(self):
        net = Network(line3(), {i: SilentNode() for i in range(3)})
        with pytest.raises(ValueError, match="max_rounds"):
            net.run(-1)

    def test_zero_max_rounds_executes_nothing(self):
        net = Network(line3(), {i: SilentNode() for i in range(3)})
        stats = net.run(0, stop_on_output=False)
        assert stats.rounds_executed == 0
        assert net.round == 0

    def test_schedule_crash_rejects_unknown_node(self):
        net = Network(line3(), {i: SilentNode() for i in range(3)})
        with pytest.raises(ValueError, match="unknown node"):
            net.schedule_crash(9, 2)

    def test_schedule_crash_rejects_executed_rounds(self):
        net = Network(line3(), {i: SilentNode() for i in range(3)})
        net.step()
        with pytest.raises(ValueError, match="already executed"):
            net.schedule_crash(1, 1)

    def test_schedule_crash_keeps_earliest_round(self):
        net = Network(line3(), {i: SilentNode() for i in range(3)})
        net.schedule_crash(1, 5)
        net.schedule_crash(1, 8)
        assert net.crash_rounds[1] == 5


class TestFloodingRoundsEdgeCases:
    def test_zero_rounds_executed_is_zero(self):
        net = Network(line3(), {i: SilentNode() for i in range(3)})
        stats = net.run(0, stop_on_output=False)
        assert stats.flooding_rounds(3) == 0

    def test_diameter_one_counts_every_round(self):
        adj = {0: [1], 1: [0]}  # complete graph on 2 nodes: d = 1
        net = Network(adj, {0: SilentNode(), 1: SilentNode()})
        stats = net.run(5, stop_on_output=False)
        assert stats.flooding_rounds(1) == 5

    def test_exact_multiple_has_no_remainder(self):
        net = Network(line3(), {i: SilentNode() for i in range(3)})
        stats = net.run(6, stop_on_output=False)
        assert stats.flooding_rounds(3) == 2

    def test_invalid_diameter_rejected(self):
        net = Network(line3(), {i: SilentNode() for i in range(3)})
        stats = net.run(1, stop_on_output=False)
        with pytest.raises(ValueError):
            stats.flooding_rounds(0)


class TestAccounting:
    def test_bits_and_parts_counted(self):
        part = Part("ping", (), 9)
        nodes = {0: Beacon(part, rounds={1, 2}), 1: SilentNode(), 2: SilentNode()}
        net = Network(line3(), nodes)
        net.step()
        net.step()
        assert net.stats.bits_of(0) == 18
        assert net.stats.parts_sent[0] == 2
        assert net.stats.broadcasts[0] == 2

    def test_silent_node_costs_nothing(self):
        nodes = {i: SilentNode() for i in range(3)}
        net = Network(line3(), nodes)
        net.run(5, stop_on_output=False)
        assert net.stats.total_bits == 0
        assert net.stats.rounds_executed == 5

    def test_max_bits_is_bottleneck(self):
        a, b = Part("a", (), 3), Part("b", (), 30)
        nodes = {
            0: Beacon(a, rounds={1}),
            1: Beacon(b, rounds={1}),
            2: SilentNode(),
        }
        net = Network(line3(), nodes)
        net.run(2, stop_on_output=False)
        assert net.stats.max_bits == 30

    def test_flooding_rounds_rounds_up(self):
        nodes = {i: SilentNode() for i in range(3)}
        net = Network(line3(), nodes)
        stats = net.run(7, stop_on_output=False)
        assert stats.flooding_rounds(3) == 3

    def test_top_senders_ranked(self):
        a, b = Part("a", (), 3), Part("b", (), 30)
        nodes = {
            0: Beacon(a, rounds={1}),
            1: Beacon(b, rounds={1}),
            2: SilentNode(),
        }
        net = Network(line3(), nodes)
        net.run(2, stop_on_output=False)
        assert net.stats.top_senders(1) == [(1, 30)]


class TestStopOnOutput:
    def test_stops_when_handler_done(self):
        class Stopper(SilentNode):
            def __init__(self, at):
                self.at = at
                self.rnd = 0

            def on_round(self, rnd, inbox):
                self.rnd = rnd
                return []

            def wants_to_stop(self):
                return self.rnd >= self.at

        nodes = {0: Stopper(3), 1: SilentNode(), 2: SilentNode()}
        net = Network(line3(), nodes)
        stats = net.run(10, stop_on_output=True)
        assert stats.rounds_executed == 3

    def test_stop_disabled_runs_to_budget(self):
        nodes = {i: SilentNode() for i in range(3)}
        net = Network(line3(), nodes)
        stats = net.run(10, stop_on_output=False)
        assert stats.rounds_executed == 10
