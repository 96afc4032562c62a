"""The exact-model delivery contract, against a naive reference.

``Network._deliver_exact`` delivers one envelope per broadcast, shared by
all its receivers, and checks each receiver's liveness once per round.
The reference below builds one ``(sender, part)`` copy per (receiver,
part) and asks ``is_alive`` per edge, as the model reads (Section 2):
every live neighbour of a sender gets its round ``r - 1`` broadcast in
round ``r``, in broadcast order, unless the link is flapped.  Inboxes are
compared as flattened ``(sender, part)`` sequences.  The scheduled-delivery
path, taken under a pass-through delivery injector, delivers one
single-part envelope per copy and must agree with it.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs import Topology, random_geometric
from repro.sim.faults import MessageFaults
from repro.sim.message import Envelope, Part
from repro.sim.network import Network
from repro.sim.node import NodeHandler
from repro.sim.trace import Tracer

ROUNDS = 8


def flat(inbox: Sequence[Envelope]) -> List[tuple]:
    """An inbox as its ``(sender, part)`` copies, in delivery order."""
    return [(env.sender, part) for env in inbox for part in env.parts]


class Chatter(NodeHandler):
    """Broadcasts 0-3 seeded parts per round; records its inboxes as
    flattened ``(sender, part)`` copies."""

    def __init__(self, node: int, seed: int) -> None:
        self.node = node
        self.seed = seed
        self.inboxes: Dict[int, list] = {}

    def on_round(self, rnd: int, inbox: Sequence[Envelope]):
        self.inboxes[rnd] = flat(inbox)
        rng = random.Random(self.seed * 1_000_003 + self.node * 1009 + rnd)
        return [
            Part(rng.choice("abc"), (self.node, rnd, i), rng.randint(1, 9))
            for i in range(rng.randint(0, 3))
        ]


def reference_deliver(net: Network, in_flight, rnd: int, tracer: Tracer):
    """One ``(sender, part)`` copy and one liveness check per (receiver,
    part)."""
    inboxes: Dict[int, List[tuple]] = {}
    for sender, parts in in_flight:
        for receiver in net.adjacency[sender]:
            if not net.link_up(sender, receiver, rnd):
                continue
            for part in parts:
                if net.is_alive(receiver, rnd):
                    inboxes.setdefault(receiver, []).append((sender, part))
                    tracer.on_deliver(rnd, sender, receiver, part)
    return inboxes


def _topology(draw) -> Topology:
    seed = draw(st.integers(0, 2**30))
    if draw(st.booleans()):
        n = draw(st.integers(6, 40))
        return random_geometric(
            n, radius=draw(st.sampled_from([0.3, 0.5, 0.8])),
            rng=random.Random(seed),
        )
    n = draw(st.integers(3, 16))
    rng = random.Random(seed)
    adjacency = {u: [] for u in range(n)}
    for u in range(1, n):
        v = rng.randrange(u)
        adjacency[u].append(v)
        adjacency[v].append(u)
    for _ in range(draw(st.integers(0, 2 * n))):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and v not in adjacency[u]:
            adjacency[u].append(v)
            adjacency[v].append(u)
    return Topology(adjacency, name=f"hyp({n})")


@st.composite
def scenarios(draw):
    topology = _topology(draw)
    nodes = sorted(topology.adjacency)
    rng = random.Random(draw(st.integers(0, 2**30)))
    crashes = {
        u: rng.randint(1, ROUNDS)
        for u in rng.sample(nodes, rng.randint(0, len(nodes) // 2))
    }
    downtimes = []
    for u in rng.sample(nodes, rng.randint(0, len(nodes) // 4)):
        start = rng.randint(1, ROUNDS)
        downtimes.append((u, start, start + rng.randint(1, 3)))
    edges = sorted(
        (u, v) for u in nodes for v in topology.adjacency[u] if u < v
    )
    flaps = []
    for u, v in rng.sample(edges, rng.randint(0, len(edges) // 3)):
        start = rng.randint(1, ROUNDS)
        flaps.append((u, v, start, start + rng.randint(0, 2)))
    seed = draw(st.integers(0, 2**16))
    return topology, crashes, downtimes, flaps, seed


def _network(topology, crashes, downtimes, flaps, seed, faults=()):
    handlers = {u: Chatter(u, seed) for u in topology.adjacency}
    tracer = Tracer()
    net = Network(
        topology.adjacency,
        handlers,
        crash_rounds=crashes,
        injectors=[*faults, tracer],
    )
    for u, start, end in downtimes:
        net.schedule_downtime(u, start, end)
    for u, v, start, end in flaps:
        net.schedule_link_flap(u, v, start, end)
    return net, tracer


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_exact_delivery_matches_reference(scenario):
    net, tracer = _network(*scenario)
    reference_tracer = Tracer()
    deliver = net._deliver_exact

    def checked(rnd):
        in_flight = list(net._in_flight)
        expected = reference_deliver(net, in_flight, rnd, reference_tracer)
        inboxes = deliver(rnd)
        assert {u: flat(box) for u, box in inboxes.items()} == expected
        assert list(inboxes) == list(expected)
        # One envelope per broadcast, the same object in every inbox.
        shared: Dict[int, Envelope] = {}
        for box in inboxes.values():
            assert len({env.sender for env in box}) == len(box)
            for env in box:
                assert shared.setdefault(env.sender, env) is env
        for sender, parts in in_flight:
            if sender in shared:
                assert shared[sender].parts == tuple(parts)
        # Each receiver owns its inbox list: mutating one leaves the rest.
        assert len({id(box) for box in inboxes.values()}) == len(inboxes)
        for receiver, box in inboxes.items():
            box.append(Envelope(-1, (Part("mutation", (), 0),)))
            for other, other_box in inboxes.items():
                if other != receiver:
                    assert flat(other_box) == expected[other]
            box.pop()
        # A node crashing at ``rnd`` receives nothing in ``rnd``; its
        # round ``rnd - 1`` broadcast is still delivered.
        for node, crash_round in net.crash_rounds.items():
            if crash_round == rnd:
                assert node not in inboxes
        for sender, parts in in_flight:
            if net.crash_rounds.get(sender) == rnd:
                for receiver in net.adjacency[sender]:
                    if net.is_alive(receiver, rnd) and net.link_up(
                        sender, receiver, rnd
                    ):
                        got = [
                            part
                            for s, part in flat(inboxes[receiver])
                            if s == sender
                        ]
                        assert got == list(parts)
        return inboxes

    net._deliver_exact = checked
    for _ in range(ROUNDS):
        net.step()
    assert tracer.deliveries == reference_tracer.deliveries


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_scheduled_delivery_matches_exact(scenario):
    """A pass-through delivery injector moves the run onto the scheduled
    path; its events, inboxes and stats must equal the exact path's."""
    runs = []
    for faults in ((), (MessageFaults(seed=0),)):
        net, tracer = _network(*scenario, faults=faults)
        assert bool(net._delivery_injectors) == bool(faults)
        for _ in range(ROUNDS):
            net.step()
        inboxes = {u: h.inboxes for u, h in net.handlers.items()}
        runs.append(
            (tracer.sends, tracer.deliveries, tracer.crashes, inboxes, net.stats)
        )
    assert runs[0] == runs[1]


class Speaker(Chatter):
    """Broadcasts one part every round."""

    def on_round(self, rnd: int, inbox: Sequence[Envelope]):
        self.inboxes[rnd] = flat(inbox)
        return [Part("a", (self.node, rnd), 3)]


def test_crashing_node_receives_nothing_but_its_last_broadcast_lands():
    line = {0: [1], 1: [0, 2], 2: [1]}
    handlers = {u: Speaker(u, 0) for u in line}
    tracer = Tracer()
    net = Network(line, handlers, crash_rounds={1: 3}, injectors=[tracer])
    for _ in range(4):
        net.step()
    assert 3 not in handlers[1].inboxes
    landed = [
        (e.receiver, e.part.payload)
        for e in tracer.deliveries
        if e.round == 3 and e.sender == 1
    ]
    assert landed == [(0, (1, 2)), (2, (1, 2))]
    assert not any(
        e.round == 3 and e.receiver == 1 for e in tracer.deliveries
    )


class Keeper(NodeHandler):
    """Node 0 broadcasts three parts in round 1; everyone keeps its raw
    inboxes."""

    def __init__(self, node: int) -> None:
        self.node = node
        self.inboxes: Dict[int, list] = {}

    def on_round(self, rnd: int, inbox: Sequence[Envelope]):
        self.inboxes[rnd] = list(inbox)
        if self.node == 0 and rnd == 1:
            return [Part("a", (i,), 2) for i in range(3)]
        return []


def test_each_live_neighbour_gets_the_same_envelope_once():
    star = {0: [1, 2, 3, 4], 1: [0], 2: [0], 3: [0], 4: [0]}
    handlers = {u: Keeper(u) for u in star}
    net = Network(star, handlers, crash_rounds={4: 2})
    net.run(2, stop_on_output=False)
    boxes = [handlers[u].inboxes[2] for u in (1, 2, 3)]
    assert [len(box) for box in boxes] == [1, 1, 1]
    (envelope,) = boxes[0]
    assert all(box[0] is envelope for box in boxes)
    assert envelope.sender == 0
    assert envelope.parts == tuple(Part("a", (i,), 2) for i in range(3))
    assert 2 not in handlers[4].inboxes


def test_scheduled_path_delivers_one_single_part_envelope_per_copy():
    star = {0: [1, 2], 1: [0], 2: [0]}
    handlers = {u: Keeper(u) for u in star}
    net = Network(star, handlers, injectors=[MessageFaults(seed=0)])
    net.run(2, stop_on_output=False)
    for u in (1, 2):
        box = handlers[u].inboxes[2]
        assert [env.parts for env in box] == [
            (Part("a", (i,), 2),) for i in range(3)
        ]
        assert {env.sender for env in box} == {0}
