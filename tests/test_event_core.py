"""The event-driven round core against an every-round reference.

``Network.step`` runs only the nodes with mail or a due wake
(:meth:`repro.sim.node.NodeHandler.next_wake`).  The reference run wraps
every handler in :class:`EveryRound`, a delegate that keeps the default
``rnd + 1`` wake, so the network runs every live node in every round.
It wraps the outermost handler, so under the transport and integrity
overlays it is an every-round reference for the overlays too.  Both runs
must agree on ``SimStats``, every ``Tracer`` send, delivery and crash,
and the outcome.

Also here: the wake contract of each overriding handler, the work
counters the event core exists for (handler calls, BFS calls of the
``c * d`` stretch check), and the one-BFS stretch check's certificate.
"""

import copy
import random
from dataclasses import asdict

import pytest

from repro.adversary import FailureSchedule, random_failures
from repro.analysis.runner import run_protocol
from repro.baselines.bruteforce import BruteForceNode
from repro.core.agg import AggNode, TreeState, run_agg
from repro.core.algorithm1 import IntervalNode, TradeoffPlan
from repro.core.params import ProtocolParams, params_for
from repro.core.unknown_f import DoublingPlan
from repro.core.veri import VeriNode
from repro.families.churn import ChurnSchedule, random_churn
from repro.families.gray import random_gray
from repro.graphs import (
    grid_graph,
    path_graph,
    properties,
    random_geometric,
    random_regular,
)
from repro.graphs.topology import Topology
from repro.obs import spans as obs_spans
from repro.resilience.epochs import ChurnPolicy
from repro.resilience.failover import RecoveryPolicy
from repro.resilience.overlay import overlay_network
from repro.resilience.transport import TransportConfig, TransportNode
from repro.sim import Network, Tracer
from repro.sim.faults import MessageFaults
from repro.sim.message import Part
from repro.sim.node import NodeHandler

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - property tests skip
    given = None


class EveryRound(NodeHandler):
    """Delegates to ``inner`` but keeps the default every-round wake."""

    def __init__(self, inner):
        self.inner = inner

    def on_round(self, rnd, inbox):
        return self.inner.on_round(rnd, inbox)

    def wants_to_stop(self):
        return self.inner.wants_to_stop()

    def __getattr__(self, name):
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)


def _captured(run, every_round):
    """Run ``run()`` with a tracer on every network it builds; with
    ``every_round`` every handler is wrapped in :class:`EveryRound`."""
    tracers = []
    init = Network.__init__

    def traced_init(self, adjacency, handlers, *args, **kwargs):
        if every_round:
            handlers = {u: EveryRound(h) for u, h in handlers.items()}
        tracers.append(Tracer())
        kwargs["injectors"] = [*kwargs.get("injectors", ()), tracers[-1]]
        init(self, adjacency, handlers, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Network, "__init__", traced_init)
        outcome = run()
    return outcome, [(t.sends, t.deliveries, t.crashes) for t in tracers]


TOPOLOGIES = {
    "grid": lambda: grid_graph(4, 4),
    "path": lambda: path_graph(7),
    "geometric": lambda: random_geometric(18, rng=random.Random(3)),
    "regular:12,3": lambda: random_regular(12, 3, rng=random.Random(1)),
}
PROTOCOLS = ("agg", "agg_veri", "bruteforce", "algorithm1", "unknown_f")
FAULTS = ("crashes", "churn", "messages")

FIXED = TransportConfig(retransmits=2)
ADAPTIVE = TransportConfig(retransmits=2, rto="adaptive")
#: ``run_protocol`` overlay arguments, drawn fresh per run from
#: ``(topology, rng)`` (churn and gray schedules keep per-run ledgers).
OVERLAYS = {
    "transport": lambda topo, rng: {"transport": FIXED},
    "adaptive": lambda topo, rng: {"transport": ADAPTIVE},
    "mac": lambda topo, rng: {"integrity": "mac"},
    "transport+mac": lambda topo, rng: {"transport": FIXED, "integrity": "mac"},
    "recovery": lambda topo, rng: {"recovery": RecoveryPolicy(FIXED)},
    "recovery+mac": lambda topo, rng: {
        "recovery": RecoveryPolicy(FIXED),
        "integrity": "mac",
    },
    "churn": lambda topo, rng: {
        "churn": random_churn(
            topo, 0.2, rng, 4 * topo.diameter, root=topo.root
        ),
        "churn_policy": ChurnPolicy(FIXED),
    },
    "gray": lambda topo, rng: {
        "transport": ADAPTIVE,
        "gray": random_gray(topo, 0.3, rng, 20 * topo.diameter, root=topo.root),
    },
    "gray_fixed": lambda topo, rng: {
        "transport": FIXED,
        "gray": random_gray(topo, 0.3, rng, 20 * topo.diameter, root=topo.root),
    },
}


def _runner(protocol, topo, fault, seed, overlay=None):
    """A zero-argument callable running one configuration from scratch;
    ``overlay`` names an :data:`OVERLAYS` entry (``algorithm1`` and
    ``unknown_f`` only)."""
    f = 4
    d = topo.diameter
    horizon = {"algorithm1": 42 * d, "unknown_f": 60 * d}.get(protocol, 12 * d)
    schedule = FailureSchedule()
    if fault == "crashes":
        schedule = random_failures(
            topo, f, random.Random(seed), last_round=horizon, respect_c=2
        )
    victim = topo.non_root_nodes()[seed % (topo.n_nodes - 1)]
    inputs = {u: (u * 7 + seed) % 5 for u in topo.nodes()}

    def injectors():
        if fault == "churn":
            crash = 2 + seed % max(1, horizon // 3)
            cycles = {victim: [(crash, crash + 1 + seed % (2 * d + 3))]}
            return [ChurnSchedule(cycles, root=topo.root)]
        if fault == "messages":
            return [
                MessageFaults(
                    drop=0.05,
                    duplicate=0.05,
                    delay=0.05,
                    seed=seed,
                    protect=[topo.root],
                )
            ]
        return []

    if protocol == "agg":

        def run():
            out = run_agg(topo, inputs, 1, schedule, injectors=injectors())
            states = {u: vars(n.state) for u, n in out.nodes.items()}
            return (out.result, out.aborted, asdict(out.stats), states)

        return run

    kwargs = {"agg_veri": {"t": 1}, "algorithm1": {"f": f, "b": 42}}

    def run():
        overlays = {}
        if overlay is not None:
            overlays = OVERLAYS[overlay](topo, random.Random(seed))
        record = run_protocol(
            protocol,
            topo,
            inputs,
            schedule,
            rng=random.Random(seed),
            strict=False,
            injectors=injectors(),
            **kwargs.get(protocol, {}),
            **overlays,
        )
        return record.as_dict()

    return run


def _assert_equivalent(protocol, topo_name, fault, seed, overlay=None):
    run = _runner(protocol, TOPOLOGIES[topo_name](), fault, seed, overlay)
    expected, expected_events = _captured(run, every_round=True)
    got, got_events = _captured(run, every_round=False)
    assert got == expected
    assert got_events == expected_events
    assert run() == expected  # no tracer attached


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_matches_every_round_reference(protocol, fault):
    _assert_equivalent(protocol, "grid", fault, seed=5)


@pytest.mark.parametrize("overlay", sorted(OVERLAYS))
@pytest.mark.parametrize("protocol", ["algorithm1", "unknown_f"])
def test_overlays_match_every_round_reference(protocol, overlay):
    _assert_equivalent(protocol, "path", "messages", seed=5, overlay=overlay)


@pytest.mark.parametrize("protocol", ["algorithm1", "unknown_f", "agg_veri"])
def test_obs_spans_match_every_round_reference(protocol):
    run = _runner(protocol, TOPOLOGIES["grid"](), "crashes", seed=3)

    def spans_of(every_round):
        tracer = obs_spans.SpanTracer(seed=3, detail="messages")
        obs_spans.activate(tracer)
        try:
            outcome, _events = _captured(run, every_round)
        finally:
            obs_spans.deactivate()
        spans = [
            {k: v for k, v in span.items() if k != "wall_ns"}
            for span in tracer.spans
        ]
        return outcome, spans, tracer.events

    expected = spans_of(every_round=True)
    assert expected[1], "the protocol opened no phase spans"
    assert spans_of(every_round=False) == expected


if given is not None:

    @given(
        protocol=st.sampled_from(PROTOCOLS),
        topo_name=st.sampled_from(sorted(TOPOLOGIES)),
        fault=st.sampled_from(FAULTS),
        seed=st.integers(0, 10_000),
    )
    def test_matches_every_round_reference_property(
        protocol, topo_name, fault, seed
    ):
        _assert_equivalent(protocol, topo_name, fault, seed)

    @settings(max_examples=20)
    @given(
        protocol=st.sampled_from(["algorithm1", "unknown_f"]),
        topo_name=st.sampled_from(sorted(TOPOLOGIES)),
        fault=st.sampled_from(["crashes", "messages"]),
        overlay=st.sampled_from(sorted(OVERLAYS)),
        seed=st.integers(0, 10_000),
    )
    def test_overlays_match_every_round_reference_property(
        protocol, topo_name, fault, overlay, seed
    ):
        _assert_equivalent(protocol, topo_name, fault, seed, overlay)


# --------------------------------------------------------------------- #
# The wake contract of the overriding handlers.
# --------------------------------------------------------------------- #


def _state(obj, depth=0):
    """A comparable snapshot of ``obj``'s attributes, recursively."""
    if depth > 6:
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _state(v, depth + 1) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return (type(obj).__name__, [_state(v, depth + 1) for v in obj])
    if hasattr(obj, "__dict__") and not isinstance(obj, type):
        return (type(obj).__name__, _state(vars(obj), depth + 1))
    return obj


def _network_of(kind, topo, seed):
    """A network of one overriding handler type, with crashes."""
    params = params_for(topo, t=1)
    inputs = {u: u % 3 for u in topo.nodes()}
    schedule = random_failures(
        topo, 3, random.Random(seed), last_round=10 * topo.diameter, respect_c=2
    )
    if kind == "agg":
        nodes = {u: AggNode(params, u, inputs[u]) for u in topo.nodes()}
    elif kind == "veri":
        agg = run_agg(topo, inputs, 1, schedule)
        nodes = {
            u: VeriNode(params, u, agg.nodes[u].state) for u in topo.nodes()
        }
    elif kind == "bruteforce":
        nodes = {u: BruteForceNode(params, u, inputs[u]) for u in topo.nodes()}
    elif kind == "algorithm1":
        plan = TradeoffPlan(params=params_for(topo), b=60, f=3)
        rng = random.Random(seed)
        nodes = {
            u: IntervalNode(plan, u, inputs[u], rng=rng) for u in topo.nodes()
        }
    else:
        plan = DoublingPlan(params=params_for(topo))
        nodes = {u: IntervalNode(plan, u, inputs[u]) for u in topo.nodes()}
    overlays = {
        "transport": {"transport": FIXED},
        "integrity": {"transport": FIXED, "integrity": "mac"},
    }.get(kind)
    if overlays is None:
        return Network(
            topo.adjacency, nodes, schedule.crash_rounds, root=topo.root
        )
    # Drops leave frames missing, so nodes also wake at NACK slots.
    drops = MessageFaults(drop=0.05, seed=seed, protect=[topo.root])
    return overlay_network(
        topo,
        nodes,
        schedule.crash_rounds,
        root=topo.root,
        injectors=[drops],
        **overlays,
    )[0]


@pytest.mark.parametrize(
    "kind",
    [
        "agg",
        "veri",
        "bruteforce",
        "algorithm1",
        "unknown_f",
        "transport",
        "integrity",
    ],
)
def test_empty_round_before_wake_is_a_no_op(kind):
    topo = grid_graph(4, 4)
    net = _network_of(kind, topo, seed=2)
    rng = random.Random(7)
    checked = 0
    while net.round < 400:
        net.step()
        rnd = net.round
        for node in rng.sample(topo.nodes(), 3):
            handler = net.handlers[node]
            wake = handler.next_wake(rnd)
            # A crashed node's state froze before its slots; only a live
            # node's wake describes its current state.
            if not net.is_alive(node, rnd) or (
                wake is not None and wake <= rnd + 1
            ):
                continue
            probe = rng.randint(rnd + 1, (wake or rnd + 60) - 1)
            twin = copy.deepcopy(handler)
            before = _state(twin)
            assert list(twin.on_round(probe, ())) == []
            assert _state(twin) == before, (kind, node, rnd, probe)
            checked += 1
        if net.stop_requested():
            break
    assert checked > 20


class _Slots(NodeHandler):
    """Sends at its own round slots and records every call."""

    def __init__(self, slots):
        self.slots = sorted(slots)
        self.calls = []

    def on_round(self, rnd, inbox):
        self.calls.append((rnd, len(inbox)))
        return [Part("ping", (rnd,), 4)] if rnd in self.slots else []

    def next_wake(self, rnd):
        return next((s for s in self.slots if s > rnd), None)


@pytest.mark.parametrize(
    "outages, revival", [([(4, 9)], 9), ([(4, 9), (7, 12)], 12)]
)
def test_wake_inside_downtime_runs_at_revival(outages, revival):
    topo = path_graph(3)
    nodes = {0: _Slots([]), 1: _Slots([5]), 2: _Slots([])}
    net = Network(topo.adjacency, nodes, root=0)
    for start, end in outages:
        net.schedule_downtime(1, start, end)
    net.run(15, stop_on_output=False)
    assert nodes[1].calls == [(revival, 0)]
    assert net.stats.broadcasts == {}


def test_mail_only_handler_still_runs_on_mail():
    topo = path_graph(3)
    nodes = {0: _Slots([3]), 1: _Slots([]), 2: _Slots([])}
    net = Network(topo.adjacency, nodes, root=0)
    net.run(6, stop_on_output=False)
    assert nodes[1].next_wake(0) is None
    assert nodes[1].calls == [(4, 1)]
    assert nodes[2].calls == []


def test_default_handlers_mixed_in_run_every_round():
    topo = path_graph(3)
    nodes = {0: _Slots([2]), 1: _Slots([]), 2: EveryRound(_Slots([]))}
    net = Network(topo.adjacency, nodes, root=0)
    net.run(5, stop_on_output=False)
    assert [r for r, _ in nodes[2].inner.calls] == [1, 2, 3, 4, 5]
    assert nodes[1].calls == [(3, 1)]


# --------------------------------------------------------------------- #
# Wakes against the list-and-min formulas they replaced.
# --------------------------------------------------------------------- #


def _ref_agg_slots(node):
    st, spans, cd = node.state, node.spans, node.p.cd
    slots = [spans[0][0]] if node.is_root else []
    if node._pending_tree_construct is not None:
        slots.append(node._pending_tree_construct)
    if st.activated:
        if st.level <= cd:
            slots.append(spans[1][0] + cd - st.level)
            if st.max_level < st.level:
                slots.append(spans[1][0])
        slots += (spans[2][0] + st.level, spans[3][0])
    return slots


def _ref_veri_slots(node):
    st, spans, cd = node.state, node.spans, node.p.cd
    slots = [spans[0][0]] if node.is_root else []
    if st.activated:
        if st.level <= cd:
            slots += (spans[0][0] + st.level, spans[1][0] + cd - st.level)
        # The LFC round judges failed-parent claims, so it needs one.
        if node.failed_parent_claims:
            slots.append(spans[2][0])
    return slots


def _ref_wake(node, rnd):
    """Every wake as a list of candidates and a ``min`` over the later
    ones, as the handlers computed it before their running minimum."""
    if isinstance(node, BruteForceNode):
        if not node.is_root:
            return None
        rel = rnd - node.start_round + 1
        later = [slot for slot in (1, 2 * node.p.cd) if slot > rel]
        return node.start_round - 1 + min(later) if later else None
    if isinstance(node, (AggNode, VeriNode)):
        base = node.start_round - 1
        rel = rnd - base
        last = node.last_round
        if rel >= last:
            return None
        if obs_spans.enabled and node.is_root:
            return base + max(rel, 0) + 1
        slots = [last] if node.is_root else []
        if not node.aborted:
            ref = _ref_agg_slots if isinstance(node, AggNode) else _ref_veri_slots
            slots += ref(node)
        later = [slot for slot in slots if slot > rel]
        return base + min(later) if later else None
    plan = node.plan
    last = plan.total_rounds
    if node.done or rnd >= last:
        return None
    span = plan.interval_rounds
    wakes = []
    nxt = (rnd - 1) // span + 1
    if nxt < plan.n_intervals:
        wakes.append(nxt * span + 1)
    if node._agg is not None:
        handoff = node._agg.last_round
        wakes.append(handoff + 1 + span * max(0, -((handoff - rnd) // span)))
    if node._bf is None:
        wakes.append(plan.bruteforce_start)
    # The live phase (VERI once armed, else AGG) and brute force.
    phase = node._agg if node._veri is None else node._veri
    for child in (phase, node._bf):
        if child is not None:
            wakes.append(_ref_wake(child, rnd))
    wake = min((w for w in wakes if w is not None and w > rnd), default=None)
    return wake if wake is not None and wake <= last else None


if given is not None:

    def _tree_state(data, cd):
        state = TreeState(activated=data.draw(st.booleans()))
        if state.activated:
            level = state.level = data.draw(
                st.integers(0, cd) | st.integers(0, 3 * cd)
            )
            state.max_level = data.draw(
                st.sampled_from([-1, level - 1, level, level + 1])
            )
        return state

    def _drawn_node(data, plan, root):
        """An interval handler in a drawn state: done or not, with each
        child armed or not and, when armed, in a drawn state."""
        params = plan.params
        node_id = params.root if root else params.root + 1
        node = IntervalNode(plan, node_id, 3, rng=random.Random(0))
        node.done = data.draw(st.booleans())
        last = plan.total_rounds
        t = data.draw(st.integers(0, 4))
        if data.draw(st.booleans()):
            agg = AggNode(
                params.with_t(t), node_id, 3,
                start_round=data.draw(st.integers(1, last)),
            )
            agg.state = _tree_state(data, params.cd)
            agg.aborted = data.draw(st.booleans())
            agg._pending_tree_construct = data.draw(
                st.none() | st.integers(1, agg.last_round)
            )
            node._agg = agg
        if data.draw(st.booleans()):
            veri = VeriNode(
                params.with_t(t), node_id, _tree_state(data, params.cd),
                start_round=data.draw(st.integers(1, last)),
            )
            veri.aborted = data.draw(st.booleans())
            if data.draw(st.booleans()):
                veri.failed_parent_claims.add((node_id + 1, 1, node_id + 2))
            node._veri = veri
        if data.draw(st.booleans()):
            node._bf = BruteForceNode(
                params, node_id, 3, start_round=data.draw(st.integers(1, last))
            )
        return node

    @settings(max_examples=1000, deadline=None)
    @given(
        data=st.data(),
        c=st.integers(1, 3),
        d=st.integers(1, 6),
        n=st.integers(2, 70),
        doubling=st.booleans(),
        root=st.booleans(),
        spans_on=st.booleans(),
    )
    def test_wakes_equal_the_list_and_min_reference(
        data, c, d, n, doubling, root, spans_on
    ):
        params = ProtocolParams(n_nodes=n, root=0, diameter=d, c=c)
        if doubling:
            plan = DoublingPlan(params=params)
        else:
            b = data.draw(st.integers(21 * c, 50 * c), label="b")
            f = data.draw(st.integers(1, 2 * n), label="f")
            plan = TradeoffPlan(params=params, b=b, f=f)
        node = _drawn_node(data, plan, root)
        saved = obs_spans.enabled
        obs_spans.enabled = spans_on
        try:
            for rnd in range(plan.total_rounds + 2):
                assert node.next_wake(rnd) == _ref_wake(node, rnd), rnd
                for child in (node._agg, node._veri, node._bf):
                    if child is not None:
                        assert child.next_wake(rnd) == _ref_wake(child, rnd)
        finally:
            obs_spans.enabled = saved


# --------------------------------------------------------------------- #
# Work counters and the stretch-check certificate.
# --------------------------------------------------------------------- #


def test_algorithm1_handler_calls_are_a_small_fraction(monkeypatch):
    topo = grid_graph(10, 10)
    calls = [0]
    on_round = IntervalNode.on_round

    def counted(self, rnd, inbox):
        calls[0] += 1
        return on_round(self, rnd, inbox)

    monkeypatch.setattr(IntervalNode, "on_round", counted)
    schedule = random_failures(
        topo, 8, random.Random(0), last_round=90 * topo.diameter, respect_c=2
    )
    record = run_protocol(
        "algorithm1",
        topo,
        {u: 1 for u in topo.nodes()},
        schedule,
        f=8,
        b=90,
        rng=random.Random(0),
    )
    assert record.correct
    assert calls[0] <= 0.10 * topo.n_nodes * record.rounds


def _count_calls(monkeypatch, classes):
    """Count the ``on_round`` calls of ``classes`` (a network's top-level
    handlers) and the idle ones among them: empty inbox, nothing sent."""
    counts = {"calls": 0, "idle": 0}
    for cls in classes:

        def counted(self, rnd, inbox, _on_round=vars(cls)["on_round"]):
            out = _on_round(self, rnd, inbox)
            counts["calls"] += 1
            counts["idle"] += not inbox and not out
            return out

        monkeypatch.setattr(cls, "on_round", counted)
    return counts


@pytest.mark.parametrize(
    "protocol, expected",
    [
        ("algorithm1", {"calls": 3263, "idle": 444}),
        ("agg_veri", {"calls": 2138, "idle": 196}),
    ],
)
def test_handler_and_idle_calls_are_pinned(monkeypatch, protocol, expected):
    """The exact work of two fixed runs, so a wake that comes back fails
    here: Algorithm 1 as above, and one AGG + VERI pair whose VERI nodes
    without a failed-parent claim skip the LFC round."""
    topo = grid_graph(10, 10)
    inputs = {u: 1 for u in topo.nodes()}
    if protocol == "algorithm1":
        counts = _count_calls(monkeypatch, [IntervalNode])
        schedule = random_failures(
            topo, 8, random.Random(0), last_round=90 * topo.diameter,
            respect_c=2,
        )
        record = run_protocol(
            protocol, topo, inputs, schedule, f=8, b=90, rng=random.Random(0)
        )
    else:
        counts = _count_calls(monkeypatch, [AggNode, VeriNode])
        schedule = random_failures(
            topo, 4, random.Random(1), last_round=40 * topo.diameter,
            respect_c=2,
        )
        record = run_protocol(protocol, topo, inputs, schedule, t=2)
    assert record.correct
    assert counts == expected


@pytest.mark.parametrize("protocol", ["algorithm1", "unknown_f"])
def test_no_agg_round_lands_after_its_last_round(monkeypatch, protocol):
    """Once an interval's AGG hands over to VERI it is finished: the
    handler dispatches to VERI alone, never to the spent AGG."""
    topo = grid_graph(8, 8)
    late, calls = [], [0]
    on_round = AggNode.on_round

    def checked(self, rnd, inbox):
        calls[0] += 1
        if rnd - self.start_round + 1 > self.last_round:
            late.append(rnd)
        return on_round(self, rnd, inbox)

    monkeypatch.setattr(AggNode, "on_round", checked)
    for seed in range(3):
        schedule = random_failures(
            topo, 6, random.Random(seed), last_round=60 * topo.diameter,
            respect_c=2,
        )
        record = run_protocol(
            protocol,
            topo,
            {u: 1 for u in topo.nodes()},
            schedule,
            f=6,
            b=60,
            rng=random.Random(seed),
        )
        assert record.correct
    assert calls[0] > 0
    assert late == []


def test_overlay_handler_calls_are_a_small_fraction(monkeypatch):
    """Under transport + MAC frames the network steps only the rounds with
    a wake or a due copy, the transport runs only at its window starts and
    NACK slots, and the protocol inside runs only on mail or its wakes."""
    topo = grid_graph(5, 5)
    calls = {"transport": 0, "inner": 0, "steps": 0}
    on_round, inner_on_round = TransportNode.on_round, IntervalNode.on_round
    step = Network.step

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(TransportNode, "on_round", counted("transport", on_round))
    monkeypatch.setattr(IntervalNode, "on_round", counted("inner", inner_on_round))
    monkeypatch.setattr(Network, "step", counted("steps", step))
    policy = RecoveryPolicy.default()
    record = run_protocol(
        "unknown_f",
        topo,
        {u: 1 for u in topo.nodes()},
        injectors=[MessageFaults(drop=0.01, seed=0, protect=[topo.root])],
        rng=random.Random(0),
        recovery=policy,
        integrity="mac",
    )
    assert record.correct
    logical_rounds = record.rounds // policy.transport.window
    assert calls["transport"] <= 0.20 * topo.n_nodes * record.rounds
    assert calls["steps"] <= 0.20 * record.rounds
    assert calls["inner"] <= 0.15 * topo.n_nodes * logical_rounds


def test_stretch_check_needs_few_bfs(monkeypatch):
    topo = grid_graph(20, 20)
    topo.diameter  # the N-BFS diameter is set-up, not the check
    calls = [0]
    bfs = properties.bfs_levels

    def counted(*args, **kwargs):
        calls[0] += 1
        return bfs(*args, **kwargs)

    monkeypatch.setattr(properties, "bfs_levels", counted)
    schedule = random_failures(
        topo, 8, random.Random(0), last_round=90 * topo.diameter, respect_c=2
    )
    assert len(schedule) > 0
    assert calls[0] <= 50


def test_stretch_check_rejects_root_and_tiny_bounds():
    topo = path_graph(4)
    with pytest.raises(ValueError):
        topo.remaining_diameter_at_most({0}, 5)
    assert not topo.remaining_diameter_at_most(set(), 0)


if given is not None:

    @st.composite
    def _graph_and_failures(draw):
        n = draw(st.integers(2, 14))
        rng = random.Random(draw(st.integers(0, 10_000)))
        adjacency = {u: set() for u in range(n)}
        for v in range(1, n):  # a random spanning tree keeps it connected
            u = rng.randrange(v)
            adjacency[u].add(v)
            adjacency[v].add(u)
        for _ in range(draw(st.integers(0, 2 * n))):
            u, v = rng.sample(range(n), 2)
            adjacency[u].add(v)
            adjacency[v].add(u)
        topo = Topology({u: sorted(vs) for u, vs in adjacency.items()})
        failed = draw(st.sets(st.integers(1, n - 1), max_size=n - 1))
        bound = draw(st.integers(1, 2 * topo.diameter + 2))
        return topo, failed, bound

    @given(_graph_and_failures())
    def test_stretch_check_certificate(case):
        topo, failed, bound = case
        assert topo.remaining_diameter_at_most(failed, bound) == (
            topo.remaining_diameter(failed) <= bound
        )
