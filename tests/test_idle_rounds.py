"""Idle-round jumps and the transport's shortcuts against an every-round
reference.

``Network.run`` jumps the rounds with nothing in flight, no wake, no due
copy and no root death when no injector observes rounds;
``TransportNode`` calls its inner protocol only on mail or at the inner
handler's wake; ``TransportNode._absorb`` skips the shape checks for the
frame payload its sender built.  The reference run undoes all three: a
no-op ``end_round`` injector (:class:`EveryRoundObserver`) makes the
network step every round, every inner handler of the transport is wrapped
in :class:`DefaultWake`, and the transport's record of built frames
(:class:`NothingBuilt`) never vouches for a copy.  Both runs must agree
on the outcome, every ``SimStats`` field, the transport and integrity
``counters()``, the transport gaps and every monitor violation with its
round.  The case space is the one of ``tests/test_scheduled_delivery.py``
(drops, duplicates, delays, reorders, corruption, crashes, churn and
link flaps, with and without the overlays), plus recovery runs whose root
may crash.

Also here: fast-path and full-path ``_absorb`` verdicts agree on every
frame copy, tampered copies included.
"""

import random
from dataclasses import asdict

import pytest

from repro.adversary import FailureSchedule
from repro.analysis.runner import make_inputs, run_protocol
from repro.families.churn import ChurnSchedule
from repro.graphs import grid_graph, path_graph
from repro.integrity.frames import IntegrityConfig, IntegrityCoordinator
from repro.resilience.failover import RecoveryPolicy
from repro.resilience.transport import (
    FRAME_KIND,
    ReliableTransport,
    TransportConfig,
    TransportNode,
    well_formed_frame,
)
from repro.sim import Network
from repro.sim.faults import FaultInjector, MessageCorruption, MessageFaults
from repro.sim.message import Envelope, Part
from repro.cli import main
from repro.sim.monitors import (
    CorruptionOracleMonitor,
    InvariantViolation,
    OracleMonitor,
    RecoverySafetyMonitor,
    RootSafetyMonitor,
)
from repro.sim.node import NodeHandler

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - property tests skip
    given = None

FIXED = TransportConfig(retransmits=2)


class EveryRoundObserver(FaultInjector):
    """Observes every round and does nothing: ``Network.run`` then steps
    every round."""

    def end_round(self, rnd):
        pass


class DefaultWake(NodeHandler):
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


class NothingBuilt(dict):
    """A record of built frames that vouches for no copy, so every frame
    takes the full shape check."""

    def get(self, key, default=None):
        return default


class Observed:
    """Everything one run builds: networks, transports, coordinators."""

    def __init__(self):
        self.networks, self.transports, self.coordinators = [], [], []
        self.steps = 0

    def patch(self, mp, reference):
        observed = self
        init, step = Network.__init__, Network.step
        wrap_transport = ReliableTransport.wrap
        wrap_integrity = IntegrityCoordinator.wrap

        def network_init(self, adjacency, handlers, *args, **kwargs):
            if reference:
                kwargs["injectors"] = [
                    *kwargs.get("injectors", ()), EveryRoundObserver()
                ]
            init(self, adjacency, handlers, *args, **kwargs)
            observed.networks.append(self)

        def counted_step(self):
            observed.steps += 1
            step(self)

        def transport_wrap(self, handlers, adjacency):
            if self not in observed.transports:
                observed.transports.append(self)
            if reference:
                self.built = NothingBuilt()
                handlers = {u: DefaultWake(h) for u, h in handlers.items()}
            return wrap_transport(self, handlers, adjacency)

        def integrity_wrap(self, handlers):
            if self not in observed.coordinators:
                observed.coordinators.append(self)
            return wrap_integrity(self, handlers)

        mp.setattr(Network, "__init__", network_init)
        mp.setattr(Network, "step", counted_step)
        mp.setattr(ReliableTransport, "wrap", transport_wrap)
        mp.setattr(IntegrityCoordinator, "wrap", integrity_wrap)


def _run(case, reference):
    """One run of ``case``; everything the property compares, and the
    number of rounds the network stepped."""
    topo = grid_graph(3, 3)
    seed = case["seed"]
    rng = random.Random(seed)
    inputs = make_inputs(topo, rng)
    injectors = [MessageFaults(seed=seed, **case["faults"])]
    corruption = None
    if case["corrupt"]:
        corruption = MessageCorruption(seed=seed, **case["corrupt"])
        injectors.append(corruption)
    recovery = case["overlays"] == "recovery+mac"
    if case["churn"] and not recovery:
        injectors.append(ChurnSchedule.from_spec(case["churn"]))
    crashes = dict(case["crashes"])
    config = TransportConfig(retransmits=case.get("retransmits", 2))
    kwargs = {}
    coordinator = None
    if case["overlays"] == "transport":
        kwargs = dict(transport=config)
    elif case["overlays"] == "transport+mac":
        coordinator = IntegrityCoordinator(IntegrityConfig(mode="mac"))
        kwargs = dict(transport=config, integrity=coordinator)
    elif recovery:
        coordinator = IntegrityCoordinator(IntegrityConfig(mode="mac"))
        kwargs = dict(recovery=RecoveryPolicy(config), integrity=coordinator)
        if case["root_crash"]:
            crashes[topo.root] = case["root_crash"]
    schedule = FailureSchedule(crashes)
    if case["protocol"] == "algorithm1":
        kwargs.update(f=max(2, schedule.edge_failures(topo)), b=60)
    monitors = [OracleMonitor(topo, inputs, mode="record")]
    if recovery:
        monitors.insert(0, RecoverySafetyMonitor(topo.root, mode="record"))
    if corruption is not None:
        monitors.append(
            CorruptionOracleMonitor([corruption], coordinator, mode="record")
        )
    observed = Observed()
    with pytest.MonkeyPatch.context() as mp:
        observed.patch(mp, reference)
        try:
            record = run_protocol(
                case["protocol"], topo, inputs, schedule=schedule, rng=rng,
                strict=False, injectors=injectors, monitors=monitors,
                **kwargs,
            )
            outcome = (
                record.result, record.cc_bits, record.rounds,
                record.flooding_rounds, record.correct,
                sorted(record.extra.items()),
            )
        except Exception as exc:  # garbage from corruption: same either way
            outcome = repr(exc)
    seen = (
        outcome,
        [asdict(n.stats) for n in observed.networks],
        [t.counters() for t in observed.transports],
        [list(t.gaps) for t in observed.transports],
        [c.counters() for c in observed.coordinators],
        [str(v) for m in monitors for v in m.violations],
    )
    return seen, observed.steps


if given is not None:
    RATES = [0.0, 0.05, 0.2]
    _cases = st.fixed_dictionaries({
        "protocol": st.sampled_from(["unknown_f", "algorithm1"]),
        "overlays": st.sampled_from(
            [None, "transport", "transport+mac", "recovery+mac"]
        ),
        "seed": st.integers(0, 10_000),
        "faults": st.fixed_dictionaries({
            "drop": st.sampled_from(RATES),
            "duplicate": st.sampled_from(RATES),
            "delay": st.sampled_from(RATES),
            "reorder": st.sampled_from(RATES),
        }),
        "corrupt": st.sampled_from([
            None,
            {"bitflip": 0.05},
            {"bitflip": 0.03, "truncate": 0.02, "stale": 0.03},
        ]),
        "crashes": st.sampled_from([{}, {4: 3}, {7: 6, 8: 2}]),
        "churn": st.sampled_from([
            None,
            "5:crash@r3,5:revive@r9",
            "3:crash@r2,3:revive@r6:amnesiac,flap:1-2@r2-r5",
            "flap:0-1@r1-r4,flap:4-5@r3-r8",
        ]),
        "root_crash": st.sampled_from([None, 4, 40]),
    })


@pytest.mark.skipif(given is None, reason="hypothesis not installed")
class TestJumpsMatchEveryRound:
    if given is not None:

        @settings(max_examples=30, deadline=None)
        @given(case=_cases)
        # Corrupted mail raises four rounds after an idle jump: the jumped
        # rounds still count in ``rounds_executed``.
        @example(case={
            "protocol": "unknown_f", "overlays": None, "seed": 138,
            "faults": {"drop": 0.2, "duplicate": 0.0, "delay": 0.05,
                       "reorder": 0.05},
            "corrupt": {"bitflip": 0.03, "truncate": 0.02, "stale": 0.03},
            "crashes": {4: 3}, "churn": None, "root_crash": None,
        })
        def test_same_outcome_stats_counters_gaps_and_violations(self, case):
            fast, fast_steps = _run(case, reference=False)
            slow, slow_steps = _run(case, reference=True)
            assert fast == slow
            assert fast_steps <= slow_steps


#: The ``chaos --recover`` transport (5 retransmissions, 25-round
#: windows) under message faults and no round observer.
CHAOS = {
    "protocol": "unknown_f",
    "retransmits": 5,
    "seed": 3,
    "faults": {"drop": 0.05, "duplicate": 0.0, "delay": 0.05, "reorder": 0.0},
    "corrupt": None,
    "crashes": {},
    "churn": None,
    "root_crash": None,
}


@pytest.mark.parametrize("overlays", ["transport+mac", "recovery+mac"])
def test_overlay_runs_jump_most_rounds(overlays):
    case = dict(CHAOS, overlays=overlays)
    fast, fast_steps = _run(case, reference=False)
    slow, slow_steps = _run(case, reference=True)
    assert fast == slow
    assert fast_steps <= 0.25 * slow_steps
    result, correct, extra = fast[0][0], fast[0][4], dict(fast[0][5])
    assert result is not None and correct
    assert extra.get("status", "exact") == "exact"


def test_recovery_safe_notes_the_root_crash_round_when_jumping():
    """The root dies in a round nothing else happens in: the run still
    stops there, and ``recovery-safe`` records that round."""
    case = dict(CHAOS, overlays="recovery+mac", root_crash=40)
    fast, _ = _run(case, reference=False)
    slow, _ = _run(case, reference=True)
    assert fast == slow
    violations = fast[-1]
    assert violations[0].startswith("[recovery-safe@r40]")
    first_epoch_stats = fast[1][0]
    assert first_epoch_stats["rounds_executed"] == 40


# ---------------------------------------------------------------------- #
# _absorb: the fast path agrees with the full shape check.
# ---------------------------------------------------------------------- #


def _pair(incarnation):
    """A sender and a receiver transport node on one shared coordinator."""

    class Inner(NodeHandler):
        def on_round(self, rnd, inbox):
            return []

    transport = ReliableTransport(FIXED)
    nodes = transport.wrap({1: Inner(), 2: Inner()}, {1: (2,), 2: (1,)})
    sender = nodes[1]
    sender._incarnation = incarnation
    return transport, sender, nodes[2]


def _absorbed(receiver, copies, fast):
    """File ``copies`` from node 1 at round 2 (logical round 1, slot 2);
    the receiver's buffer and the transport counters afterwards."""
    transport = receiver.transport
    if not fast:
        transport.built = NothingBuilt()
    inbox = [Envelope(1, (Part(FRAME_KIND, p, 8),)) for p in copies]
    receiver._absorb(1, 2, 2, inbox)
    return repr(receiver._buf), transport.counters()


def _tampered(frame, op, value):
    """One rewrite of a frame payload, in the ways corruption, Byzantine
    rewriting and replay reach a receiver."""
    if op == "same":
        return frame
    if op == "rebuilt":
        return tuple(list(frame))
    if op == "truncate":
        return frame[: value % len(frame)]
    if op == "extend":
        return frame + (value,)
    if op == "field":
        i = value % len(frame)
        return frame[:i] + (TAMPER_VALUES[value % len(TAMPER_VALUES)],) + frame[i + 1:]
    return TAMPER_VALUES[value % len(TAMPER_VALUES)]  # "replace"


TAMPER_VALUES = [None, 1, -3, 2.5, "x", (), (1,), [1, 0, ()], True, b"\x00"]

if given is not None:
    _contents = st.lists(
        st.tuples(
            st.sampled_from(["aggregation", "flooded_psum", "beacon"]),
            st.one_of(st.integers(0, 9), st.tuples(st.integers(0, 9))),
            st.integers(1, 40),
        ),
        max_size=3,
    ).map(tuple)


@pytest.mark.skipif(given is None, reason="hypothesis not installed")
class TestAbsorbFastPath:
    if given is not None:

        @settings(max_examples=200, deadline=None)
        @given(
            contents=_contents,
            incarnation=st.sampled_from([0, 2]),
            attempt=st.integers(0, 2),
            ops=st.lists(
                st.tuples(
                    st.sampled_from([
                        "same", "rebuilt", "truncate", "extend",
                        "field", "replace",
                    ]),
                    st.integers(0, 50),
                ),
                min_size=1,
                max_size=4,
            ),
        )
        def test_fast_and_full_verdicts_agree(
            self, contents, incarnation, attempt, ops
        ):
            verdicts = []
            for fast in (True, False):
                transport, sender, receiver = _pair(incarnation)
                sender._outbox = contents
                frame = sender._frame(1, attempt).payload
                copies = [_tampered(frame, op, v) for op, v in ops]
                for copy in copies:
                    trusted = copy is transport.built.get(1)
                    assert well_formed_frame(copy) or not trusted
                verdicts.append(_absorbed(receiver, copies, fast))
            assert verdicts[0] == verdicts[1]

    def test_only_the_built_payload_is_trusted(self):
        transport, sender, _ = _pair(0)
        first = sender._frame(1, 0).payload
        assert transport.built[1] is first
        again = sender._frame(1, 1).payload
        assert transport.built[1] is again and again is not first
        assert not well_formed_frame(first[:2])
        assert not well_formed_frame((1, 0, (), "inc"))
        assert well_formed_frame((1, 0, (), 3))


class Idle(NodeHandler):
    """Never sends and never needs a round: every round after the first
    can be jumped."""

    def on_round(self, rnd, inbox):
        return []

    def next_wake(self, rnd):
        return None


@pytest.mark.parametrize("crashes, downtime", [({0: 3}, None), ({}, (2, 6))])
def test_a_run_resumed_after_the_root_died_stops_at_once(crashes, downtime):
    topo = path_graph(3)
    network = Network(
        topo.adjacency,
        {u: Idle() for u in topo.nodes()},
        crash_rounds=crashes,
        root=0,
        allow_root_crash=True,
    )
    if downtime is not None:
        network.schedule_downtime(0, *downtime)
    network.run(1)
    assert network.run(1).rounds_executed == 2
    died = 3 if crashes else 2
    assert network.run(10).rounds_executed == max(died, 3)


@pytest.mark.parametrize(
    "crashes, downtime, died",
    [({0: 7}, None, 7), ({}, (5, 9), 5), ({0: 12}, (3, 4), 3), ({}, None, None)],
)
def test_recovery_safe_round_without_a_network_root(crashes, downtime, died):
    """With no root declared the run does not stop when node 0 dies; the
    note still carries its first dead round, as an every-round check
    would see it."""
    topo = path_graph(3)
    rounds = {}
    for reference in (False, True):
        monitor = RecoverySafetyMonitor(0, mode="record")
        injectors = [monitor, EveryRoundObserver()] if reference else [monitor]
        network = Network(
            topo.adjacency,
            {u: Idle() for u in topo.nodes()},
            crash_rounds=crashes,
            injectors=injectors,
            allow_root_crash=True,
        )
        if downtime is not None:
            network.schedule_downtime(0, *downtime)
        network.run(20)
        assert network.stats.rounds_executed == 20
        rounds[reference] = [v.round for v in monitor.violations]
    assert rounds[False] == rounds[True] == ([died] if died else [])


@pytest.mark.parametrize(
    "crashes, downtime, died",
    [({0: 7}, None, 7), ({}, (5, 9), 5), ({0: 12}, (3, 4), 3), ({}, None, None)],
)
def test_root_safe_round_when_jumping(crashes, downtime, died):
    """``root-safe`` reports the root's first dead round once, whether the
    run jumps idle rounds or steps every one; with the root declared the
    run stops there and strict mode raises for that round."""
    topo = path_graph(3)
    rounds = {}
    for reference in (False, True):
        monitor = RootSafetyMonitor(0, mode="record")
        injectors = [monitor, EveryRoundObserver()] if reference else [monitor]
        network = Network(
            topo.adjacency,
            {u: Idle() for u in topo.nodes()},
            crash_rounds=crashes,
            injectors=injectors,
            allow_root_crash=True,
        )
        if downtime is not None:
            network.schedule_downtime(0, *downtime)
        network.run(20)
        rounds[reference] = [v.round for v in monitor.violations]
    assert rounds[False] == rounds[True] == ([died] if died else [])
    if died is None:
        return
    network = Network(
        topo.adjacency,
        {u: Idle() for u in topo.nodes()},
        crash_rounds=crashes,
        injectors=[RootSafetyMonitor(0, mode="strict")],
        root=0,
        allow_root_crash=True,
    )
    if downtime is not None:
        network.schedule_downtime(0, *downtime)
    with pytest.raises(InvariantViolation) as raised:
        network.run(20)
    assert raised.value.round == died == network.round
    assert str(raised.value) == (
        f"[root-safe] (round {died}) the root (node 0) is dead"
    )


def test_standard_monitors_let_a_chaos_run_jump(monkeypatch, capsys):
    """The non-recovery monitor stack observes no round, so a chaos run
    under the reliable transport and MAC frames steps at most a fifth of
    its simulated rounds."""
    calls = {"steps": 0, "rounds": 0}
    step, run = Network.step, Network.run

    def counted_step(self):
        calls["steps"] += 1
        return step(self)

    def counted_run(self, *args, **kwargs):
        before = self.stats.rounds_executed
        stats = run(self, *args, **kwargs)
        calls["rounds"] += stats.rounds_executed - before
        return stats

    monkeypatch.setattr(Network, "step", counted_step)
    monkeypatch.setattr(Network, "run", counted_run)
    code = main([
        "chaos", "--topology", "grid:4x4", "--protocol", "unknown_f",
        "--inject", "drop=0.05", "--retransmit-budget", "5",
        "--integrity", "mac", "--seeds", "1",
    ])
    assert code == 0
    assert "1 correct" in capsys.readouterr().out
    assert calls["rounds"] > 0
    assert calls["steps"] <= 0.20 * calls["rounds"]
