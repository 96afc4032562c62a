"""Observer-hook dispatch against an every-hook reference.

``Network`` calls each observer hook (``begin_round``, ``on_broadcast``,
``on_deliver``, ``end_round``, ``end_run``) only on the injectors whose
class overrides the :class:`repro.sim.faults.FaultInjector` no-op.  The
reference, :class:`EveryHook`, calls every hook on every injector.  Runs
under both must agree on every ``Tracer`` event, ``SimStats``, recorder
digest and monitor violation.

Also here: ``end_run`` fires exactly once per :meth:`Network.run`, and
a monitor placed last sees each ``end_round`` after every other
injector's.
"""

import random
from dataclasses import asdict

import pytest

from repro.adversary import FailureSchedule
from repro.adversary.adaptive import make_adaptive
from repro.analysis.runner import run_protocol
from repro.baselines.bruteforce import run_bruteforce
from repro.core.algorithm1 import run_algorithm1
from repro.core.unknown_f import run_unknown_f
from repro.graphs import grid_graph, path_graph, random_regular
from repro.resilience.failover import RecoveryPolicy
from repro.resilience.transport import TransportConfig
from repro.sim import Network, SendTracer, Tracer
from repro.sim.faults import FaultInjector, MessageFaults
from repro.sim.monitors import Monitor, standard_monitors, violations_of
from tests.conftest import SilentNode
from repro.sim.recorder import RecordingInjector

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - property tests skip
    given = None

#: Modules whose runners build a ``Network`` by that name.
BUILDERS = ("repro.baselines.bruteforce", "repro.resilience.transport")


class EveryHook(Network):
    """Reference dispatch: every observer hook goes to every injector."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        every = tuple(self.injectors)
        self._begin_round = self._on_broadcast = self._on_deliver = every
        self._end_round = self._end_run = every


TOPOLOGIES = {
    "grid3x3": lambda: grid_graph(3, 3),
    "path6": lambda: path_graph(6),
    "regular:8,3": lambda: random_regular(8, 3, rng=random.Random(2)),
}
#: The stack's injectors before the monitors, in the drawn order.
LAYERS = ("faults", "tracer", "send_tracer", "recorder", "adaptive")


def _stack(layers, topo, inputs, f, seed):
    """Fresh injectors for ``layers``, then a record-mode monitor stack."""
    built = []
    for layer in layers:
        if layer == "faults":
            built.append(MessageFaults(drop=0.05, duplicate=0.05, seed=seed))
        elif layer == "tracer":
            built.append(Tracer())
        elif layer == "send_tracer":
            built.append(SendTracer())
        elif layer == "recorder":
            built.append(RecordingInjector(
                [MessageFaults(drop=0.05, delay=0.05, seed=seed + 1),
                 make_adaptive("top-talker:3", topo, f=2, seed=seed)]
            ))
        else:
            built.append(make_adaptive("top-talker:4", topo, f=2, seed=seed))
    monitors = standard_monitors(topo, inputs, f=f, mode="record")
    return built, monitors


def _observed(protocol, topo, layers, crashes, seed, network_cls):
    """Run once; return everything the injectors and monitors saw."""
    rng = random.Random(seed)
    inputs = {u: rng.randint(0, 7) for u in topo.nodes()}
    schedule = FailureSchedule(crashes)
    f = max(2, schedule.edge_failures(topo))
    injectors, monitors = _stack(layers, topo, inputs, f, seed)
    run = dict(schedule=schedule, injectors=[*injectors, *monitors])
    with pytest.MonkeyPatch.context() as mp:
        for module in BUILDERS:
            mp.setattr(f"{module}.Network", network_cls)
        if protocol == "bruteforce":
            out = run_bruteforce(topo, inputs, **run)
        elif protocol == "algorithm1":
            out = run_algorithm1(
                topo, inputs, f=f, b=60, rng=random.Random(seed), **run
            )
        else:
            out = run_unknown_f(topo, inputs, **run)
    seen = []
    for injector in injectors:
        if isinstance(injector, Tracer):
            seen.append((injector.sends, injector.deliveries, injector.crashes))
        elif isinstance(injector, SendTracer):
            seen.append((injector.sends, injector.crashes))
        elif isinstance(injector, RecordingInjector):
            seen.append((
                injector.digests_jsonable(),
                injector.transmits,
                injector.reorders,
                injector.crashes,
            ))
    return (
        out.result,
        asdict(out.stats),
        seen,
        [str(e) for e in violations_of(monitors)],
    )


if given is not None:

    @st.composite
    def _runs(draw):
        name = draw(st.sampled_from(sorted(TOPOLOGIES)))
        topo = TOPOLOGIES[name]()
        layers = draw(st.permutations(LAYERS))
        layers = layers[: draw(st.integers(0, len(LAYERS)))]
        victims = draw(
            st.lists(
                st.sampled_from([u for u in topo.nodes() if u != topo.root]),
                max_size=2,
                unique=True,
            )
        )
        crashes = {u: draw(st.integers(1, 12)) for u in victims}
        protocol = draw(
            st.sampled_from(("bruteforce", "algorithm1", "unknown_f"))
        )
        seed = draw(st.integers(0, 2**16))
        return protocol, topo, layers, crashes, seed

    @settings(max_examples=30, deadline=None)
    @given(_runs())
    def test_dispatch_matches_every_hook_reference(case):
        protocol, topo, layers, crashes, seed = case
        assert _observed(
            protocol, topo, layers, crashes, seed, Network
        ) == _observed(protocol, topo, layers, crashes, seed, EveryHook)


class Ends(FaultInjector):
    """Records the rounds passed to ``end_run``."""

    def __init__(self):
        super().__init__()
        self.ends = []

    def end_run(self, rnd):
        self.ends.append(rnd)


class StopAt(SilentNode):
    """Asks to stop once it has run round ``at``."""

    def __init__(self, at):
        self.at = at
        self.rnd = 0

    def on_round(self, rnd, inbox):
        self.rnd = rnd
        return []

    def wants_to_stop(self):
        return self.rnd >= self.at


class TestEndRun:
    def _net(self, ends, **kwargs):
        topo = path_graph(4)
        handlers = {u: StopAt(3) if u == 0 else SilentNode()
                    for u in topo.nodes()}
        return Network(topo.adjacency, handlers, injectors=[ends], **kwargs)

    def test_fires_once_for_zero_rounds(self):
        ends = Ends()
        self._net(ends).run(0)
        assert ends.ends == [0]

    def test_fires_once_on_early_stop(self):
        ends = Ends()
        stats = self._net(ends).run(10)
        assert stats.rounds_executed == 3
        assert ends.ends == [3]

    def test_fires_once_when_the_root_dies(self):
        ends = Ends()
        net = self._net(
            ends, crash_rounds={0: 2}, root=0, allow_root_crash=True
        )
        net.run(10, stop_on_output=False)
        assert ends.ends == [2]

    def test_fires_once_per_run(self):
        ends = Ends()
        net = self._net(ends)
        net.run(1, stop_on_output=False)
        net.run(1, stop_on_output=False)
        assert ends.ends == [1, 2]


class Logged(FaultInjector):
    """Appends ``(round, name)`` to a shared log at every round's end."""

    def __init__(self, name, log):
        super().__init__()
        self.name = name
        self.log = log

    def end_round(self, rnd):
        self.log.append((rnd, self.name))


class LoggedMonitor(Monitor):
    """A record-mode monitor that logs like :class:`Logged`."""

    rule = "logged"

    def __init__(self, log):
        super().__init__(mode="record")
        self.log = log

    def end_round(self, rnd):
        self.log.append((rnd, "monitor"))


@pytest.mark.parametrize(
    "overlay",
    [{}, {"recovery": RecoveryPolicy(TransportConfig(retransmits=2))}],
    ids=["plain", "recovery"],
)
def test_a_monitor_last_sees_each_round_end_last(overlay):
    topo = grid_graph(3, 3)
    inputs = {u: 1 for u in topo.nodes()}
    log = []
    run_protocol(
        "unknown_f",
        topo,
        inputs,
        rng=random.Random(0),
        injectors=[Logged("a", log), Logged("b", log)],
        monitors=[LoggedMonitor(log)],
        **overlay,
    )
    monitor_at = [i for i, (_, name) in enumerate(log) if name == "monitor"]
    assert monitor_at
    for i in monitor_at:
        rnd = log[i][0]
        assert log[i - 2:i] == [(rnd, "a"), (rnd, "b")]
    assert len(monitor_at) == len(log) // 3
