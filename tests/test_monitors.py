"""Runtime invariant monitors: strict vs. record modes, every rule."""

import math
import random

import pytest

from repro.core.algorithm1 import run_algorithm1
from repro.graphs import grid_graph, path_graph
from repro.sim import Network, Part
from repro.sim.monitors import (
    CCEnvelopeMonitor,
    FBudgetMonitor,
    InvariantViolation,
    Monitor,
    MonitorEvent,
    OracleMonitor,
    RootSafetyMonitor,
    standard_monitors,
    theorem1_cc_envelope,
    violations_of,
)
from repro.sim.node import NodeHandler
from tests.conftest import SilentNode


class Chatty(SilentNode):
    def __init__(self, bits=8):
        self.bits = bits

    def on_round(self, rnd, inbox):
        return [Part("ping", (rnd,), self.bits)]


class RootWithResult(SilentNode):
    def __init__(self, result, at=2):
        self.result = None
        self._value = result
        self.at = at

    def on_round(self, rnd, inbox):
        if rnd >= self.at:
            self.result = self._value
        return []


def silent_net(topology, monitors, crash_rounds=None, root_handler=None):
    handlers = {u: SilentNode() for u in topology.nodes()}
    if root_handler is not None:
        handlers[topology.root] = root_handler
    return Network(
        topology.adjacency,
        handlers,
        crash_rounds=crash_rounds,
        injectors=monitors,
    )


class TestMonitorBase:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            Monitor(mode="lenient")

    def test_report_records_and_raises_in_strict(self):
        monitor = Monitor(mode="strict")
        with pytest.raises(InvariantViolation) as err:
            monitor.report("boom", rnd=3)
        assert err.value.rule == "invariant"
        assert err.value.round == 3
        assert not monitor.ok

    def test_record_mode_accumulates_without_raising(self):
        monitor = Monitor(mode="record")
        monitor.report("one", rnd=1)
        monitor.report("two", rnd=2)
        assert [e.message for e in monitor.violations] == ["one", "two"]
        assert violations_of([monitor]) == monitor.violations

    def test_event_str_mentions_rule_and_round(self):
        event = MonitorEvent("f-budget", 7, "over")
        assert "f-budget" in str(event) and "7" in str(event)


class TestRootSafety:
    def test_trips_when_root_dies(self):
        topo = path_graph(4)
        monitors = [RootSafetyMonitor(topo.root, mode="record")]
        net = silent_net(topo, monitors, crash_rounds={topo.root: 2})
        net.run(4, stop_on_output=False)
        events = violations_of(monitors)
        assert len(events) == 1  # reported once, not per round
        assert events[0].rule == "root-safe"
        assert events[0].round == 2

    def test_strict_raises_mid_run(self):
        topo = path_graph(4)
        net = silent_net(
            topo,
            [RootSafetyMonitor(topo.root, mode="strict")],
            crash_rounds={topo.root: 2},
        )
        with pytest.raises(InvariantViolation, match="root"):
            net.run(4, stop_on_output=False)

    def test_quiet_when_root_lives(self):
        topo = path_graph(4)
        monitor = RootSafetyMonitor(topo.root, mode="strict")
        net = silent_net(topo, [monitor], crash_rounds={2: 2})
        net.run(4, stop_on_output=False)
        assert monitor.ok


class TestFBudget:
    def test_within_budget_is_quiet(self):
        topo = path_graph(5)
        # Crashing an endpoint of degree 1 costs 1 edge.
        monitor = FBudgetMonitor(topo, f=1, mode="strict")
        net = silent_net(topo, [monitor], crash_rounds={4: 2})
        net.run(3, stop_on_output=False)
        assert monitor.ok

    def test_overspend_detected_at_crash_round(self):
        topo = grid_graph(3, 3)
        centre = 4  # degree 4 in a 3x3 grid
        monitors = [FBudgetMonitor(topo, f=3, mode="record")]
        net = silent_net(topo, monitors, crash_rounds={centre: 2})
        net.run(4, stop_on_output=False)
        events = violations_of(monitors)
        assert len(events) == 1
        assert "exceed" in events[0].message
        assert events[0].round == 2


class TestCCEnvelope:
    def test_requires_positive_bound(self):
        with pytest.raises(ValueError, match="positive"):
            CCEnvelopeMonitor(0)

    def test_trips_when_bits_exceed_bound(self):
        topo = path_graph(3)
        handlers = {u: Chatty(bits=10) for u in topo.nodes()}
        monitors = [CCEnvelopeMonitor(25, mode="record")]
        net = Network(topo.adjacency, handlers, injectors=monitors)
        net.run(5, stop_on_output=False)
        events = violations_of(monitors)
        assert len(events) == 1
        assert events[0].round == 3  # 30 bits > 25 after the third round

    def test_theorem1_envelope_holds_on_clean_runs(self):
        topo = grid_graph(4, 4)
        rng = random.Random(0)
        inputs = {u: rng.randint(0, 9) for u in topo.nodes()}
        bound = theorem1_cc_envelope(topo, f=3, b=60)
        out = run_algorithm1(
            topo,
            inputs,
            f=3,
            b=60,
            rng=random.Random(1),
            injectors=[CCEnvelopeMonitor(bound, mode="strict")],
        )
        assert out.result == sum(inputs.values())

    def test_theorem1_envelope_is_finite_and_positive(self):
        topo = grid_graph(4, 4)
        bound = theorem1_cc_envelope(topo, f=3, b=60)
        assert 0 < bound < math.inf
        assert theorem1_cc_envelope(topo, f=3, b=60, include_fallback=False) < bound


class TestOracle:
    def test_none_result_is_not_a_violation(self):
        topo = path_graph(3)
        monitor = OracleMonitor(topo, {0: 1, 1: 1, 2: 1})
        net = silent_net(topo, [monitor])
        net.run(2, stop_on_output=False)
        assert monitor.ok

    def test_correct_result_passes(self):
        topo = path_graph(3)
        inputs = {0: 1, 1: 2, 2: 3}
        monitor = OracleMonitor(topo, inputs, mode="strict")
        net = silent_net(topo, [monitor], root_handler=RootWithResult(6))
        net.run(3, stop_on_output=False)
        assert monitor.ok

    def test_wrong_result_raises_at_finalize(self):
        topo = path_graph(3)
        inputs = {0: 1, 1: 2, 2: 3}
        net = silent_net(
            topo,
            [OracleMonitor(topo, inputs, mode="strict")],
            root_handler=RootWithResult(99),
        )
        with pytest.raises(InvariantViolation, match="correctness interval"):
            net.run(3, stop_on_output=False)

    def test_interval_respects_crashed_survivors(self):
        # Node 2 dead from round 1: any value in [sum(s1), sum(s2)] = [3, 6]
        # is acceptable.
        topo = path_graph(3)
        inputs = {0: 1, 1: 2, 2: 3}
        monitor = OracleMonitor(topo, inputs, mode="strict")
        net = silent_net(
            topo,
            [monitor],
            crash_rounds={2: 1},
            root_handler=RootWithResult(3),
        )
        net.run(3, stop_on_output=False)
        assert monitor.ok


class TestStandardStack:
    def test_composition_follows_arguments(self):
        topo = grid_graph(3, 3)
        inputs = {u: 1 for u in topo.nodes()}
        rules = [m.rule for m in standard_monitors(topo, inputs)]
        assert rules == ["root-safe", "oracle"]
        rules = [
            m.rule
            for m in standard_monitors(topo, inputs, f=2, cc_bound=100.0)
        ]
        assert rules == ["root-safe", "f-budget", "oracle", "cc-envelope"]

    def test_mode_propagates(self):
        topo = grid_graph(3, 3)
        inputs = {u: 1 for u in topo.nodes()}
        assert all(
            m.mode == "record"
            for m in standard_monitors(topo, inputs, mode="record")
        )
