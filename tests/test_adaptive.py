"""Adaptive adversaries: budget, root safety, targeting policies."""

import random

import pytest

from repro.adversary.adaptive import (
    ADAPTIVE_FAMILIES,
    RootIsolationAdversary,
    TopTalkerAdversary,
    TriggerAdversary,
    make_adaptive,
)
from repro.adversary.budget import EdgeBudget
from repro.analysis.runner import make_inputs, run_protocol
from repro.graphs import grid_graph, path_graph, star_graph
from repro.sim import Network, Part
from tests.conftest import SilentNode


class Chatty(SilentNode):
    """Broadcasts ``bits`` every round, tagged with a kind."""

    def __init__(self, bits=8, kind="ping"):
        self.bits = bits
        self.kind = kind

    def on_round(self, rnd, inbox):
        return [Part(self.kind, (rnd,), self.bits)]


def run_with_adversary(topology, adversary, handlers=None, rounds=30):
    handlers = handlers or {u: Chatty() for u in topology.nodes()}
    net = Network(topology.adjacency, handlers, injectors=[adversary])
    net.run(rounds, stop_on_output=False)
    return net


class TestBudgetAndSafety:
    def test_root_is_never_crashed(self):
        topo = star_graph(6)  # root is the hub: every kill is a neighbour
        adversary = TopTalkerAdversary(topo, f=100, period=1)
        net = run_with_adversary(topo, adversary)
        assert topo.root not in adversary.kills
        assert net.is_alive(topo.root)

    def test_edge_budget_respected(self):
        topo = grid_graph(4, 4)
        f = 5
        adversary = TopTalkerAdversary(topo, f=f, period=1)
        run_with_adversary(topo, adversary)
        assert adversary.kills
        assert adversary.budget.used <= f
        # Recompute independently: charging kills in order never exceeds f.
        check = EdgeBudget(topo, f)
        for u in adversary.kills:
            assert check.can_afford(u)
            check.charge(u)

    def test_exhausted_when_no_candidate_affordable(self):
        topo = path_graph(3)
        adversary = TopTalkerAdversary(topo, f=0, period=1)
        run_with_adversary(topo, adversary)
        assert adversary.kills == []
        assert adversary.exhausted


class TestTopTalker:
    def test_kills_the_loudest_node(self):
        topo = path_graph(4)
        handlers = {u: Chatty(bits=8) for u in topo.nodes()}
        handlers[2] = Chatty(bits=1000)  # clear bandwidth leader
        adversary = TopTalkerAdversary(topo, f=2, period=3)
        run_with_adversary(topo, adversary, handlers=handlers, rounds=6)
        assert adversary.kills[0] == 2

    def test_period_validated(self):
        with pytest.raises(ValueError, match="period"):
            TopTalkerAdversary(path_graph(3), f=1, period=0)

    def test_crashes_take_effect_next_round(self):
        topo = path_graph(4)
        adversary = TopTalkerAdversary(topo, f=10, period=2)
        net = run_with_adversary(topo, adversary, rounds=2)
        victim = adversary.kills[0]
        # Chosen at end of round 2, dead from round 3.
        assert net.crash_rounds[victim] == 3


class TestTrigger:
    def test_kills_first_time_senders_of_kind(self):
        topo = path_graph(5)
        handlers = {u: Chatty(kind="ping") for u in topo.nodes()}
        handlers[3] = Chatty(kind="aggregation")
        adversary = TriggerAdversary(topo, f=4, kind="aggregation")
        run_with_adversary(topo, adversary, handlers=handlers, rounds=4)
        assert adversary.kills == [3]

    def test_limit_bounds_kills(self):
        topo = grid_graph(3, 3)
        adversary = TriggerAdversary(topo, f=20, kind="ping", limit=2)
        run_with_adversary(topo, adversary)
        assert len(adversary.kills) == 2


class TestRootIsolation:
    def test_targets_are_root_neighbours(self):
        topo = grid_graph(3, 3)
        adversary = RootIsolationAdversary(topo, f=10)
        run_with_adversary(topo, adversary)
        assert adversary.kills
        assert set(adversary.kills) <= set(topo.neighbours(topo.root))


class TestFactory:
    def test_families_constant_matches_factory(self):
        topo = path_graph(4)
        for family in ADAPTIVE_FAMILIES:
            adversary = make_adaptive(family, topo, f=2, seed=1)
            assert adversary.f == 2

    def test_spec_arguments(self):
        topo = path_graph(4)
        assert make_adaptive("top-talker:9", topo, f=1).period == 9
        assert make_adaptive("trigger:ack", topo, f=1).kind == "ack"
        assert make_adaptive("trigger", topo, f=1).kind == "aggregation"

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown adaptive family"):
            make_adaptive("bribery", path_graph(3), f=1)


class TestRunnerIntegration:
    def test_f_actual_reflects_adaptive_kills(self):
        """The runner grades against the *effective* crash schedule."""
        topo = grid_graph(4, 4)
        rng = random.Random(0)
        inputs = make_inputs(topo, rng)
        adversary = TopTalkerAdversary(topo, f=3, period=4)
        record = run_protocol(
            "unknown_f",
            topo,
            inputs,
            rng=rng,
            strict=False,
            injectors=[adversary],
        )
        assert adversary.kills  # the adversary actually acted
        assert record.f_actual > 0
        # Zero-error contract: correct output or an explicit abort.
        assert record.correct or record.result is None
