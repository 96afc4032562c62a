"""Push-sum gossip: convergence, cost, and why approximation breaks the
zero-error guarantee under crashes."""

import random

import pytest

from repro.adversary import FailureSchedule
from repro.baselines.gossip import (
    PushSumNode,
    gossip_part,
    run_gossip,
)
from repro.graphs import complete_graph, grid_graph, path_graph
from repro.sim.network import Network


class TestConvergence:
    def test_error_decays_with_rounds(self):
        topo = grid_graph(5, 5)
        inputs = {u: (u * 7) % 20 for u in topo.nodes()}
        errors = [
            run_gossip(topo, inputs, rounds=r).relative_error
            for r in (20, 80, 200)
        ]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-3

    def test_uniform_inputs_exact_immediately(self):
        topo = complete_graph(6)
        inputs = {u: 10 for u in topo.nodes()}
        out = run_gossip(topo, inputs, rounds=5)
        assert out.estimate == pytest.approx(60, rel=1e-9)

    def test_fast_mixing_on_complete_graph(self):
        topo = complete_graph(10)
        rng = random.Random(0)
        inputs = {u: rng.randint(0, 50) for u in topo.nodes()}
        out = run_gossip(topo, inputs, rounds=40)
        assert out.relative_error < 1e-3

    def test_zero_inputs(self):
        topo = path_graph(5)
        out = run_gossip(topo, {u: 0 for u in topo.nodes()}, rounds=20)
        assert out.estimate == pytest.approx(0.0, abs=1e-9)


class TestMassConservation:
    def test_resident_plus_inflight_mass_is_conserved(self):
        topo = grid_graph(4, 4)
        inputs = {u: u for u in topo.nodes()}
        rounds = 30
        nodes = {
            u: PushSumNode(u, 16, inputs[u], topo.degree(u), rounds)
            for u in topo.nodes()
        }
        net = Network(topo.adjacency, nodes)
        net.run(rounds + 1, stop_on_output=False)
        # After the final delivery no mass is in flight.
        resident = sum(node.s for node in nodes.values())
        assert resident == pytest.approx(sum(inputs.values()))

    def test_crash_destroys_mass(self):
        topo = grid_graph(4, 4)
        inputs = {u: 10 for u in topo.nodes()}
        rounds = 30
        nodes = {
            u: PushSumNode(u, 16, inputs[u], topo.degree(u), rounds)
            for u in topo.nodes()
        }
        net = Network(topo.adjacency, nodes, crash_rounds={5: 4})
        net.run(rounds + 1, stop_on_output=False)
        alive_mass = sum(
            node.s for u, node in nodes.items() if u != 5
        )
        assert alive_mass < sum(inputs.values())


class TestCost:
    def test_cc_linear_in_rounds(self):
        topo = grid_graph(4, 4)
        inputs = {u: 1 for u in topo.nodes()}
        cc = {
            r: run_gossip(topo, inputs, rounds=r).stats.max_bits
            for r in (10, 20)
        }
        assert cc[20] == pytest.approx(2 * cc[10], rel=0.1)

    def test_part_size_is_fixed_point(self):
        part = gossip_part(16, 1.5, 0.25)
        assert part.bits == 5 + 4 + 64


class TestZeroErrorContrast:
    def test_failure_free_estimate_is_in_interval(self):
        topo = grid_graph(4, 4)
        rng = random.Random(1)
        inputs = {u: rng.randint(0, 9) for u in topo.nodes()}
        out = run_gossip(topo, inputs, rounds=200)
        assert out.within_correctness_interval(
            topo, inputs, FailureSchedule()
        )

    def test_early_crashes_push_estimate_outside_the_interval(self):
        # The demonstration the paper's zero-error framing rests on: kill
        # zero-valued nodes early; their weight mass dies with them, the
        # surviving average inflates, and N * avg exceeds the sum of ALL
        # inputs — no zero-error protocol may ever report such a value.
        topo = grid_graph(5, 5)
        inputs = {u: 0 for u in topo.nodes()}
        inputs[topo.root] = 100
        schedule = FailureSchedule({12: 3, 13: 3, 17: 3, 18: 3})
        out = run_gossip(topo, inputs, rounds=200, schedule=schedule)
        assert out.estimate > 100.5  # above sum(s2): impossible for zero-error
        assert not out.within_correctness_interval(topo, inputs, schedule)

    def test_algorithm1_stays_correct_on_the_same_scenario(self):
        from repro.core import run_algorithm1
        from repro.core.correctness import is_correct_result
        from repro.core.caaf import SUM

        topo = grid_graph(5, 5)
        inputs = {u: 0 for u in topo.nodes()}
        inputs[topo.root] = 100
        schedule = FailureSchedule({12: 3, 13: 3, 17: 3, 18: 3})
        out = run_algorithm1(
            topo,
            inputs,
            f=topo.edges_incident({12, 13, 17, 18}),
            b=60,
            schedule=schedule,
            rng=random.Random(2),
        )
        assert is_correct_result(out.result, SUM, topo, inputs, schedule, out.rounds)
