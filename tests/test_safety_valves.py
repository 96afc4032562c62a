"""The abort/overflow safety valves must actually fire when needed.

Theorem 3/6's CC guarantees hinge on the special-symbol mechanisms:
without them, a >t-failure execution could force unbounded forwarding.
These tests construct executions that demonstrably cross the budgets and
check the valves trip, propagate, and bound every node's cost.
"""

import random

import pytest

from repro.adversary import FailureSchedule, random_failures
from repro.core.agg import AggNode, run_agg
from repro.core.params import params_for
from repro.core.veri import VeriNode, run_agg_veri_pair
from repro.graphs import grid_graph
from repro.sim.network import Network


def storm_schedule(topo, f, at_round, seed=0):
    rng = random.Random(seed)
    return random_failures(
        topo, f=f, rng=rng, first_round=at_round, last_round=at_round
    )


class TestAggAbort:
    def _aborting_run(self):
        topo = grid_graph(6, 6)
        cd = 2 * topo.diameter
        schedule = storm_schedule(topo, f=24, at_round=2 * cd + 2)
        out = run_agg(
            topo, {u: 1 for u in topo.nodes()}, t=0, schedule=schedule
        )
        return topo, schedule, out

    def test_storm_with_t_zero_triggers_abort(self):
        _topo, _schedule, out = self._aborting_run()
        assert out.aborted
        assert out.result is None

    def test_abort_propagates_to_all_live_nodes(self):
        topo, schedule, out = self._aborting_run()
        alive = topo.alive_component(schedule.failed_nodes)
        for node in alive:
            assert out.nodes[node].aborted, node

    def test_abort_caps_every_nodes_bits(self):
        topo, _schedule, out = self._aborting_run()
        budget = out.nodes[topo.root].p.agg_bit_budget
        abort_bits = 16
        for node, bits in out.stats.bits_sent.items():
            assert bits <= budget + abort_bits, node

    def test_budget_is_read_from_p_at_every_check(self):
        # Swapping ``node.p`` after construction lifts the budget; the
        # always-flood ablation (E10) relies on it.
        topo, schedule, _out = self._aborting_run()
        params = params_for(topo, t=0)
        nodes = {u: AggNode(params, u, 1) for u in topo.nodes()}
        for node in nodes.values():
            node.p = params.with_t(topo.n_nodes)
        network = Network(topo.adjacency, nodes, schedule.crash_rounds)
        stats = network.run(params.agg_rounds, stop_on_output=False)
        assert not any(node.aborted for node in nodes.values())
        assert stats.max_bits > params.agg_bit_budget

    def test_same_storm_with_adequate_t_does_not_abort(self):
        topo = grid_graph(6, 6)
        cd = 2 * topo.diameter
        schedule = storm_schedule(topo, f=24, at_round=2 * cd + 2)
        out = run_agg(
            topo,
            {u: 1 for u in topo.nodes()},
            t=schedule.edge_failures(topo),
            schedule=schedule,
        )
        assert not out.aborted


class TestVeriOverflow:
    def _post_agg_storm(self, t=0, n_victims=7):
        topo = grid_graph(6, 6)
        params = params_for(topo, t=t)
        victims = [7, 9, 14, 16, 21, 25, 27][:n_victims]
        schedule = FailureSchedule(
            {u: params.agg_rounds + 1 for u in victims}
        )
        pair = run_agg_veri_pair(
            topo, {u: 1 for u in topo.nodes()}, t=t, schedule=schedule
        )
        return topo, params, schedule, pair

    def test_claim_storm_with_t_zero_outputs_false(self):
        _topo, _params, _schedule, pair = self._post_agg_storm()
        # Either the overflow valve or the LFC rules must force false —
        # VERI may never say true here (every victim orphans children and
        # t = 0 tolerates nothing).
        assert pair.veri_output is False

    def test_veri_bits_capped_under_claim_storm(self):
        _topo, params, _schedule, pair = self._post_agg_storm()
        overflow_bits = 16
        assert pair.veri_stats.max_bits <= params.veri_bit_budget + overflow_bits

    def test_agg_result_was_fine_but_pair_rejected(self):
        # The failures happened after AGG ended, so AGG's sum is exact;
        # rejection is VERI being conservative — allowed (scenario 2/3).
        topo, _params, _schedule, pair = self._post_agg_storm()
        assert pair.agg_result == topo.n_nodes
        assert not pair.accepted
