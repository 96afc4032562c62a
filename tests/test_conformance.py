"""Round-exact conformance of AGG/VERI to the pseudo-code timing.

These tests pin the wave schedules that the paper's correctness arguments
depend on (and that ordinary unit tests cannot see): who broadcasts which
message kind in exactly which round.  They use the tracer, so any future
refactoring that silently shifts a phase or a slot breaks here first.
"""

import pytest

from repro.adversary import FailureSchedule
from repro.core.agg import AggNode
from repro.core.params import params_for
from repro.core.veri import VeriNode
from repro.graphs import grid_graph, path_graph
from repro.sim import Network, Tracer


def traced_agg(topo, t=2, schedule=None, inputs=None):
    params = params_for(topo, t=t)
    schedule = schedule or FailureSchedule()
    inputs = inputs or {u: 1 for u in topo.nodes()}
    nodes = {u: AggNode(params, u, inputs[u]) for u in topo.nodes()}
    tracer = Tracer()
    net = Network(topo.adjacency, nodes, schedule.crash_rounds, injectors=[tracer])
    net.run(params.agg_rounds, stop_on_output=False)
    return params, nodes, tracer


def first_sends_per_content(tracer, kind):
    """content payload -> (round, node) of the network-wide first send."""
    first = {}
    for event in sorted(tracer.sends, key=lambda e: e.round):
        for part in event.parts:
            if part.kind == kind and part.payload not in first:
                first[part.payload] = (event.round, event.node)
    return first


class TestAggConstructionTiming:
    def test_root_beacons_in_round_one(self):
        _p, _n, tracer = traced_agg(grid_graph(4, 4))
        first = tracer.first_send_of_kind("tree_construct")
        assert (first.round, first.node) == (1, 0)

    def test_level_l_beacons_in_round_2l_plus_1(self):
        topo = grid_graph(4, 4)
        _p, nodes, tracer = traced_agg(topo)
        beacons = first_sends_per_content(tracer, "tree_construct")
        # tree_construct payload is (level, ancestors); map via sender.
        by_node = {}
        for event in tracer.sends:
            for part in event.parts:
                if part.kind == "tree_construct":
                    by_node.setdefault(event.node, event.round)
        for node, rnd in by_node.items():
            level = nodes[node].state.level
            assert rnd == 2 * level + 1, (node, level, rnd)

    def test_acks_follow_activation_round(self):
        topo = path_graph(6)
        _p, nodes, tracer = traced_agg(topo)
        for event in tracer.sends:
            for part in event.parts:
                if part.kind == "ack":
                    level = nodes[event.node].state.level
                    assert event.round == 2 * level


class TestAggAggregationTiming:
    def test_slot_is_cd_minus_level_plus_1(self):
        topo = grid_graph(4, 4)
        params, nodes, tracer = traced_agg(topo)
        phase_start = 2 * params.cd + 1  # construction ends here
        for event in tracer.sends:
            for part in event.parts:
                if part.kind == "aggregation":
                    level = nodes[event.node].state.level
                    expected = phase_start + (params.cd - level + 1)
                    assert event.round == expected

    def test_critical_failure_flagged_at_parent_slot(self):
        topo = path_graph(6)
        params = params_for(topo, t=2)
        # Node 3 dies right at the start of aggregation.
        schedule = FailureSchedule({3: 2 * params.cd + 2})
        _p, nodes, tracer = traced_agg(topo, schedule=schedule)
        first = first_sends_per_content(tracer, "critical_failure")
        assert (3,) in first
        rnd, node = first[(3,)]
        assert node == 2  # the parent flags it
        parent_slot = (2 * params.cd + 1) + (params.cd - 2 + 1)
        assert rnd == parent_slot


class TestAggFloodingTiming:
    def test_root_floods_in_phase_round_one(self):
        topo = grid_graph(4, 4)
        params, _n, tracer = traced_agg(topo)
        first = first_sends_per_content(tracer, "flooded_psum")
        (payload, (rnd, node)), = first.items()
        assert node == 0 and payload[0] == 0
        assert rnd == 4 * params.cd + 3  # first round of the phase

    def test_orphan_initiates_at_phase_round_level_plus_one(self):
        topo = grid_graph(4, 4)
        params = params_for(topo, t=4)
        # Kill node 1 and node 4 (the root's neighbours' of node 5... use
        # node 5's parent 1) during aggregation; node 5's parent is 1.
        schedule = FailureSchedule({1: 2 * params.cd + 2})
        _p, nodes, tracer = traced_agg(topo, t=4, schedule=schedule)
        first = first_sends_per_content(tracer, "flooded_psum")
        flooding_start = 4 * params.cd + 2  # phase round p = rnd - this
        for payload, (rnd, node) in first.items():
            source = payload[0]
            assert node == source  # initiations come from the source itself
            if source == 0:
                assert rnd - flooding_start == 1
            else:
                level = nodes[source].state.level
                assert rnd - flooding_start == level + 1

    def test_determinations_in_selection_round_one(self):
        topo = grid_graph(4, 4)
        params, _n, tracer = traced_agg(topo)
        first = first_sends_per_content(tracer, "determination")
        selection_start = 6 * params.cd + 4
        for _payload, (rnd, _node) in first.items():
            assert rnd == selection_start


class TestVeriTiming:
    def _traced_veri(self, topo, t=2, schedule=None):
        params = params_for(topo, t=t)
        schedule = schedule or FailureSchedule()
        nodes = {u: AggNode(params, u, 1) for u in topo.nodes()}
        net = Network(topo.adjacency, nodes, schedule.crash_rounds)
        net.run(params.agg_rounds, stop_on_output=False)
        veri_nodes = {
            u: VeriNode(params, u, nodes[u].state) for u in topo.nodes()
        }
        shifted = {
            u: max(1, r - params.agg_rounds)
            for u, r in schedule.crash_rounds.items()
        }
        tracer = Tracer()
        vnet = Network(topo.adjacency, veri_nodes, shifted, injectors=[tracer])
        vnet.run(params.veri_rounds, stop_on_output=False)
        return params, nodes, veri_nodes, tracer

    def test_detect_failed_parent_round_one(self):
        topo = grid_graph(4, 4)
        params, _a, _v, tracer = self._traced_veri(topo)
        first = tracer.first_send_of_kind("detect_failed_parent")
        assert (first.round, first.node) == (1, 0)

    def test_leaves_start_failed_child_wave_at_their_slot(self):
        topo = path_graph(5)
        params, agg_nodes, _v, tracer = self._traced_veri(topo)
        first = first_sends_per_content(tracer, "detect_failed_child")
        # The path's only tree leaf is node 4.
        (payload, (rnd, node)), = first.items()
        assert node == 4
        phase_start = 2 * params.cd + 1
        level = agg_nodes[4].state.level
        assert rnd == phase_start + (params.cd - level + 1)

    def test_orphan_claims_failed_parent_at_level_plus_one(self):
        topo = grid_graph(4, 4)
        params = params_for(topo, t=2)
        agg_rounds = params.agg_rounds
        schedule = FailureSchedule({5: agg_rounds + 1})  # dies before VERI
        _p, agg_nodes, veri_nodes, tracer = self._traced_veri(
            topo, schedule=schedule
        )
        first = first_sends_per_content(tracer, "failed_parent")
        assert first, "children of node 5 must claim"
        for (parent, _x, claimer), (rnd, node) in first.items():
            assert parent == 5
            assert node == claimer
            level = agg_nodes[claimer].state.level
            assert rnd == level + 1

    def test_failure_free_veri_has_no_claims(self):
        topo = grid_graph(4, 4)
        _p, _a, veri_nodes, tracer = self._traced_veri(topo)
        hist = tracer.kind_histogram()
        assert "failed_parent" not in hist
        assert "failed_child" not in hist
        assert "lfc_tail" not in hist
        assert veri_nodes[0].output is True
