"""The two-party cut-simulation harness (Section 7's mechanism)."""

import pytest

from repro.baselines.bruteforce import BruteForceNode
from repro.core.agg import AggNode
from repro.core.params import params_for
from repro.graphs import barbell_graph, cluster_line_graph, grid_graph, path_graph
from repro.lowerbound.cut_simulation import (
    CutSimulation,
    per_node_cut_lower_bound,
    split_by_bfs_half,
)
from repro.sim.message import Part
from repro.sim.node import NodeHandler
from tests.conftest import SilentNode


class Beacon(SilentNode):
    def __init__(self, part, at=1):
        self.part, self.at = part, at

    def on_round(self, rnd, inbox):
        return [self.part] if rnd == self.at else []


class TestPartitioning:
    def test_boundary_nodes_touch_the_cut(self):
        topo = path_graph(6)
        sim = CutSimulation(
            topo, {u: SilentNode() for u in topo.nodes()}, alice_nodes={0, 1, 2}
        )
        assert sim.boundary == {2, 3}
        assert sim.cut_edges == [(2, 3)]

    def test_rejects_empty_side(self):
        topo = path_graph(4)
        handlers = {u: SilentNode() for u in topo.nodes()}
        with pytest.raises(ValueError):
            CutSimulation(topo, handlers, alice_nodes=set())
        with pytest.raises(ValueError):
            CutSimulation(topo, handlers, alice_nodes=set(topo.nodes()))

    def test_rejects_unknown_nodes(self):
        topo = path_graph(4)
        handlers = {u: SilentNode() for u in topo.nodes()}
        with pytest.raises(ValueError):
            CutSimulation(topo, handlers, alice_nodes={99})

    def test_split_by_bfs_half(self):
        topo = path_graph(8)
        alice = split_by_bfs_half(topo)
        assert alice == {0, 1, 2, 3}


class TestAccounting:
    def test_interior_broadcasts_are_free(self):
        # A beacon deep inside Alice's side never crosses the cut.
        topo = path_graph(6)
        handlers = {u: SilentNode() for u in topo.nodes()}
        handlers[0] = Beacon(Part("p", (), 10))
        sim = CutSimulation(topo, handlers, alice_nodes={0, 1, 2})
        tr = sim.run(3, stop_on_output=False)
        assert tr.total_bits == 0

    def test_boundary_broadcast_charged_to_the_right_party(self):
        topo = path_graph(6)
        handlers = {u: SilentNode() for u in topo.nodes()}
        handlers[2] = Beacon(Part("p", (), 10))
        handlers[3] = Beacon(Part("q", (), 7), at=2)
        sim = CutSimulation(topo, handlers, alice_nodes={0, 1, 2})
        tr = sim.run(3, stop_on_output=False)
        assert tr.alice_to_bob_bits == 10
        assert tr.bob_to_alice_bits == 7
        assert tr.total_bits == 17

    def test_per_round_series_sums_to_totals(self):
        topo = grid_graph(3, 3)
        params = params_for(topo, t=1)
        handlers = {u: AggNode(params, u, 1) for u in topo.nodes()}
        sim = CutSimulation(topo, handlers, split_by_bfs_half(topo))
        tr = sim.run(params.agg_rounds, stop_on_output=False)
        assert sum(a for a, _b in tr.per_round) == tr.alice_to_bob_bits
        assert sum(b for _a, b in tr.per_round) == tr.bob_to_alice_bits

    def test_per_node_bound_divides_by_boundary(self):
        topo = path_graph(6)
        handlers = {u: SilentNode() for u in topo.nodes()}
        handlers[2] = Beacon(Part("p", (), 30))
        sim = CutSimulation(topo, handlers, alice_nodes={0, 1, 2})
        tr = sim.run(2, stop_on_output=False)
        assert per_node_cut_lower_bound(tr, len(sim.boundary)) == 15.0
        with pytest.raises(ValueError):
            per_node_cut_lower_bound(tr, 0)


class TestProtocolsAcrossCuts:
    def test_agg_cut_traffic_bounded_by_boundary_budgets(self):
        # The simulation argument: cut traffic <= boundary nodes' total
        # sends <= |boundary| * per-node budget.
        topo = barbell_graph(5, 2)
        params = params_for(topo, t=2)
        handlers = {u: AggNode(params, u, 1) for u in topo.nodes()}
        sim = CutSimulation(topo, handlers, split_by_bfs_half(topo))
        tr = sim.run(params.agg_rounds, stop_on_output=False)
        assert tr.total_bits > 0  # the protocol genuinely crosses the cut
        assert tr.total_bits <= len(sim.boundary) * params.agg_bit_budget

    def test_bruteforce_cut_traffic_scales_with_n(self):
        costs = {}
        for clusters in (2, 4):
            topo = cluster_line_graph(clusters, 4)
            params = params_for(topo, t=0)
            handlers = {
                u: BruteForceNode(params, u, 1) for u in topo.nodes()
            }
            sim = CutSimulation(topo, handlers, split_by_bfs_half(topo))
            tr = sim.run(2 * params.cd, stop_on_output=False)
            costs[clusters] = tr.total_bits
        # Brute force ships every node's id+value across the cut: doubling
        # N roughly doubles the crossing traffic.
        assert costs[4] > 1.5 * costs[2]

    def test_cut_matches_network_bits_for_boundary_senders(self):
        topo = path_graph(5)
        params = params_for(topo, t=0)
        handlers = {u: BruteForceNode(params, u, 1) for u in topo.nodes()}
        sim = CutSimulation(topo, handlers, alice_nodes={0, 1})
        tr = sim.run(2 * params.cd, stop_on_output=False)
        stats = sim.network.stats
        expected = stats.bits_of(1) + stats.bits_of(2)
        assert tr.total_bits == expected
