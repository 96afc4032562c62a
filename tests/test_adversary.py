"""Failure schedules, edge budgets, and adversary generators."""

import math
import random

import pytest

from repro.adversary import (
    EdgeBudget,
    FailureSchedule,
    affordable_nodes,
    blocker_failures,
    chain_failures,
    concentrated_failures,
    no_failures,
    predicted_tree,
    random_failures,
    spread_failures,
    tree_path_to_root,
)
from repro.graphs import cycle_graph, grid_graph, path_graph, star_graph


class TestFailureSchedule:
    def test_crash_round_defaults_to_infinity(self):
        assert FailureSchedule().crash_round(3) == math.inf

    def test_add_keeps_earliest(self):
        s = FailureSchedule().add(1, 10).add(1, 5).add(1, 8)
        assert s.crash_round(1) == 5

    def test_rejects_round_zero(self):
        with pytest.raises(ValueError):
            FailureSchedule().add(1, 0)

    def test_failed_by(self):
        s = FailureSchedule({1: 3, 2: 7})
        assert s.failed_by(2) == set()
        assert s.failed_by(3) == {1}
        assert s.failed_by(10) == {1, 2}

    def test_failures_in_window(self):
        s = FailureSchedule({1: 3, 2: 7, 3: 9})
        assert s.failures_in_window(4, 9) == {2, 3}

    def test_edge_failures_matches_topology_count(self):
        topo = star_graph(6)
        s = FailureSchedule({1: 2, 2: 2})
        assert s.edge_failures(topo) == 2

    def test_edge_failures_in_window_partition(self):
        topo = path_graph(6)
        s = FailureSchedule({1: 3, 4: 10})
        first = s.edge_failures_in_window(topo, 1, 5)
        second = s.edge_failures_in_window(topo, 6, 20)
        assert first + second == s.edge_failures(topo)

    def test_validate_rejects_root_failure(self):
        topo = path_graph(4)
        with pytest.raises(ValueError, match="root"):
            FailureSchedule({0: 1}).validate(topo)

    def test_validate_rejects_unknown_node(self):
        topo = path_graph(4)
        with pytest.raises(ValueError, match="unknown"):
            FailureSchedule({9: 1}).validate(topo)

    def test_validate_rejects_over_budget(self):
        topo = star_graph(5)
        with pytest.raises(ValueError, match="budget"):
            FailureSchedule({1: 1, 2: 1, 3: 1}).validate(topo, f=2)

    def test_respects_c_constraint_true_case(self):
        topo = grid_graph(4, 4)
        s = FailureSchedule({5: 3})
        assert s.respects_c_constraint(topo, c=2)

    def test_respects_c_constraint_false_case(self):
        # Cutting a cycle nearly doubles the diameter: c=1 is violated.
        topo = cycle_graph(12)
        s = FailureSchedule({6: 2})
        assert not s.respects_c_constraint(topo, c=1)
        assert s.respects_c_constraint(topo, c=2)

    def test_len(self):
        assert len(FailureSchedule({1: 2, 5: 3})) == 2


class TestEdgeBudget:
    def test_cost_of_first_node_is_degree(self):
        topo = star_graph(5)
        budget = EdgeBudget(topo, 10)
        assert budget.cost_of(1) == 1

    def test_cost_discounts_already_failed_neighbours(self):
        topo = path_graph(4)
        budget = EdgeBudget(topo, 10)
        budget.charge(1)
        # Node 2's edges: (1,2) already failed, (2,3) fresh.
        assert budget.cost_of(2) == 1

    def test_charge_tracks_usage(self):
        topo = path_graph(5)
        budget = EdgeBudget(topo, 4)
        assert budget.charge(2) == 2
        assert budget.used == 2
        assert budget.remaining == 2

    def test_charge_rejects_over_budget(self):
        topo = star_graph(8)
        budget = EdgeBudget(topo, 0)
        with pytest.raises(ValueError):
            budget.charge(1)

    def test_charge_rejects_root(self):
        topo = path_graph(3)
        budget = EdgeBudget(topo, 10)
        with pytest.raises(ValueError, match="root"):
            budget.charge(0)

    def test_affordable_nodes_excludes_expensive(self):
        topo = star_graph(6)
        budget = EdgeBudget(topo, 1)
        # Every leaf costs 1; all leaves affordable, root excluded.
        assert affordable_nodes(budget) == [1, 2, 3, 4, 5]

    def test_total_failed_edges_equals_topology_count(self):
        topo = grid_graph(4, 4)
        rng = random.Random(0)
        budget = EdgeBudget(topo, 9)
        while affordable_nodes(budget):
            budget.charge(rng.choice(affordable_nodes(budget)))
        assert budget.used == topo.edges_incident(budget.failed)
        assert budget.used <= 9


class TestGenerators:
    def test_no_failures_empty(self):
        assert len(no_failures()) == 0

    @pytest.mark.parametrize("f", [1, 4, 9])
    def test_random_failures_respect_budget(self, f):
        topo = grid_graph(4, 4)
        for seed in range(5):
            s = random_failures(topo, f, random.Random(seed), last_round=50)
            assert s.edge_failures(topo) <= f
            assert 0 not in s.failed_nodes

    def test_random_failures_within_window(self):
        topo = grid_graph(4, 4)
        s = random_failures(topo, 6, random.Random(1), first_round=10, last_round=20)
        assert all(10 <= r <= 20 for r in s.crash_rounds.values())

    def test_random_failures_respect_c(self):
        topo = cycle_graph(16)
        s = random_failures(topo, 8, random.Random(2), last_round=30, respect_c=2)
        assert s.respects_c_constraint(topo, 2)

    def test_concentrated_failures_in_window(self):
        topo = grid_graph(4, 4)
        s = concentrated_failures(topo, 6, random.Random(3), window=(100, 110))
        assert s.failures_in_window(100, 110) == s.failed_nodes

    def test_spread_failures_cover_horizon(self):
        topo = grid_graph(5, 5)
        s = spread_failures(topo, 10, random.Random(4), horizon=1000)
        rounds = sorted(s.crash_rounds.values())
        assert len(rounds) >= 2
        assert rounds[-1] - rounds[0] >= 100  # genuinely spread out

    def test_blocker_kills_victim_and_neighbourhood_same_round(self):
        topo = grid_graph(4, 4)
        s = blocker_failures(topo, f=12, victim=5, at_round=42)
        assert 5 in s.failed_nodes
        assert len(s.failed_nodes) > 1
        assert set(s.crash_rounds.values()) == {42}

    def test_blocker_rejects_root_victim(self):
        topo = grid_graph(3, 3)
        with pytest.raises(ValueError):
            blocker_failures(topo, f=8, victim=0, at_round=1)

    def test_blocker_rejects_unaffordable_victim(self):
        # Grid node 5 has degree 4 > budget 2.
        topo = grid_graph(4, 4)
        with pytest.raises(ValueError, match="budget"):
            blocker_failures(topo, f=2, victim=5, at_round=1)


class TestPredictedTreeAndChains:
    def test_predicted_tree_levels(self):
        topo = grid_graph(3, 3)
        parent, children = predicted_tree(topo)
        assert parent[0] == -1
        assert parent[1] == 0 and parent[3] == 0
        # node 4 has neighbours 1 and 3 at level 1; smallest id wins.
        assert parent[4] == 1
        assert 4 in children[1]

    def test_tree_path_to_root(self):
        topo = path_graph(5)
        parent, _ = predicted_tree(topo)
        assert tree_path_to_root(parent, 4) == [4, 3, 2, 1, 0]

    def test_chain_failures_form_tree_chain(self):
        topo = grid_graph(5, 5)
        s = chain_failures(topo, chain_length=3, at_round=7, rng=random.Random(1))
        assert s is not None
        parent, _ = predicted_tree(topo)
        chain = sorted(s.failed_nodes, key=lambda u: -topo.levels[u])
        for deeper, upper in zip(chain, chain[1:]):
            assert parent[deeper] == upper
        assert set(s.crash_rounds.values()) == {7}

    def test_chain_failures_none_when_too_shallow(self):
        topo = star_graph(8)  # depth 1: no room for a chain of 3
        assert chain_failures(topo, chain_length=3, at_round=5) is None

    def test_chain_failures_respects_budget(self):
        topo = grid_graph(5, 5)
        s = chain_failures(
            topo, chain_length=2, at_round=5, f=8, rng=random.Random(0)
        )
        assert s is not None
        assert s.edge_failures(topo) <= 8
