"""Graph property computations, cross-validated against networkx."""

import random

import networkx as nx
import pytest

from repro.graphs import properties
from repro.graphs.generators import gnp_connected, grid_graph, path_graph


def to_nx(adjacency):
    g = nx.Graph()
    g.add_nodes_from(adjacency)
    for u, vs in adjacency.items():
        g.add_edges_from((u, v) for v in vs)
    return g


class TestBfsLevels:
    def test_path_levels(self):
        adj = path_graph(5).adjacency
        assert properties.bfs_levels(adj, 0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_excluded_nodes_block(self):
        adj = path_graph(5).adjacency
        levels = properties.bfs_levels(adj, 0, excluded={2})
        assert set(levels) == {0, 1}

    def test_excluded_source_gives_empty(self):
        adj = path_graph(3).adjacency
        assert properties.bfs_levels(adj, 0, excluded={0}) == {}

    def test_matches_networkx(self):
        topo = gnp_connected(30, rng=random.Random(3))
        ours = properties.bfs_levels(topo.adjacency, 0)
        theirs = nx.single_source_shortest_path_length(to_nx(topo.adjacency), 0)
        assert ours == dict(theirs)


class TestConnectivity:
    def test_connected_graph(self):
        assert properties.is_connected(path_graph(4).adjacency)

    def test_disconnected_graph(self):
        assert not properties.is_connected({0: [1], 1: [0], 2: []})

    def test_empty_graph_is_connected(self):
        assert properties.is_connected({})

    def test_component_of(self):
        adj = {0: [1], 1: [0], 2: [3], 3: [2]}
        assert properties.component_of(adj, 0) == {0, 1}
        assert properties.component_of(adj, 2) == {2, 3}

    def test_component_respects_exclusions(self):
        adj = path_graph(5).adjacency
        assert properties.component_of(adj, 0, excluded={2}) == {0, 1}


class TestDiameter:
    @pytest.mark.parametrize(
        "topo,expected",
        [
            (path_graph(6), 5),
            (grid_graph(3, 3), 4),
        ],
    )
    def test_known_diameters(self, topo, expected):
        assert properties.diameter(topo.adjacency) == expected

    def test_matches_networkx_on_random_graphs(self):
        for seed in range(5):
            topo = gnp_connected(25, rng=random.Random(seed))
            assert properties.diameter(topo.adjacency) == nx.diameter(
                to_nx(topo.adjacency)
            )

    def test_induced_subgraph_diameter(self):
        adj = path_graph(6).adjacency
        assert properties.diameter(adj, nodes={0, 1, 2}) == 2

    def test_disconnected_subgraph_raises(self):
        adj = path_graph(6).adjacency
        with pytest.raises(ValueError):
            properties.diameter(adj, nodes={0, 5})

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            properties.diameter({}, nodes=set())

class TestEdgesAndValidation:
    def test_edge_count(self):
        assert properties.edge_count(grid_graph(3, 3).adjacency) == 12

    def test_edges_sorted_pairs(self):
        edges = properties.edges(path_graph(3).adjacency)
        assert edges == [(0, 1), (1, 2)]

    def test_validate_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            properties.validate_undirected({0: [0]})

    def test_validate_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="not symmetric"):
            properties.validate_undirected({0: [1], 1: []})

    def test_validate_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            properties.validate_undirected({0: [1, 1], 1: [0]})

    def test_validate_rejects_dangling_edge(self):
        with pytest.raises(ValueError, match="outside"):
            properties.validate_undirected({0: [7]})
