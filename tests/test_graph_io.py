"""Topology serialization round-trips and exports."""

import os

import pytest

from repro.graphs import Topology, grid_graph, io, random_geometric, star_graph


class TestEdgeList:
    def test_round_trip(self):
        topo = grid_graph(3, 4)
        text = io.to_edge_list(topo)
        back = io.from_edge_list(text)
        assert back.adjacency == topo.adjacency
        assert back.root == topo.root
        assert back.name == topo.name

    def test_header_optional(self):
        topo = io.from_edge_list("0 1\n1 2\n")
        assert topo.n_nodes == 3
        assert topo.root == 0

    def test_duplicate_edges_collapse(self):
        topo = io.from_edge_list("0 1\n1 0\n0 1\n")
        assert topo.n_edges == 1

    def test_explicit_root_override(self):
        topo = io.from_edge_list("0 1\n1 2\n", root=2)
        assert topo.root == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no edges"):
            io.from_edge_list("# nothing\n")


class TestJson:
    def test_round_trip(self):
        topo = star_graph(7)
        back = io.from_json(io.to_json(topo))
        assert back.adjacency == topo.adjacency
        assert back.name == topo.name
        assert back.root == topo.root

    def test_json_is_stable(self):
        topo = grid_graph(2, 3)
        assert io.to_json(topo) == io.to_json(topo)

    def test_node_order_survives_the_sorted_keys(self):
        # A network runs its nodes in adjacency order; the sorted JSON
        # keys put "10" before "2", so the order must be rebuilt.
        topo = grid_graph(4, 4)
        back = io.from_json(io.to_json(topo))
        assert list(back.adjacency) == list(topo.adjacency)
        assert "order" not in io.to_dict(topo)

        order = [5, 12, 0, *(u for u in range(16) if u not in (5, 12, 0))]
        shuffled = Topology({u: topo.adjacency[u] for u in order}, root=0)
        assert io.to_dict(shuffled)["order"] == order
        assert list(io.from_json(io.to_json(shuffled)).adjacency) == order


class TestDot:
    def test_dot_structure(self):
        topo = star_graph(4)
        dot = io.to_dot(topo)
        assert dot.startswith('graph "star(4)" {')
        assert "0 [shape=doublecircle];" in dot
        assert "0 -- 1;" in dot
        assert dot.rstrip().endswith("}")

    def test_dot_highlights_failed_nodes(self):
        topo = star_graph(4)
        dot = io.to_dot(topo, highlight={2})
        assert "2 [color=red" in dot


class TestFiles:
    def test_save_load_json(self, tmp_path):
        topo = random_geometric(20)
        path = os.path.join(tmp_path, "t.json")
        io.save(topo, path)
        assert io.load(path).adjacency == topo.adjacency

    def test_save_load_edge_list(self, tmp_path):
        topo = grid_graph(3, 3)
        path = os.path.join(tmp_path, "t.edges")
        io.save(topo, path)
        assert io.load(path).adjacency == topo.adjacency

    def test_save_dot(self, tmp_path):
        topo = grid_graph(2, 2)
        path = os.path.join(tmp_path, "t.dot")
        io.save(topo, path)
        with open(path) as fh:
            assert "graph" in fh.read()
