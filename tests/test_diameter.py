"""``properties.diameter`` (BoundingDiameters) against an all-pairs BFS oracle.

The oracle is the one-BFS-per-node loop ``diameter`` used to be.  The
properties cover every generator in :mod:`repro.graphs.generators`, whole
graphs and the induced subgraphs left after random node removals (the
paper's remaining graph ``H``: :meth:`Topology.remaining_diameter` and
:meth:`Topology.remaining_diameter_at_most`).
"""

import inspect
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs import generators as gen
from repro.graphs import properties

SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def all_pairs_diameter(adjacency, nodes=None):
    """One BFS per node of the induced subgraph; raises like ``diameter``."""
    included = set(adjacency) if nodes is None else set(nodes)
    if not included:
        raise ValueError("empty")
    excluded = set(adjacency) - included
    best = 0
    for u in included:
        levels = properties.bfs_levels(adjacency, u, excluded)
        if len(levels) != len(included):
            raise ValueError("disconnected")
        best = max(best, max(levels.values()))
    return best


def outcome(diameter, adjacency, nodes):
    try:
        return diameter(adjacency, nodes)
    except ValueError:
        return "disconnected or empty"


#: Generator name -> builder from a Hypothesis ``draw`` and a seeded rng.
#: Sizes stay small so the oracle is cheap.
GENERATORS = {
    "path_graph": lambda draw, rng: gen.path_graph(draw(st.integers(2, 40))),
    "cycle_graph": lambda draw, rng: gen.cycle_graph(draw(st.integers(3, 40))),
    "star_graph": lambda draw, rng: gen.star_graph(draw(st.integers(2, 30))),
    "complete_graph": lambda draw, rng: gen.complete_graph(
        draw(st.integers(2, 12))),
    "grid_graph": lambda draw, rng: gen.grid_graph(
        draw(st.integers(1, 9)), draw(st.integers(2, 9))),
    "balanced_tree": lambda draw, rng: gen.balanced_tree(
        draw(st.integers(1, 4)), draw(st.integers(2, 50))),
    "caterpillar_graph": lambda draw, rng: gen.caterpillar_graph(
        draw(st.integers(2, 12)), draw(st.integers(0, 3))),
    "barbell_graph": lambda draw, rng: gen.barbell_graph(
        draw(st.integers(2, 6)), draw(st.integers(1, 6))),
    "random_geometric": lambda draw, rng: gen.random_geometric(
        draw(st.integers(5, 60)), rng=rng),
    "gnp_connected": lambda draw, rng: gen.gnp_connected(
        draw(st.integers(3, 50)), rng=rng),
    "random_tree": lambda draw, rng: gen.random_tree(
        draw(st.integers(2, 60)), rng=rng),
    "random_regular": lambda draw, rng: gen.random_regular(
        2 * draw(st.integers(3, 20)), 3, rng=rng),
    "clustered_graph": lambda draw, rng: gen.clustered_graph(
        draw(st.integers(2, 5)), draw(st.integers(2, 6)), rng=rng),
    "hypercube_graph": lambda draw, rng: gen.hypercube_graph(
        draw(st.integers(1, 5))),
    "torus_graph": lambda draw, rng: gen.torus_graph(
        draw(st.integers(3, 7)), draw(st.integers(3, 7))),
    "cluster_line_graph": lambda draw, rng: gen.cluster_line_graph(
        draw(st.integers(2, 6)), draw(st.integers(2, 5))),
    "lollipop_graph": lambda draw, rng: gen.lollipop_graph(
        draw(st.integers(2, 7)), draw(st.integers(1, 8))),
}


@st.composite
def topologies(draw):
    name = draw(st.sampled_from(sorted(GENERATORS)))
    rng = random.Random(draw(st.integers(0, 2**16)))
    return GENERATORS[name](draw, rng)


def test_every_generator_is_covered():
    public = {
        name
        for name, fn in vars(gen).items()
        if inspect.isfunction(fn)
        and fn.__module__ == gen.__name__
        and not name.startswith("_")
        and name != "standard_suite"
    }
    assert public == set(GENERATORS)


@settings(**SETTINGS)
@given(topologies())
def test_matches_all_pairs_on_every_generator(topo):
    assert properties.diameter(topo.adjacency) == all_pairs_diameter(
        topo.adjacency
    )


@settings(**SETTINGS)
@given(topologies(), st.data())
def test_matches_all_pairs_after_node_removals(topo, data):
    adj = topo.adjacency
    others = [u for u in adj if u != topo.root]
    failed = set(data.draw(st.lists(st.sampled_from(others), unique=True,
                                    max_size=len(others) // 2)))
    survivors = set(adj) - failed
    component = properties.component_of(adj, topo.root, failed)
    expected = all_pairs_diameter(adj, component)
    assert properties.diameter(adj, component) == expected
    assert topo.remaining_diameter(failed) == max(1, expected)
    for bound in range(max(1, expected // 2 - 1), 2 * expected + 3):
        assert topo.remaining_diameter_at_most(failed, bound) == (
            max(1, expected) <= bound
        )
    # Every survivor, and a few stray nodes: often disconnected, so both
    # must raise alike.
    stray = data.draw(st.sets(st.sampled_from(others), min_size=1, max_size=4))
    for nodes in (survivors, stray):
        assert outcome(properties.diameter, adj, nodes) == outcome(
            all_pairs_diameter, adj, nodes
        )


def test_empty_subgraph_raises():
    adj = gen.grid_graph(3, 3).adjacency
    with pytest.raises(ValueError):
        properties.diameter(adj, [])
    with pytest.raises(ValueError):
        properties.diameter({})


def test_single_node_has_diameter_zero():
    adj = gen.path_graph(4).adjacency
    assert properties.diameter(adj, [2]) == 0


def test_large_grid_needs_few_bfs(monkeypatch):
    topo = gen.grid_graph(100, 100)
    calls = []
    real = properties.bfs_levels

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(properties, "bfs_levels", counting)
    assert properties.diameter(topo.adjacency) == 198
    assert len(calls) <= 20


def _bfs_count(monkeypatch, adjacency):
    calls = []
    real = properties.bfs_levels

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(properties, "bfs_levels", counting)
    result = properties.diameter(adjacency)
    monkeypatch.undo()
    return result, len(calls)


def test_benchmark_graphs_keep_their_bfs_counts(monkeypatch):
    grid = gen.grid_graph(20, 20).adjacency
    geo = gen.random_geometric(200, radius=0.15, rng=random.Random(0)).adjacency
    assert _bfs_count(monkeypatch, grid) == (38, 5)
    assert _bfs_count(monkeypatch, geo) == (13, 4)


@pytest.mark.parametrize("topo", [
    gen.cycle_graph(101),
    gen.torus_graph(9, 11),
    gen.hypercube_graph(7),
    gen.complete_graph(30),
], ids=lambda topo: topo.name)
def test_vertex_transitive_graphs_match_all_pairs(monkeypatch, topo):
    """Every eccentricity is equal, so no candidate is ever dropped and
    the search ends without its bounds; it still visits every node."""
    expected = all_pairs_diameter(topo.adjacency)
    assert _bfs_count(monkeypatch, topo.adjacency) == (
        expected, len(topo.adjacency)
    )
