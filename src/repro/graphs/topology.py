"""The :class:`Topology` value object used across the library.

A topology bundles an undirected adjacency structure with the quantities the
paper's protocols are allowed to know: the number of nodes ``N``, the
designated root, and the diameter ``d``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from . import properties


class Topology:
    """A connected undirected graph with a designated root node.

    Node ids are the integers ``0 .. N-1``; the root defaults to node 0
    (the paper's base station / gateway).
    """

    def __init__(
        self,
        adjacency: Mapping[int, Sequence[int]],
        name: str = "custom",
        root: int = 0,
    ) -> None:
        properties.validate_undirected(adjacency)
        if root not in adjacency:
            raise ValueError(f"root {root} is not a node of the graph")
        if not properties.is_connected(adjacency):
            raise ValueError("the paper's model requires a connected topology")
        self.adjacency: Dict[int, Tuple[int, ...]] = {
            u: tuple(sorted(vs)) for u, vs in adjacency.items()
        }
        self.name = name
        self.root = root
        self._diameter: Optional[int] = None
        self._levels: Optional[Dict[int, int]] = None

    @property
    def n_nodes(self) -> int:
        """Number of nodes ``N``."""
        return len(self.adjacency)

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return properties.edge_count(self.adjacency)

    @property
    def diameter(self) -> int:
        """Exact diameter ``d`` (>= 1 for any graph with >= 2 nodes)."""
        if self._diameter is None:
            self._diameter = max(1, properties.diameter(self.adjacency))
        return self._diameter

    @property
    def levels(self) -> Dict[int, int]:
        """BFS hop distance of every node from the root."""
        if self._levels is None:
            self._levels = properties.bfs_levels(self.adjacency, self.root)
        return self._levels

    def nodes(self) -> List[int]:
        """All node ids, sorted."""
        return sorted(self.adjacency)

    def non_root_nodes(self) -> List[int]:
        """All node ids except the root, sorted."""
        return [u for u in self.nodes() if u != self.root]

    def neighbours(self, node: int) -> Tuple[int, ...]:
        """Neighbours of ``node``."""
        return self.adjacency[node]

    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        return len(self.adjacency[node])

    def edges(self) -> List[tuple]:
        """All undirected edges as sorted pairs."""
        return properties.edges(self.adjacency)

    def edges_incident(self, nodes: Iterable[int]) -> int:
        """Number of edges with at least one endpoint in ``nodes``.

        This is the paper's edge-failure count for a set of failed nodes.
        """
        failed = set(nodes)
        return sum(
            1 for (u, v) in self.edges() if u in failed or v in failed
        )

    def alive_component(self, failed: Iterable[int]) -> set:
        """Nodes still connected to the root once ``failed`` are removed."""
        failed_set = set(failed)
        if self.root in failed_set:
            raise ValueError("the root never fails in the paper's model")
        return properties.component_of(self.adjacency, self.root, failed_set)

    def remaining_diameter(self, failed: Iterable[int]) -> int:
        """Diameter of the root's component after removing ``failed`` nodes.

        This is the paper's ``H`` diameter, used to check the ``<= c*d``
        assumption.  Returns at least 1.
        """
        component = self.alive_component(failed)
        return max(1, properties.diameter(self.adjacency, component))

    def remaining_diameter_at_most(self, failed: Iterable[int], bound: int) -> bool:
        """Exactly ``remaining_diameter(failed) <= bound``, usually from one BFS.

        The root's eccentricity ``ecc`` in ``H`` brackets its diameter:
        ``ecc <= diam(H) <= 2 * ecc``.  So ``ecc > bound`` decides False
        and ``2 * ecc <= bound`` decides True; only the band between falls
        back to the full diameter.
        """
        failed_set = set(failed)
        if self.root in failed_set:
            raise ValueError("the root never fails in the paper's model")
        if bound < 1:
            return False
        levels = properties.bfs_levels(self.adjacency, self.root, failed_set)
        ecc = max(levels.values())
        if ecc > bound:
            return False
        if 2 * ecc <= bound:
            return True
        return properties.diameter(self.adjacency, levels) <= bound

    def __repr__(self) -> str:
        return (
            f"Topology({self.name!r}, n={self.n_nodes}, "
            f"m={self.n_edges}, root={self.root})"
        )
