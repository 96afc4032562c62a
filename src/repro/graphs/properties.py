"""Graph property computations: BFS, distances, diameter, connectivity.

The paper's model assumes an arbitrary connected undirected topology ``G``
with known diameter ``d``, and a "remaining" graph ``H`` (failed nodes and
their incident edges deleted) whose diameter is assumed to stay within
``c * d``.  These helpers implement exactly the quantities needed there.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set


def bfs_levels(
    adjacency: Mapping[int, Sequence[int]],
    source: int,
    excluded: Optional[Set[int]] = None,
) -> Dict[int, int]:
    """Hop distances from ``source``, skipping ``excluded`` nodes.

    Returns a map containing only the nodes reachable from ``source``.
    """
    excluded = excluded or set()
    if source in excluded:
        return {}
    levels = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v in excluded or v in levels:
                continue
            levels[v] = levels[u] + 1
            queue.append(v)
    return levels


def is_connected(adjacency: Mapping[int, Sequence[int]]) -> bool:
    """Whether the whole graph is one connected component."""
    if not adjacency:
        return True
    source = next(iter(adjacency))
    return len(bfs_levels(adjacency, source)) == len(adjacency)


def component_of(
    adjacency: Mapping[int, Sequence[int]],
    source: int,
    excluded: Optional[Set[int]] = None,
) -> Set[int]:
    """The connected component containing ``source`` after removing ``excluded``."""
    return set(bfs_levels(adjacency, source, excluded))


def eccentricity(
    adjacency: Mapping[int, Sequence[int]],
    source: int,
    excluded: Optional[Set[int]] = None,
) -> int:
    """Largest hop distance from ``source`` within its component."""
    levels = bfs_levels(adjacency, source, excluded)
    if not levels:
        raise ValueError(f"source {source} is excluded or absent")
    return max(levels.values())


def diameter(
    adjacency: Mapping[int, Sequence[int]],
    nodes: Optional[Iterable[int]] = None,
) -> int:
    """Exact diameter of the (sub)graph induced by ``nodes`` (default: all).

    Takes & Kosters' BoundingDiameters (CIKM 2011), usually a handful of
    BFS instead of one per node.  A BFS from ``v`` bounds every
    candidate ``w``'s eccentricity by ``max(ecc(v) - d(v, w), d(v, w)) <=
    ecc(w) <= ecc(v) + d(v, w)``, and the diameter ``D`` by ``ecc(v) <= D
    <= 2 * ecc(v)``.  A candidate is dropped once its bounds meet, or once
    it can neither raise the lower bound (``hi <= d_low``) nor lower the
    upper one (``2 * lo >= d_high``); every dropped node's eccentricity
    is then at most ``d_low``, so ``D <= max(d_low, largest candidate
    hi)`` too.  The search stops when ``d_low == d_high`` or no candidate
    is left, and ``d_low`` is the diameter either way.
    Sources alternate between the largest upper bound (ties to the larger
    lower bound: likely periphery) and the smallest lower bound (ties to
    the smaller upper bound: likely centre), then to the higher degree,
    then to ``adjacency`` order.

    Raises ValueError if the induced subgraph is disconnected or empty.
    """
    if nodes is None:
        included = set(adjacency)
    else:
        included = set(nodes)
    if not included:
        raise ValueError("cannot take the diameter of an empty graph")
    excluded = set(adjacency) - included
    size = len(included)
    candidates = [u for u in adjacency if u in included]
    lo = dict.fromkeys(candidates, 0)
    hi = dict.fromkeys(candidates, size - 1)
    d_low, d_high = 0, size - 1
    pick_high = True
    while d_low < d_high and candidates:
        if pick_high:
            v = max(candidates,
                    key=lambda w: (hi[w], lo[w], len(adjacency[w])))
        else:
            v = min(candidates,
                    key=lambda w: (lo[w], hi[w], -len(adjacency[w])))
        pick_high = not pick_high
        levels = bfs_levels(adjacency, v, excluded)
        if len(levels) != size:
            raise ValueError("induced subgraph is disconnected")
        ecc = max(levels.values())
        d_low = max(d_low, ecc)
        d_high = min(d_high, 2 * ecc)
        kept = []
        for w in candidates:
            if w == v:
                continue
            dist = levels[w]
            lo_w = lo[w] = max(lo[w], ecc - dist, dist)
            hi_w = hi[w] = min(hi[w], ecc + dist)
            d_low = max(d_low, lo_w)
            if lo_w < hi_w and (hi_w > d_low or 2 * lo_w < d_high):
                kept.append(w)
        candidates = kept
        d_high = min(d_high, max([d_low] + [hi[w] for w in candidates]))
    return d_low


def subgraph_without(
    adjacency: Mapping[int, Sequence[int]], removed: Set[int]
) -> Dict[int, List[int]]:
    """Adjacency of the graph with ``removed`` nodes (and their edges) deleted."""
    return {
        u: [v for v in vs if v not in removed]
        for u, vs in adjacency.items()
        if u not in removed
    }


def edge_count(adjacency: Mapping[int, Sequence[int]]) -> int:
    """Number of undirected edges."""
    return sum(len(vs) for vs in adjacency.values()) // 2


def edges(adjacency: Mapping[int, Sequence[int]]) -> List[tuple]:
    """All undirected edges as sorted ``(u, v)`` pairs with ``u < v``."""
    out = []
    for u, vs in adjacency.items():
        for v in vs:
            if u < v:
                out.append((u, v))
    return sorted(out)


def validate_undirected(adjacency: Mapping[int, Sequence[int]]) -> None:
    """Raise ValueError unless ``adjacency`` is a simple undirected graph."""
    for u, vs in adjacency.items():
        seen = set()
        for v in vs:
            if v == u:
                raise ValueError(f"self-loop at node {u}")
            if v in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add(v)
            if v not in adjacency:
                raise ValueError(f"edge ({u}, {v}) points outside the graph")
            if u not in adjacency[v]:
                raise ValueError(f"edge ({u}, {v}) is not symmetric")
