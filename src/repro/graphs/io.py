"""Topology serialization: edge lists, JSON, and Graphviz DOT export.

Real deployments describe their topology in files; these helpers round-trip
:class:`repro.graphs.topology.Topology` through the common plain-text
formats so experiments can run against externally captured networks.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, TextIO, Union

from .topology import Topology


def to_edge_list(topology: Topology) -> str:
    """Render as whitespace-separated edge lines, with a header comment.

    Format::

        # name=<name> root=<root> n=<N>
        0 1
        0 5
        ...
    """
    lines = [
        f"# name={topology.name} root={topology.root} n={topology.n_nodes}"
    ]
    lines.extend(f"{u} {v}" for u, v in topology.edges())
    return "\n".join(lines) + "\n"


def from_edge_list(text: str, name: Optional[str] = None, root: int = 0) -> Topology:
    """Parse the :func:`to_edge_list` format (header optional).

    Isolated nodes cannot be expressed in an edge list; the paper's model
    requires connectivity anyway, so this is not a restriction.
    """
    parsed_name, parsed_root = name, root
    adjacency: Dict[int, List[int]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                if token.startswith("name=") and name is None:
                    parsed_name = token[5:]
                elif token.startswith("root="):
                    parsed_root = int(token[5:])
            continue
        u_str, v_str = line.split()
        u, v = int(u_str), int(v_str)
        adjacency.setdefault(u, [])
        adjacency.setdefault(v, [])
        if v not in adjacency[u]:
            adjacency[u].append(v)
            adjacency[v].append(u)
    if not adjacency:
        raise ValueError("edge list contains no edges")
    return Topology(adjacency, name=parsed_name or "edge_list", root=parsed_root)


def to_dict(topology: Topology) -> Dict:
    """The JSON-ready form: adjacency (string keys), name, root, and the
    node order when it is not ascending.

    A network runs its nodes in adjacency order, but JSON writers sort
    string keys ("10" before "2"), so :func:`from_dict` rebuilds the
    adjacency in ascending ids (every generator's order) unless ``order``
    records another one.
    """
    doc = {
        "name": topology.name,
        "root": topology.root,
        "adjacency": {str(u): list(vs) for u, vs in topology.adjacency.items()},
    }
    order = list(topology.adjacency)
    if order != sorted(order):
        doc["order"] = order
    return doc


def from_dict(doc: Dict, name: str = "json") -> Topology:
    """Rebuild a :func:`to_dict` form, in its recorded node order;
    ``name`` is the fallback when the form has none."""
    adjacency = doc["adjacency"]
    order = doc.get("order") or sorted(map(int, adjacency))
    return Topology(
        {int(u): list(adjacency[str(u)]) for u in order},
        name=doc.get("name", name),
        root=int(doc.get("root", 0)),
    )


def to_json(topology: Topology) -> str:
    """Serialize to a JSON document (:func:`to_dict`)."""
    return json.dumps(to_dict(topology), indent=2, sort_keys=True)


def from_json(text: str) -> Topology:
    """Parse the :func:`to_json` format."""
    return from_dict(json.loads(text))


def to_dot(topology: Topology, highlight: Optional[set] = None) -> str:
    """Render as Graphviz DOT, optionally highlighting a node set (e.g.
    crashed nodes) in red.  The root is drawn as a double circle."""
    highlight = highlight or set()
    lines = [f'graph "{topology.name}" {{']
    for u in topology.nodes():
        attrs = []
        if u == topology.root:
            attrs.append("shape=doublecircle")
        if u in highlight:
            attrs.append("color=red")
            attrs.append("style=filled")
            attrs.append("fillcolor=mistyrose")
        attr_text = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {u}{attr_text};")
    for u, v in topology.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def save(topology: Topology, path: str) -> None:
    """Write a topology to ``path``; format chosen by extension
    (``.json``, ``.dot``, anything else = edge list)."""
    if path.endswith(".json"):
        text = to_json(topology)
    elif path.endswith(".dot"):
        text = to_dot(topology)
    else:
        text = to_edge_list(topology)
    with open(path, "w") as fh:
        fh.write(text)


def load(path: str) -> Topology:
    """Read a topology from ``path`` (``.json`` or edge-list format)."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        return from_json(text)
    return from_edge_list(text)
