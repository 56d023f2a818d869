"""Connectivity utilities over adjacency maps.

These helpers implement the structural queries the rest of the system
needs:

* connected components restricted to the currently live hosts — this is how
  the trace environment computes the paper's "nearby group" (all hosts
  reachable over the union of edges seen in the last 10 minutes);
* unions of adjacency maps over a time window.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set

__all__ = [
    "connected_component",
    "connected_components",
    "union_adjacency",
]

Adjacency = Dict[int, Set[int]]


def connected_component(graph: Adjacency, start: int, alive: Optional[Set[int]] = None) -> Set[int]:
    """All nodes reachable from ``start`` (restricted to ``alive`` if given)."""
    if alive is not None and start not in alive:
        return set()
    if start not in graph and (alive is None or start in alive):
        return {start}
    visited = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for neighbor in graph.get(node, ()):
            if alive is not None and neighbor not in alive:
                continue
            if neighbor not in visited:
                visited.add(neighbor)
                queue.append(neighbor)
    return visited


def connected_components(graph: Adjacency, alive: Optional[Set[int]] = None) -> List[Set[int]]:
    """All connected components (restricted to ``alive`` if given).

    Isolated live nodes form singleton components — a wireless device with
    nobody in range is still its own "group of one" for error reporting.
    """
    nodes = set(graph) if alive is None else set(alive)
    remaining = set(nodes)
    components: List[Set[int]] = []
    while remaining:
        start = next(iter(remaining))
        component = connected_component(graph, start, alive=nodes)
        components.append(component)
        remaining -= component
    return components


def union_adjacency(graphs: Iterable[Adjacency]) -> Adjacency:
    """The union of several adjacency maps (edges present in any of them).

    The trace environment uses this to build the paper's group definition:
    "two hosts are nearby if there exists a path from one to the other over
    the union of all edges that have existed in the last 10 minutes."
    """
    union: Adjacency = {}
    for graph in graphs:
        for node, neighbors in graph.items():
            union.setdefault(node, set()).update(neighbors)
            for neighbor in neighbors:
                union.setdefault(neighbor, set()).add(node)
    return union
