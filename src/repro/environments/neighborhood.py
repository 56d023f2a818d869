"""Graph-restricted gossip environment."""

from __future__ import annotations

from typing import Dict, List, Set

import numpy as np

from repro.environments.base import GossipEnvironment
from repro.topology.connectivity import connected_components

__all__ = ["NeighborhoodEnvironment"]

Adjacency = Dict[int, Set[int]]


class NeighborhoodEnvironment(GossipEnvironment):
    """Hosts may only gossip with their neighbours in a static graph.

    This models low-connectivity deployments (sensor grids, sparse wireless
    meshes).  Groups are the connected components of the live-host-induced
    subgraph, so group-relative error reporting works exactly as in the
    trace environment.

    Parameters
    ----------
    adjacency:
        Undirected adjacency map (see :mod:`repro.topology.graphs`).
    """

    provides_groups = True

    def __init__(self, adjacency: Adjacency):
        self.adjacency: Adjacency = {node: set(neighbors) for node, neighbors in adjacency.items()}
        # Symmetrise defensively: the engine assumes undirected links.
        for node, neighbors in list(self.adjacency.items()):
            for neighbor in neighbors:
                self.adjacency.setdefault(neighbor, set()).add(node)

    def select_peers(
        self,
        host_id: int,
        alive: Set[int],
        round_index: int,
        count: int,
        rng: np.random.Generator,
    ) -> List[int]:
        candidates = [n for n in self.adjacency.get(host_id, ()) if n in alive and n != host_id]
        return self._sample_distinct(candidates, count, rng)

    def groups(self, alive: Set[int], round_index: int) -> List[Set[int]]:
        return connected_components(self.adjacency, alive=set(alive))

    def register_host(self, host_id: int) -> None:
        self.adjacency.setdefault(host_id, set())
