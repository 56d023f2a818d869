"""Spatial gossip on a grid with 1/d² multi-hop peer selection.

Section IV-A of the paper notes that logarithmic gossip convergence can be
recovered even when hosts are laid out on a D-dimensional grid and can
only reach their immediate neighbours, provided occasional long-distance
exchanges are performed: the source picks a distance ``d`` with
probability proportional to ``1/d²`` and reaches a peer roughly ``d`` hops
away via a random walk (Kempe, Kleinberg, Demers — spatial gossip).  This
environment implements exactly that peer-selection rule on a 2-D grid.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.environments.base import GossipEnvironment
from repro.topology.connectivity import connected_components
from repro.topology.graphs import grid_graph, grid_positions

__all__ = ["SpatialGridEnvironment"]


class SpatialGridEnvironment(GossipEnvironment):
    """Grid-restricted gossip with 1/d² long-distance random walks.

    Parameters
    ----------
    width, height:
        Grid dimensions; hosts ``0..width*height-1`` occupy the grid
        row-major.
    max_distance:
        Upper bound on the sampled walk length ``d``; defaults to the grid
        diameter.
    walk:
        When true (default), the long-distance peer is found by an actual
        random walk of length ``d`` over live hosts — the faithful model of
        multi-hop forwarding, whose endpoint distribution is only
        approximately distance-``d``.  When false, the peer is sampled
        uniformly from the live hosts at L1 distance exactly ``d`` (an
        idealisation that is faster and slightly better mixed).
    """

    provides_groups = True

    def __init__(
        self,
        width: int,
        height: int,
        *,
        max_distance: Optional[int] = None,
        walk: bool = True,
    ):
        if width < 1 or height < 1:
            raise ValueError("grid dimensions must be positive")
        self.width = int(width)
        self.height = int(height)
        self.positions: Dict[int, Tuple[int, int]] = grid_positions(width, height)
        self.adjacency = grid_graph(width, height)
        diameter = (width - 1) + (height - 1)
        self.max_distance = int(max_distance) if max_distance is not None else max(1, diameter)
        if self.max_distance < 1:
            raise ValueError("max_distance must be >= 1")
        self.walk = bool(walk)
        # Pre-compute the 1/d^2 distance distribution.
        distances = np.arange(1, self.max_distance + 1, dtype=float)
        weights = 1.0 / distances**2
        self._distance_probabilities = weights / weights.sum()

    # ------------------------------------------------------------------ peers
    def _sample_distance(self, rng: np.random.Generator) -> int:
        return int(rng.choice(len(self._distance_probabilities), p=self._distance_probabilities)) + 1

    def _random_walk(
        self, start: int, length: int, alive: Set[int], rng: np.random.Generator
    ) -> Optional[int]:
        """Endpoint of a ``length``-step walk over live hosts, or ``None``.

        A walk that dead-ends before completing its sampled length must
        *fail* the attempt (so the caller re-draws a distance), not return
        the dead-end host: keeping truncated endpoints over-weights short
        distances next to failed regions and distorts the 1/d² long-link
        distribution.
        """
        current = start
        for _ in range(length):
            steps = [n for n in self.adjacency[current] if n in alive]
            if not steps:
                return None
            current = steps[int(rng.integers(0, len(steps)))]
        return current if current != start else None

    def _peer_at_distance(
        self, start: int, distance: int, alive: Set[int], rng: np.random.Generator
    ) -> Optional[int]:
        col, row = self.positions[start]
        ring = [
            host
            for host, (c, r) in self.positions.items()
            if abs(c - col) + abs(r - row) == distance and host in alive
        ]
        if not ring:
            return None
        return ring[int(rng.integers(0, len(ring)))]

    def select_peers(
        self,
        host_id: int,
        alive: Set[int],
        round_index: int,
        count: int,
        rng: np.random.Generator,
    ) -> List[int]:
        peers: List[int] = []
        attempts = 0
        while len(peers) < count and attempts < 4 * max(1, count):
            attempts += 1
            distance = self._sample_distance(rng)
            if self.walk:
                peer = self._random_walk(host_id, distance, alive, rng)
            else:
                peer = self._peer_at_distance(host_id, distance, alive, rng)
            if peer is not None and peer != host_id and peer in alive and peer not in peers:
                peers.append(peer)
        return peers

    def groups(self, alive: Set[int], round_index: int) -> List[Set[int]]:
        return connected_components(self.adjacency, alive=set(alive))

    def register_host(self, host_id: int) -> None:
        if host_id not in self.positions:
            raise ValueError(
                "SpatialGridEnvironment has a fixed population; "
                f"cannot register host {host_id} beyond the {self.width}x{self.height} grid"
            )
