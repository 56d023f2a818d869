"""Uniform (fully connected) gossip environment."""

from __future__ import annotations

from typing import List, Set

import numpy as np

from repro.environments.base import GossipEnvironment, LiveRoster

__all__ = ["UniformEnvironment"]


class UniformEnvironment(GossipEnvironment):
    """Every live host may gossip with every other live host.

    This is the idealised model used for the large-scale experiments in the
    paper (Figs 6, 8, 9, 10): peer selection is uniform over the live
    population.  The engine passes one :class:`LiveRoster` per round, so
    failed hosts are never selected and a call costs O(count) draws; a plain
    set from any other caller is sorted into a roster first (O(n log n)).

    Parameters
    ----------
    n:
        Initial number of hosts (informational; the live set passed by the
        engine is authoritative).
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("n must be non-negative")
        self.n = int(n)

    def select_peers(
        self,
        host_id: int,
        alive: Set[int],
        round_index: int,
        count: int,
        rng: np.random.Generator,
    ) -> List[int]:
        if not isinstance(alive, LiveRoster):
            alive = LiveRoster(sorted(alive))
        members = alive.members
        population = len(members)
        if population <= 1 or count <= 0:
            return []
        # Rejection-sample identifiers while dead or unregistered ids make the
        # id space wider than the population; a dense space, or a missed draw,
        # indexes the roster's member list instead.  Fall back to explicit
        # sampling when that too would thrash (tiny alive sets).
        peers: List[int] = []
        seen = {host_id}
        attempts = 0
        max_attempts = 16 * max(1, count)
        wanted = min(count, population - 1)
        while len(peers) < wanted:
            attempts += 1
            if attempts > max_attempts:
                unseen = [h for h in members if h not in seen]
                peers.extend(self._sample_distinct(unseen, wanted - len(peers), rng))
                break
            candidate = int(rng.integers(0, self.n)) if self.n > population else None
            if candidate is None or candidate not in alive or candidate in seen:
                candidate = members[int(rng.integers(0, population))]
                if candidate in seen:
                    continue
            peers.append(candidate)
            seen.add(candidate)
        return peers

    def register_host(self, host_id: int) -> None:
        self.n = max(self.n, host_id + 1)
