"""Uniform (fully connected) gossip environment."""

from __future__ import annotations

from bisect import insort
from typing import List, Sequence, Set

import numpy as np

from repro.environments.base import GossipEnvironment, LiveRoster

__all__ = ["UniformEnvironment"]


class UniformEnvironment(GossipEnvironment):
    """Every live host may gossip with every other live host.

    The idealised model of the paper's large-scale experiments (Figs 6, 8,
    9, 10).  A host's ``j``-th peer is a draw ``r ∈ [0, pop − 1 − j)`` mapped
    to the ``r``-th roster member that is neither the host nor one of its
    earlier picks.  A round of single peers is one ``rng.integers`` call, the
    same stream as its hosts' :meth:`select_peers` calls (DESIGN.md §2).

    ``n`` is the initial number of hosts: informational, as the live set the
    engine passes is authoritative.
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
        alive = alive if isinstance(alive, LiveRoster) else LiveRoster(sorted(alive))
        (rank,) = alive.ranks((host_id,))
        others = len(alive) - (rank < len(alive))
        skipped, peers = [rank], []  # skipped: the host and its picks, ascending
        for bound in range(others, max(others - count, 0), -1):
            draw = int(rng.integers(0, bound))
            for index in skipped:
                draw += draw >= index
            insort(skipped, draw)
            peers.append(alive.members[draw])
        return peers

    def select_peers_round(
        self,
        hosts: Sequence[int],
        alive: Set[int],
        round_index: int,
        count: int,
        rng: np.random.Generator,
    ) -> List[List[int]]:
        alive = alive if isinstance(alive, LiveRoster) else LiveRoster(sorted(alive))
        if count != 1 or len(alive) < 2:
            return super().select_peers_round(hosts, alive, round_index, count, rng)
        # One draw per host, stepped past the host's own index (an outsider's
        # rank is past every member): select_peers' rule, a round at a time.
        # The round engine's push round passes the roster's members in order.
        if tuple(hosts) == alive.members:
            ranks = np.arange(len(alive), dtype=np.int64)
        else:
            ranks = np.array(alive.ranks(hosts), dtype=np.int64)
        draws = rng.integers(0, len(alive) - (ranks < len(alive)))
        draws += draws >= ranks
        return np.array(alive.members, dtype=np.int64)[draws, None].tolist()
