"""The gossip-environment interface consumed by the simulation engine."""

from __future__ import annotations

import abc
from typing import Iterable, List, Sequence, Set

import numpy as np

__all__ = ["GossipEnvironment", "LiveRoster"]


class LiveRoster(frozenset):
    """The live host ids of one round: a frozen set that also lists itself.

    ``members`` is ``tuple(self)``, materialised once, so an environment can
    pick a live host by index without copying the set per call.  Build it
    from the *sorted* id list: a set iterates in the order its history of
    insertions left it in, and the peer picked is ``members[k]``.
    """

    __slots__ = ("members", "_index")

    def __new__(cls, sorted_ids):
        self = super().__new__(cls, sorted_ids)
        self.members = tuple(self)
        self._index = None
        return self

    def ranks(self, hosts: Iterable[int]) -> List[int]:
        """Each host's index in ``members``; ``len(self)`` for a host outside.

        The id-to-index map is built on first use.
        """
        if self._index is None:
            self._index = {host: index for index, host in enumerate(self.members)}
        get, outside = self._index.get, len(self.members)
        return [get(host, outside) for host in hosts]


class GossipEnvironment(abc.ABC):
    """Decides which peers a host may gossip with at a given round.

    The round engine calls :meth:`select_peers_round` once per round, the
    event engine :meth:`select_peers` once per clock tick.  An environment
    may also *provide groups* — a partition of the live hosts into "nearby"
    clusters — in which case trace-style experiments can measure each
    host's error against its own group's aggregate (Fig 11).

    Attributes
    ----------
    provides_groups:
        True when :meth:`groups` returns a meaningful partition rather than
        the single all-hosts group.
    """

    provides_groups: bool = False

    @abc.abstractmethod
    def select_peers(
        self,
        host_id: int,
        alive: Set[int],
        round_index: int,
        count: int,
        rng: np.random.Generator,
    ) -> List[int]:
        """Select up to ``count`` gossip peers for ``host_id``.

        The returned peers must be live and distinct from ``host_id``.  An
        isolated host gets an empty list and simply skips the round — a
        situation that arises constantly in the trace-driven environment.
        """

    def select_peers_round(
        self,
        hosts: Sequence[int],
        alive: Set[int],
        round_index: int,
        count: int,
        rng: np.random.Generator,
    ) -> List[List[int]]:
        """One round's :meth:`select_peers` for each of ``hosts``, in order.

        The default calls :meth:`select_peers` host by host.  An environment
        that batches the round's draws overrides it, and must consume ``rng``
        exactly as those calls would: the two granularities are one stream.
        """
        return [self.select_peers(host, alive, round_index, count, rng) for host in hosts]

    def groups(self, alive: Set[int], round_index: int) -> List[Set[int]]:
        """Partition of the live hosts into "nearby" groups.

        The default is a single group containing everybody, which is correct
        for fully connected environments.
        """
        return [set(alive)] if alive else []

    def register_host(self, host_id: int) -> None:
        """Called by the engine when a host joins after construction.

        Environments with per-host structure (positions, trace identity)
        override this; the default accepts the new host silently.
        """

    # ------------------------------------------------------------------ util
    @staticmethod
    def _sample_distinct(
        candidates: Sequence[int], count: int, rng: np.random.Generator
    ) -> List[int]:
        """Sample up to ``count`` distinct entries of ``candidates``.

        The returned order is always random — even when every candidate is
        taken.  Callers routinely use only the first entry (exchange mode
        gossips with ``peers[0]``), so returning a low-degree host's
        candidates in adjacency order would make it gossip with the same
        neighbour every round.
        """
        if not candidates or count <= 0:
            return []
        size = min(count, len(candidates))
        picks = rng.choice(len(candidates), size=size, replace=False)
        return [candidates[int(index)] for index in picks]
