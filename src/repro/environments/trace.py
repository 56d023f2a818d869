"""Trace-driven gossip environment.

This environment replays a contact trace: at round ``t`` a host may gossip
only with devices currently within wireless range according to the trace.
It also implements the paper's group definition for error reporting:
"two hosts are nearby if there exists a path from one to the other over the
union of all edges that have existed in the last 10 minutes", and a host's
error is measured against the aggregate of its group.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from repro.environments.base import GossipEnvironment
from repro.mobility.traces import ContactTrace
from repro.topology.connectivity import connected_components

__all__ = ["TraceEnvironment"]

Adjacency = Dict[int, Set[int]]


class TraceEnvironment(GossipEnvironment):
    """Gossip restricted to whoever the contact trace says is in range.

    Parameters
    ----------
    trace:
        The contact trace to replay (real CRAWDAD export or synthetic).
    round_seconds:
        Simulated seconds per gossip round.  The paper performs "one round
        of gossip every thirty seconds of simulated time".
    group_window_seconds:
        Width of the trailing window whose edge-union defines groups
        (600 s = 10 minutes in the paper).
    broadcast:
        When true, a host gossips with *all* hosts currently in range rather
        than a single random one — modelling the paper's observation that
        "wireless devices can communicate with all devices in range at
        roughly constant cost".  Defaults to false (one peer per round).
    """

    provides_groups = True

    def __init__(
        self,
        trace: ContactTrace,
        *,
        round_seconds: float = 30.0,
        group_window_seconds: float = 600.0,
        broadcast: bool = False,
    ):
        if round_seconds <= 0:
            raise ValueError("round_seconds must be positive")
        if group_window_seconds < 0:
            raise ValueError("group_window_seconds must be non-negative")
        self.trace = trace
        self.round_seconds = float(round_seconds)
        self.group_window_seconds = float(group_window_seconds)
        self.broadcast = bool(broadcast)
        self._adjacency_cache: Dict[int, Adjacency] = {}
        self._group_cache: Dict[int, List[Set[int]]] = {}

    # ------------------------------------------------------------------ time
    def time_of_round(self, round_index: int) -> float:
        """Simulated time (seconds) at which ``round_index`` takes place."""
        return round_index * self.round_seconds

    def total_rounds(self) -> int:
        """Number of rounds needed to replay the whole trace."""
        return int(self.trace.duration // self.round_seconds) + 1

    # ------------------------------------------------------------- adjacency
    def _adjacency(self, round_index: int) -> Adjacency:
        if round_index not in self._adjacency_cache:
            # Keep the cache bounded: traces span thousands of rounds.
            if len(self._adjacency_cache) >= 4096:
                self._adjacency_cache.clear()
            self._adjacency_cache[round_index] = self.trace.adjacency_at(
                self.time_of_round(round_index)
            )
        return self._adjacency_cache[round_index]

    def select_peers(
        self,
        host_id: int,
        alive: Set[int],
        round_index: int,
        count: int,
        rng: np.random.Generator,
    ) -> List[int]:
        adjacency = self._adjacency(round_index)
        candidates = [n for n in adjacency.get(host_id, ()) if n in alive and n != host_id]
        if not candidates:
            return []
        if self.broadcast:
            return candidates
        return self._sample_distinct(candidates, count, rng)

    # ----------------------------------------------------------------- groups
    def groups(self, alive: Set[int], round_index: int) -> List[Set[int]]:
        if round_index not in self._group_cache:
            if len(self._group_cache) >= 4096:
                self._group_cache.clear()
            time = self.time_of_round(round_index)
            if self.group_window_seconds > 0:
                union = self.trace.adjacency_between(
                    max(0.0, time - self.group_window_seconds), time + 1e-9
                )
            else:
                union = self._adjacency(round_index)
            self._group_cache[round_index] = connected_components(union)
        components = self._group_cache[round_index]
        alive_set = set(alive)
        groups = [component & alive_set for component in components]
        groups = [group for group in groups if group]
        # Live hosts absent from the trace union (never seen any contact yet)
        # are their own singleton groups.
        covered = set().union(*groups) if groups else set()
        for host in alive_set - covered:
            groups.append({host})
        return groups

    def register_host(self, host_id: int) -> None:
        if host_id >= self.trace.n_devices:
            raise ValueError(
                "TraceEnvironment population is fixed by the trace "
                f"({self.trace.n_devices} devices); cannot register host {host_id}"
            )
