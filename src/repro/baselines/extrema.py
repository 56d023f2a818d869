"""Gossip-based extrema (min / max) aggregation.

Extrema are the simplest duplicate-insensitive aggregates: the merge
operator is ``min`` (or ``max``), so any amount of re-forwarding leaves the
result unchanged, and convergence takes the same O(log n) rounds as rumour
spreading.  The paper's introduction lists "most popular song" — an argmax
— among the aggregates a proximity application wants, and extrema share
exactly the dynamic-membership weakness of counting sketches: once a host
has exported the global maximum, the value survives the host's departure
forever.

Two protocols are provided:

* :class:`ExtremaGossip` — the static baseline: hosts gossip the best value
  (and the identifier of the host that originated it) they have seen.
* :class:`ExtremaReset` — a dynamic extension built with the same freshness
  idea as Count-Sketch-Reset: the best value travels with an *age* counter
  that every hop increments once per round and that its originator keeps
  resetting to zero; a value whose age exceeds a cutoff is discarded and
  the host falls back to the best still-fresh value it knows (at worst its
  own).  When the host owning the maximum departs, its value stops being
  refreshed and ages out within `cutoff` + propagation-time rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulator.protocol import ExchangeProtocol

__all__ = ["ExtremaGossip", "ExtremaReset", "ExtremaState"]


@dataclass
class ExtremaState:
    """Per-host extrema state: the host's own value plus the best known value."""

    own_value: float
    own_id: int
    best_value: float
    best_id: int
    best_age: int = 0


class ExtremaGossip(ExchangeProtocol):
    """Static gossip maximum (or minimum) — converges fast, never forgets.

    Parameters
    ----------
    maximum:
        True (default) tracks the maximum, False the minimum.
    """

    name = "extrema-gossip"
    aggregate = "max"
    fanout = 1

    def __init__(self, maximum: bool = True):
        self.maximum = bool(maximum)
        self.aggregate = "max" if maximum else "min"

    # ------------------------------------------------------------------ state
    def create_state(self, host_id: int, value: float, rng: np.random.Generator) -> ExtremaState:
        return ExtremaState(own_value=float(value), own_id=host_id,
                            best_value=float(value), best_id=host_id)

    def rebase(self, state: ExtremaState, value: float) -> None:
        """Update the host's own datum (used by value-change events).

        When the host currently advertises its *own* value, the advertised
        copy moves with it; a best value learned from elsewhere is kept (it
        can only be displaced by gossip or, under :class:`ExtremaReset`, by
        ageing out).  Mirrors
        :meth:`repro.simulator.extrema_kernel.VectorizedExtrema.change_values`.
        """
        state.own_value = float(value)
        if state.best_id == state.own_id:
            state.best_value = float(value)

    def _better(self, a: float, b: float) -> bool:
        return a > b if self.maximum else a < b

    # ------------------------------------------------------------- push hooks
    def make_payloads(
        self, state: ExtremaState, peers: Sequence[int], rng: np.random.Generator
    ) -> List[Tuple[Optional[int], Any]]:
        payload = (state.best_value, state.best_id, state.best_age)
        return [(peer, payload) for peer in peers]

    def integrate(
        self, state: ExtremaState, payloads: Sequence[Any], rng: np.random.Generator
    ) -> None:
        for value, identifier, age in payloads:
            self._absorb(state, value, identifier, age)

    def _absorb(self, state: ExtremaState, value: float, identifier: int, age: int) -> None:
        if self._better(value, state.best_value) or (
            value == state.best_value and age < state.best_age
        ):
            state.best_value = value
            state.best_id = identifier
            state.best_age = age

    # --------------------------------------------------------- exchange hooks
    def exchange(
        self, state_a: ExtremaState, state_b: ExtremaState, rng: np.random.Generator
    ) -> None:
        self._absorb(state_a, state_b.best_value, state_b.best_id, state_b.best_age)
        self._absorb(state_b, state_a.best_value, state_a.best_id, state_a.best_age)

    def exchange_size(self, state_a: ExtremaState, state_b: ExtremaState) -> int:
        return 16

    # -------------------------------------------------------------- estimates
    def estimate(self, state: ExtremaState) -> float:
        return state.best_value

    def argmax(self, state: ExtremaState) -> int:
        """The identifier of the host believed to hold the extremum."""
        return state.best_id

    def payload_size(self, payload: Any) -> int:
        return 16

    def describe(self) -> dict:
        return {"name": self.name, "aggregate": self.aggregate, "maximum": self.maximum}


class ExtremaReset(ExtremaGossip):
    """Dynamic extrema: the best value ages out unless its originator refreshes it.

    Parameters
    ----------
    maximum:
        Track the maximum (default) or minimum.
    cutoff:
        Maximum tolerated age (rounds since the originator last refreshed the
        value, as observed locally).  Under uniform gossip the age of a value
        whose originator is alive stays below the network's rumour-spreading
        time, so a cutoff a little above log2(population) suffices; the
        default of 15 covers every population this library simulates.
    """

    name = "extrema-reset"

    def __init__(self, maximum: bool = True, cutoff: int = 15):
        super().__init__(maximum)
        if cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        self.cutoff = int(cutoff)

    def begin_round(self, state: ExtremaState, round_index: int, rng: np.random.Generator) -> None:
        # Our own value is always fresh; everything learned from others ages.
        if state.best_id == state.own_id:
            # Re-sync the advertised copy to the *current* own value: after a
            # value change the host may have re-absorbed its own stale
            # advertisement from the network, and refreshing that would keep
            # the outdated value alive forever.
            state.best_value = state.own_value
            state.best_age = 0
        else:
            state.best_age += 1
            if state.best_age > self.cutoff:
                # The extremum has not been refreshed for longer than any live
                # originator could explain: forget it and fall back to our own
                # value (gossip will re-supply the true current extremum).
                state.best_value = state.own_value
                state.best_id = state.own_id
                state.best_age = 0

    def describe(self) -> dict:
        description = super().describe()
        description["cutoff"] = self.cutoff
        return description
