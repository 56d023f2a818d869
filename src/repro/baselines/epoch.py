"""Epoch-restarted Push-Sum.

Section II-C describes the simplest way to make a static protocol dynamic:
periodically reset it and start over.  The protocol below restarts
Push-Sum every ``epoch_length`` rounds; between restarts it reports the
estimate the *previous* epoch converged to (reporting the half-converged
current epoch would be strictly worse).  Per-host epoch offsets model the
weak clock synchronisation the paper worries about: hosts whose epochs are
misaligned reset at different rounds, and mass exchanged across an epoch
boundary is partially discarded — exactly the disruption described for
mobile hosts travelling between cliques.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.push_sum import WEIGHT_EPSILON, MassState, PushSum

__all__ = ["EpochPushSum", "EpochState"]


@dataclass
class EpochState:
    """Per-host state: the inner Push-Sum mass plus epoch bookkeeping."""

    mass: MassState
    epoch_offset: int
    current_epoch: int
    reported_estimate: float


class EpochPushSum(PushSum):
    """Push-Sum restarted every ``epoch_length`` rounds.

    Parameters
    ----------
    epoch_length:
        Rounds between restarts.  Too short and the protocol resets before
        converging; too long and the reported value grows stale — the tuning
        dilemma the paper uses to motivate Push-Sum-Revert.
    max_offset:
        Per-host epoch offset drawn uniformly from ``[0, max_offset]``;
        ``0`` models perfectly synchronised clocks.
    """

    name = "epoch-push-sum"
    aggregate = "average"

    def __init__(self, epoch_length: int = 15, max_offset: int = 0):
        if epoch_length < 1:
            raise ValueError("epoch_length must be >= 1")
        if max_offset < 0:
            raise ValueError("max_offset must be non-negative")
        self.epoch_length = int(epoch_length)
        self.max_offset = int(max_offset)

    # ------------------------------------------------------------------ state
    def create_state(self, host_id: int, value: float, rng: np.random.Generator) -> EpochState:
        offset = int(rng.integers(0, self.max_offset + 1)) if self.max_offset else 0
        return EpochState(
            mass=MassState(
                weight=1.0,
                total=float(value),
                initial_value=float(value),
                last_estimate=float(value),
            ),
            epoch_offset=offset,
            current_epoch=0,
            reported_estimate=float(value),
        )

    def rebase(self, state: EpochState, value: float) -> None:
        state.mass.initial_value = float(value)

    # ------------------------------------------------------------- round hooks
    def begin_round(self, state: EpochState, round_index: int, rng: np.random.Generator) -> None:
        epoch = (round_index + state.epoch_offset) // self.epoch_length
        if epoch != state.current_epoch:
            # Freeze the estimate the finished epoch reached, then restart.
            if state.mass.weight > WEIGHT_EPSILON:
                state.reported_estimate = state.mass.total / state.mass.weight
            state.mass.weight = 1.0
            state.mass.total = state.mass.initial_value
            state.current_epoch = epoch

    def make_payloads(
        self, state: EpochState, peers: Sequence[int], rng: np.random.Generator
    ) -> List[Tuple[Optional[int], Any]]:
        return super().make_payloads(state.mass, peers, rng)

    def integrate(self, state: EpochState, payloads: Sequence[Any], rng: np.random.Generator) -> None:
        super().integrate(state.mass, payloads, rng)

    def finalize_round(self, state: EpochState, received_count: int, rng: np.random.Generator) -> None:
        super().finalize_round(state.mass, received_count, rng)

    def exchange(self, state_a: EpochState, state_b: EpochState, rng: np.random.Generator) -> None:
        if state_a.current_epoch != state_b.current_epoch:
            # Hosts in different epochs cannot meaningfully mix mass; the
            # younger host adopts nothing and the exchange is wasted — the
            # "disruption while the destination clique settles on a new epoch
            # number" the paper describes.
            return
        super().exchange(state_a.mass, state_b.mass, rng)

    def exchange_size(self, state_a: EpochState, state_b: EpochState) -> int:
        return 20  # mass plus the epoch counter annotation

    # -------------------------------------------------------------- estimates
    def estimate(self, state: EpochState) -> float:
        # Early in an epoch the inner estimate is dominated by the host's own
        # value; report the previous epoch's converged value instead.
        return state.reported_estimate

    def state_mass(self, state: EpochState) -> Optional[float]:
        # The epoch restart in begin_round re-mints mass by design; the
        # engine measures that injection around the hook (DESIGN.md §8).
        return float(state.mass.weight)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "aggregate": self.aggregate,
            "epoch_length": self.epoch_length,
            "max_offset": self.max_offset,
        }
