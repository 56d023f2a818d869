"""Invert-Average: dynamic summation as size × average (paper Section IV-B).

Registering a host's integer value as that many sketch identifiers
(multiple-insertion summation) scales poorly: the sketch has to be large
enough for the *sum*, and its full width travels in every message.
Invert-Average instead runs two cheap protocols side by side —
Count-Sketch-Reset to estimate the number of live hosts and
Push-Sum-Revert to estimate their average value — and multiplies the two
estimates.  Errors multiply too, but Push-Sum-Revert's state is two floats
versus the sketch's hundreds of counters, and one sketch instance can be
amortised across any number of simultaneous sum queries (Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.push_sum import MassState
from repro.core.count_sketch_reset import CountSketchReset, CountSketchResetState
from repro.core.cutoff import default_cutoff
from repro.core.push_sum_revert import PushSumRevert
from repro.simulator.protocol import ExchangeProtocol

__all__ = ["InvertAverage", "InvertAverageState"]


@dataclass
class InvertAverageState:
    """Per-host state: the two sub-protocol states, side by side."""

    count_state: CountSketchResetState
    average_state: MassState


class InvertAverage(ExchangeProtocol):
    """Network-wide sum as (estimated size) × (estimated average).

    Parameters
    ----------
    reversion:
        Reversion constant λ for the averaging half.
    bins, bits, cutoff, identifiers_per_host:
        Parameters of the Count-Sketch-Reset half (see
        :class:`repro.core.CountSketchReset`).
    adaptive:
        Indegree-adaptive reversion for the averaging half.
    """

    name = "invert-average"
    aggregate = "sum"
    fanout = 1

    def __init__(
        self,
        reversion: float = 0.01,
        *,
        bins: int = 64,
        bits: int = 24,
        cutoff: Callable[[int], float] = default_cutoff,
        identifiers_per_host: int = 1,
        adaptive: bool = False,
    ):
        self.counter = CountSketchReset(
            bins,
            bits,
            cutoff=cutoff,
            identifiers_per_host=identifiers_per_host,
        )
        self.averager = PushSumRevert(reversion, adaptive=adaptive)

    # ------------------------------------------------------------------ state
    def create_state(
        self, host_id: int, value: float, rng: np.random.Generator
    ) -> InvertAverageState:
        return InvertAverageState(
            count_state=self.counter.create_state(host_id, value, rng),
            average_state=self.averager.create_state(host_id, value, rng),
        )

    def rebase(self, state: InvertAverageState, value: float) -> None:
        self.averager.rebase(state.average_state, value)

    # ------------------------------------------------------------- round hooks
    def begin_round(
        self, state: InvertAverageState, round_index: int, rng: np.random.Generator
    ) -> None:
        self.counter.begin_round(state.count_state, round_index, rng)
        self.averager.begin_round(state.average_state, round_index, rng)

    def make_payloads(
        self,
        state: InvertAverageState,
        peers: Sequence[int],
        rng: np.random.Generator,
    ) -> List[Tuple[Optional[int], Any]]:
        count_payloads = dict(self._keyed(self.counter.make_payloads(state.count_state, peers, rng)))
        average_payloads = dict(self._keyed(self.averager.make_payloads(state.average_state, peers, rng)))
        destinations = set(count_payloads) | set(average_payloads)
        return [
            (destination, (count_payloads.get(destination), average_payloads.get(destination)))
            for destination in destinations
        ]

    @staticmethod
    def _keyed(payloads: Sequence[Tuple[Optional[int], Any]]):
        for destination, payload in payloads:
            yield destination, payload

    def integrate(
        self,
        state: InvertAverageState,
        payloads: Sequence[Any],
        rng: np.random.Generator,
    ) -> None:
        count_parts = [count for count, _ in payloads if count is not None]
        average_parts = [average for _, average in payloads if average is not None]
        if count_parts:
            self.counter.integrate(state.count_state, count_parts, rng)
        # The averaging half must integrate even an empty list: receiving no
        # mass is meaningful for Push-Sum.
        self.averager.integrate(state.average_state, average_parts, rng)

    def finalize_round(
        self, state: InvertAverageState, received_count: int, rng: np.random.Generator
    ) -> None:
        self.counter.finalize_round(state.count_state, received_count, rng)
        self.averager.finalize_round(state.average_state, received_count, rng)

    # --------------------------------------------------------- exchange hooks
    def exchange(
        self,
        state_a: InvertAverageState,
        state_b: InvertAverageState,
        rng: np.random.Generator,
    ) -> None:
        self.counter.exchange(state_a.count_state, state_b.count_state, rng)
        self.averager.exchange(state_a.average_state, state_b.average_state, rng)

    def exchange_size(self, state_a: InvertAverageState, state_b: InvertAverageState) -> int:
        return self.counter.exchange_size(
            state_a.count_state, state_b.count_state
        ) + self.averager.exchange_size(state_a.average_state, state_b.average_state)

    # -------------------------------------------------------------- estimates
    def estimate(self, state: InvertAverageState) -> float:
        size = self.counter.estimate(state.count_state)
        average = self.averager.estimate(state.average_state)
        return size * average

    # ---------------------------------------------------------- sign-off hook
    def sign_off(
        self,
        state: InvertAverageState,
        peer_state: Optional[InvertAverageState],
        rng: np.random.Generator,
    ) -> None:
        """Graceful departure: sign off both halves."""
        self.counter.sign_off(
            state.count_state, peer_state.count_state if peer_state else None, rng
        )
        self.averager.sign_off(
            state.average_state, peer_state.average_state if peer_state else None, rng
        )

    def payload_size(self, payload: Any) -> int:
        count_payload, average_payload = payload
        size = 0
        if count_payload is not None:
            size += self.counter.payload_size(count_payload)
        if average_payload is not None:
            size += self.averager.payload_size(average_payload)
        return size

    def describe(self) -> dict:
        return {
            "name": self.name,
            "aggregate": self.aggregate,
            "counter": self.counter.describe(),
            "averager": self.averager.describe(),
        }
