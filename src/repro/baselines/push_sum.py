"""Kempe et al.'s Push-Sum averaging protocol (and its push/pull variant).

Every host maintains a *mass*: a weight ``w`` (initially 1) and a sum ``v``
(initially the host's value).  Each round the host sends half of its mass
to a random peer and half to itself, then replaces its mass with the total
mass it received.  The ratio ``v/w`` converges to the network-wide average
because every exchange conserves total mass while mixing it.

The push/pull variant (Karp et al.) lets the contacted peer respond, which
in mass terms makes each exchange a pairwise averaging of the two masses;
the paper uses push/pull for all its averaging experiments because it
roughly halves convergence time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulator.protocol import ExchangeProtocol

__all__ = ["MassState", "PushSum", "PushPull"]


@dataclass
class MassState:
    """Per-host Push-Sum state.

    Attributes
    ----------
    weight, total:
        The mass: normalisation weight ``w`` and value sum ``v``.
    initial_value:
        The host's own datum ``v₀``; Push-Sum never looks at it again after
        initialisation, but Push-Sum-Revert decays towards it.
    last_estimate:
        The most recent well-defined estimate, reported while the host
        temporarily holds no mass (possible under Full-Transfer).
    history:
        Recent ``(weight, total)`` snapshots; used only by the Full-Transfer
        optimisation's windowed estimator.
    """

    weight: float
    total: float
    initial_value: float
    last_estimate: float
    history: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def mass(self) -> Tuple[float, float]:
        """The (weight, total) pair."""
        return (self.weight, self.total)


class PushSum(ExchangeProtocol):
    """Kempe et al.'s Push-Sum averaging (Figure 1 of the paper).

    Parameters
    ----------
    weight_epsilon:
        Weights below this threshold are treated as "no mass": the host
        reports its last well-defined estimate instead of dividing by ~0.
    """

    name = "push-sum"
    aggregate = "average"
    fanout = 1

    def __init__(self, weight_epsilon: float = 1e-12):
        if weight_epsilon <= 0:
            raise ValueError("weight_epsilon must be positive")
        self.weight_epsilon = float(weight_epsilon)

    # ------------------------------------------------------------------ state
    def create_state(self, host_id: int, value: float, rng: np.random.Generator) -> MassState:
        return MassState(
            weight=1.0,
            total=float(value),
            initial_value=float(value),
            last_estimate=float(value),
        )

    def rebase(self, state: MassState, value: float) -> None:
        """Update the host's own datum (used by value-change events)."""
        state.initial_value = float(value)

    # ------------------------------------------------------------- push hooks
    def make_payloads(
        self,
        state: MassState,
        peers: Sequence[int],
        rng: np.random.Generator,
    ) -> List[Tuple[Optional[int], Any]]:
        if not peers:
            # Isolated host: all mass goes back to itself, nothing changes.
            return [(None, (state.weight, state.total))]
        half = (state.weight / 2.0, state.total / 2.0)
        return [(None, half), (peers[0], half)]

    def integrate(
        self, state: MassState, payloads: Sequence[Any], rng: np.random.Generator
    ) -> None:
        if not payloads:
            # Everything this host owned was pushed out and nothing arrived:
            # the host is left (temporarily) massless.
            state.weight = 0.0
            state.total = 0.0
            return
        weights, totals = zip(*payloads)
        state.weight = float(sum(weights))
        state.total = float(sum(totals))

    def finalize_round(
        self, state: MassState, received_count: int, rng: np.random.Generator
    ) -> None:
        self._refresh_estimate(state)

    # --------------------------------------------------------- exchange hooks
    def exchange(self, state_a: MassState, state_b: MassState, rng: np.random.Generator) -> None:
        """Push/pull reconciliation: both parties leave with the average mass.

        Exchanging half the *difference* in mass (Karp et al.) is exactly a
        pairwise averaging of the two mass vectors, and conserves their sum.
        """
        mean_weight = (state_a.weight + state_b.weight) / 2.0
        mean_total = (state_a.total + state_b.total) / 2.0
        state_a.weight = state_b.weight = mean_weight
        state_a.total = state_b.total = mean_total
        self._refresh_estimate(state_a)
        self._refresh_estimate(state_b)

    def exchange_size(self, state_a: MassState, state_b: MassState) -> int:
        return 16  # two 8-byte floats each way

    # -------------------------------------------------------------- estimates
    def _refresh_estimate(self, state: MassState) -> None:
        if state.weight > self.weight_epsilon:
            state.last_estimate = state.total / state.weight

    def estimate(self, state: MassState) -> float:
        if state.weight > self.weight_epsilon:
            return state.total / state.weight
        return state.last_estimate

    # ---------------------------------------------------------- sign-off hook
    def sign_off(
        self,
        state: MassState,
        peer_state: Optional[MassState],
        rng: np.random.Generator,
    ) -> None:
        """Graceful departure: hand the whole mass to a surviving peer.

        Used by :class:`repro.core.departure.GracefulDepartureEvent`; with no
        survivor available the mass is simply dropped (the silent-failure
        outcome).
        """
        if peer_state is not None:
            peer_state.weight += state.weight
            peer_state.total += state.total
        state.weight = 0.0
        state.total = 0.0

    def payload_size(self, payload: Any) -> int:
        return 16

    # ----------------------------------------------------------- conservation
    def payload_mass(self, payload: Any) -> Optional[float]:
        """The weight component — the quantity Push-Sum conserves."""
        return float(payload[0])

    def state_mass(self, state: MassState) -> Optional[float]:
        return float(state.weight)

    def describe(self) -> dict:
        return {"name": self.name, "aggregate": self.aggregate, "fanout": self.fanout}


class PushPull(PushSum):
    """Push-Sum run exclusively in push/pull (pairwise exchange) mode.

    Functionally identical to :class:`PushSum`; the separate class exists so
    experiment configurations read the way the paper describes them
    ("the Push-Pull variant of traditional Push-Sum").
    """

    name = "push-pull"
