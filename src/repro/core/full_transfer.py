"""The Full-Transfer optimisation of Push-Sum-Revert (paper Section III-A).

Push-Sum-Revert's residual error comes from each host continually
re-injecting its *own* initial value: the host's estimate is biased towards
itself and its neighbourhood.  The Full-Transfer optimisation removes that
bias by making each host export its **entire** mass every round, split into
``N`` parcels sent to ``N`` independently chosen peers (paper Figure 4):

    send ⟨((1−λ)·w + λ)/N , ((1−λ)·v + λ·v₀)/N⟩  to each of N peers.

The host's next-round mass is purely imported, so successive estimates are
no longer correlated through the host's own value.  The price is variance —
a host may receive little or no mass in a given round — which is recovered
by estimating from the sum of the mass received over the last ``T`` rounds
during which any mass arrived.

With λ = 0.5 the paper reports convergence in under 10 rounds at a standard
deviation of ≈2.13 (8.5 % of the true average 25); with λ = 0.1 convergence
takes ≈35 rounds but the plateau drops to ≈0.69 (2.8 %).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.push_sum import WEIGHT_EPSILON, MassState
from repro.core.push_sum_revert import PushSumRevert

__all__ = ["FullTransferPushSumRevert"]


class FullTransferPushSumRevert(PushSumRevert):
    """Push-Sum-Revert with the Full-Transfer optimisation.

    Parameters
    ----------
    reversion:
        The reversion constant λ.
    parcels:
        ``N``: number of peers the mass is split across each round (the
        paper's experiments use 4).
    history:
        ``T``: number of most recent mass-bearing rounds averaged into the
        estimate (the paper's experiments use 3).
    adaptive:
        Indegree-adaptive λ, as in :class:`PushSumRevert`.

    Notes
    -----
    Full-Transfer is a push-pattern protocol (a host addresses N distinct
    peers per round); run the engine with ``mode="push"``.
    """

    name = "push-sum-revert-full-transfer"
    #: Full-Transfer addresses N distinct peers per round; it has no pairwise
    #: exchange form, so the engine must run it in push mode.
    supports_exchange = False

    def __init__(
        self,
        reversion: float = 0.1,
        *,
        parcels: int = 4,
        history: int = 3,
        adaptive: bool = False,
    ):
        super().__init__(reversion, adaptive=adaptive)
        if parcels < 1:
            raise ValueError("parcels must be >= 1")
        if history < 1:
            raise ValueError("history must be >= 1")
        self.parcels = int(parcels)
        self.history = int(history)
        self.fanout = int(parcels)

    # ------------------------------------------------------------- push hooks
    def begin_round(self, state: MassState, round_index: int, rng: np.random.Generator) -> None:
        # Figure 4 reverts the mass on its way out.  Reverting here, before
        # the send, lets the engines book the change as minted mass.
        lam = self.reversion
        state.weight = (1.0 - lam) * state.weight + lam * 1.0
        state.total = (1.0 - lam) * state.total + lam * state.initial_value

    def make_payloads(
        self,
        state: MassState,
        peers: Sequence[int],
        rng: np.random.Generator,
    ) -> List[Tuple[Optional[int], Any]]:
        if not peers:
            # Nobody in range: the host keeps its (reverted) mass itself.
            return [(None, (state.weight, state.total))]
        share = float(len(peers))
        parcel = (state.weight / share, state.total / share)
        return [(peer, parcel) for peer in peers]

    def integrate(
        self, state: MassState, payloads: Sequence[Any], rng: np.random.Generator
    ) -> None:
        if not payloads:
            # All mass was exported and nothing arrived this round.
            state.weight = 0.0
            state.total = 0.0
            return
        state.weight = float(sum(weight for weight, _ in payloads))
        state.total = float(sum(total for _, total in payloads))

    def finalize_round(
        self, state: MassState, received_count: int, rng: np.random.Generator
    ) -> None:
        # Reversion was already applied in begin_round, before the mass went
        # out (Figure 4 folds it into the message), so none here.  Record
        # the round's imported mass for the windowed estimator, skipping
        # rounds in which no mass arrived (as the paper prescribes).
        if state.weight > WEIGHT_EPSILON:
            state.history.append((state.weight, state.total))
            if len(state.history) > self.history:
                del state.history[: len(state.history) - self.history]
        self._refresh_estimate(state)

    # -------------------------------------------------------------- estimates
    def estimate(self, state: MassState) -> float:
        if state.history:
            weight_sum = sum(weight for weight, _ in state.history)
            total_sum = sum(total for _, total in state.history)
            if weight_sum > WEIGHT_EPSILON:
                return total_sum / weight_sum
        return super().estimate(state)

    # ------------------------------------------------------------- exchange
    def exchange(self, state_a: MassState, state_b: MassState, rng: np.random.Generator) -> None:
        raise NotImplementedError(
            "Full-Transfer is a push-pattern optimisation; run the engine with mode='push'"
        )

    def describe(self) -> dict:
        description = super().describe()
        description.update({"parcels": self.parcels, "history": self.history})
        return description
