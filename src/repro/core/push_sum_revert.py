"""Push-Sum-Revert: dynamic distributed averaging (paper Section III).

Push-Sum-Revert composes classic Push-Sum with a *revert* step: after each
round the host nudges its mass back towards its initial value,

    w ← λ·1  + (1−λ)·Σ ŵ          v ← λ·v₀ + (1−λ)·Σ v̂,

where the sums are over the mass received during the round and λ is the
systemwide reversion constant.  While the node set is static the revert
step conserves total mass, so the protocol still converges near the true
average; when hosts silently depart, the continual re-injection of every
surviving host's initial value gradually flushes the departed hosts' mass
out of the system and the estimate re-converges to the average of the
survivors.  λ = 0 is exactly Push-Sum (never recovers from correlated
departures); larger λ recovers faster but plateaus at a larger residual
error — the trade-off swept in Figure 10.

Two optimisations from Section III-A are available here:

* push/pull exchange (run the engine with ``mode="exchange"``), which
  roughly halves convergence time;
* adaptive reversion (``adaptive=True``): instead of a fixed λ per round, a
  host applies λ/2 for every message it receives (including its own
  self-message), so well-connected hosts — which receive more counteracting
  mass — revert harder, halving reconvergence time under uniform values.

The Full-Transfer optimisation is a separate class
(:class:`repro.core.full_transfer.FullTransferPushSumRevert`) because it
changes the message pattern and the estimator, not just the revert step.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.push_sum import MassState, PushSum

__all__ = ["PushSumRevert"]


class PushSumRevert(PushSum):
    """Dynamic averaging via reversion towards each host's initial value.

    Parameters
    ----------
    reversion:
        The reversion constant λ ∈ [0, 1].  0 degenerates to static
        Push-Sum; the paper sweeps {0, 0.001, 0.01, 0.1, 0.5}.
    adaptive:
        Apply λ/2 per received message instead of a fixed λ per round
        (Section III-A's indegree-adaptive variant).
    weight_epsilon:
        Threshold below which a host is considered massless (it then reports
        its last well-defined estimate).
    """

    name = "push-sum-revert"
    aggregate = "average"

    def __init__(
        self,
        reversion: float = 0.01,
        *,
        adaptive: bool = False,
        weight_epsilon: float = 1e-12,
    ):
        super().__init__(weight_epsilon=weight_epsilon)
        if not 0.0 <= reversion <= 1.0:
            raise ValueError(f"reversion constant must be in [0, 1], got {reversion}")
        self.reversion = float(reversion)
        self.adaptive = bool(adaptive)

    # ----------------------------------------------------------------- revert
    def _effective_lambda(self, received_count: int) -> float:
        """The λ actually applied this round."""
        if not self.adaptive:
            return self.reversion
        # λ/2 per received message (the message a host sends to itself counts,
        # so a host with in-degree 1 applies exactly λ).
        return min(1.0, 0.5 * self.reversion * max(received_count, 0))

    def finalize_round(
        self, state: MassState, received_count: int, rng: np.random.Generator
    ) -> None:
        lam = self.reversion
        if lam > 0.0:
            if self.adaptive:
                lam = self._effective_lambda(received_count)
            state.weight = lam + (1.0 - lam) * state.weight
            state.total = lam * state.initial_value + (1.0 - lam) * state.total
        if state.weight > self.weight_epsilon:
            state.last_estimate = state.total / state.weight

    # ------------------------------------------------------------- exchange
    # Pairwise exchange is inherited from PushSum (mass averaging); the revert
    # step runs in finalize_round, once per host per round, matching the
    # composition "Push-Sum followed by Revert" used in the paper's analysis.

    def describe(self) -> dict:
        return {
            "name": self.name,
            "aggregate": self.aggregate,
            "fanout": self.fanout,
            "reversion": self.reversion,
            "adaptive": self.adaptive,
        }
