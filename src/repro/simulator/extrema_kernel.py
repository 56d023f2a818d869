"""The extrema family's kernel: extrema gossip, with and without freshness reset."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.obs.probe import NULL_PROBE
from repro.simulator.vectorized import _ValueKernel

__all__ = ["VectorizedExtrema"]


class VectorizedExtrema(_ValueKernel):
    """Array implementation of extrema gossip (static and freshness-reset).

    Covers both agent protocols: with ``cutoff=None`` this is
    :class:`~repro.baselines.ExtremaGossip` (the best value spreads and is
    never forgotten); with an integer cutoff it is
    :class:`~repro.baselines.ExtremaReset` — the best value travels with an
    age that its originator keeps resetting, and a value whose age exceeds
    the cutoff is dropped in favour of the host's own value.

    Gossip is a random perfect matching of the live hosts per round (the
    same push/pull realisation as
    :class:`~repro.simulator.push_sum_kernel.VectorizedPushSumRevert`); with
    a ``topology`` the matching runs along sampled graph edges instead.

    Parameters
    ----------
    values:
        Initial host values.
    maximum:
        Track the maximum (default) or the minimum.
    cutoff:
        Maximum tolerated age in rounds, or ``None`` for the static protocol.
    loss:
        Bernoulli message-loss probability: a lost link cancels the exchange.
    topology:
        Optional :mod:`~repro.simulator.sparse` topology restricting who
        may gossip with whom; ``None`` keeps uniform gossip bit for bit.
    seed:
        Randomness seed.
    probe:
        The owning run's :mod:`repro.obs` probe (phase spans).
    """

    def __init__(
        self,
        values: Sequence[float],
        *,
        maximum: bool = True,
        cutoff: Optional[int] = None,
        loss: float = 0.0,
        topology=None,
        seed: int = 0,
        probe=NULL_PROBE,
    ):
        if cutoff is not None and cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        self.own = np.array(values, dtype=float)
        self._init_population(self.own.size, topology, seed, probe, loss)
        self.maximum = bool(maximum)
        self.aggregate = "max" if self.maximum else "min"
        self.cutoff = None if cutoff is None else int(cutoff)
        self.best_value = self.own.copy()
        self.best_id = np.arange(self.n, dtype=np.int64)
        self.best_age = np.zeros(self.n, dtype=np.int64)

    # ------------------------------------------------------------------ gossip
    _matched = _exchanges = _host_space = True

    def _state(self) -> List[np.ndarray]:
        return [self.best_value, self.best_id, self.best_age]

    def _begin(self, state: List[np.ndarray], hosts: np.ndarray) -> None:
        """``ExtremaReset.begin_round``: own values are always fresh; everything learned
        from others ages, and with a cutoff a stale best falls back to the host's own."""
        value, ident, age = state
        is_own = ident[hosts] == hosts
        age[hosts] = np.where(is_own, 0, age[hosts] + 1)
        if self.cutoff is not None:
            # Re-sync own-held bests to the current own value (a host may
            # have re-absorbed its own stale advertisement after a value
            # change; refreshing that would keep the outdated value alive).
            own_holders = hosts[is_own]
            value[own_holders] = self.own[own_holders]
            expired = hosts[age[hosts] > self.cutoff]
            value[expired] = self.own[expired]
            ident[expired] = expired
            age[expired] = 0

    def _exchange(self, state: List[np.ndarray], a: np.ndarray, b: np.ndarray) -> None:
        """Both ends of each pair take the pair's better copy."""
        value, _ident, age = state
        a_better = value[a] > value[b] if self.maximum else value[a] < value[b]
        # Equal values: the fresher (lower-age) copy wins, like _absorb.
        a_better |= (value[a] == value[b]) & (age[a] < age[b])
        winner = np.where(a_better, a, b)
        for array in state:
            array[a] = array[winner]
            array[b] = array[winner]

    # ------------------------------------------------------------- membership
    def _grow(self, values: np.ndarray, start: int) -> None:
        count = values.size
        self.own = np.concatenate([self.own, values])
        self.best_value = np.concatenate([self.best_value, values])
        self.best_id = np.concatenate(
            [self.best_id, np.arange(start, start + count, dtype=np.int64)]
        )
        self.best_age = np.concatenate([self.best_age, np.zeros(count, dtype=np.int64)])

    # ---------------------------------------------------------- value changes
    def _host_values(self) -> np.ndarray:
        return self.own

    def _set_host_value(self, index: int, value: float) -> None:
        # A host advertising its own value moves the advertised copy with it
        # (mirrors ExtremaGossip.rebase); a best learned elsewhere is kept.
        self.own[index] = value
        if self.best_id[index] == index:
            self.best_value[index] = value

    # -------------------------------------------------------------- estimates
    def estimates(self) -> np.ndarray:
        """Per-live-host best known values."""
        return self.best_value[self.alive].copy()

    def truth(self) -> float:
        """The correct extremum over the currently live hosts."""
        alive_values = self.own[self.alive]
        if alive_values.size == 0:
            return float("nan")
        return float(alive_values.max() if self.maximum else alive_values.min())
