"""The Push-Sum family's kernel: Push-Sum-Revert, static Push-Sum (λ = 0) and Full-Transfer."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.push_sum import WEIGHT_EPSILON
from repro.obs.probe import NULL_PROBE
from repro.simulator.vectorized import _ValueKernel

__all__ = ["VectorizedPushSumRevert"]


class VectorizedPushSumRevert(_ValueKernel):
    """Array implementation of Push-Sum(-Revert), uniform or topology-restricted gossip.

    Parameters
    ----------
    values:
        Initial host values.
    reversion:
        The reversion constant λ (0 = static Push-Sum).
    mode:
        ``"pushpull"`` (random perfect matching per round; the evaluation's
        default), ``"push"`` (each host pushes half its mass to one random
        peer), or ``"full-transfer"`` (the Figure 4 optimisation).
    parcels, history:
        Full-Transfer parameters ``N`` and ``T``.
    adaptive:
        Indegree-adaptive reversion (push and full-transfer modes only;
        under the matching-based push/pull every host has indegree 1, so the
        adaptive rule coincides with the fixed rule).
    loss:
        Bernoulli message-loss probability: a lost push or parcel takes its
        mass into :attr:`mass_lost`; in pushpull mode a lost link cancels the
        atomic exchange (no mass at risk), as on the agent engine.
    topology:
        Optional :mod:`~repro.simulator.sparse` topology restricting who
        may gossip with whom (push and pushpull modes; Full-Transfer's
        multi-parcel fan-out is uniform-only).  ``None`` keeps the
        uniform behaviour bit for bit.
    seed:
        Randomness seed.
    probe:
        The owning run's :mod:`repro.obs` probe (phase spans).
    """

    aggregate = "average"

    def __init__(
        self,
        values: Sequence[float],
        reversion: float = 0.0,
        *,
        mode: str = "pushpull",
        parcels: int = 4,
        history: int = 3,
        adaptive: bool = False,
        loss: float = 0.0,
        topology=None,
        seed: int = 0,
        probe=NULL_PROBE,
    ):
        if mode not in ("push", "pushpull", "full-transfer"):
            raise ValueError(f"unknown mode {mode!r}")
        if not 0.0 <= reversion <= 1.0:
            raise ValueError("reversion must be in [0, 1]")
        if parcels < 1 or history < 1:
            raise ValueError("parcels and history must be >= 1")
        if topology is not None and mode == "full-transfer":
            raise ValueError(
                "full-transfer mode is uniform-only; topology-restricted "
                "gossip supports the push and pushpull modes"
            )
        self.initial = np.array(values, dtype=float)
        self._init_population(self.initial.size, topology, seed, probe, loss)
        self.reversion = float(reversion)
        self.mode = mode
        self.parcels = int(parcels)
        self.history = int(history)
        self.adaptive = bool(adaptive)
        self._matched = self._exchanges = mode == "pushpull"
        # Full-Transfer reverts inside its own round, and so does adaptive push
        # (per indegree): the fixed revert of the end hook skips both.
        self._fixed_revert = self.reversion > 0.0 and (
            mode == "pushpull" or (mode == "push" and not self.adaptive)
        )
        self.weight = np.ones(self.n, dtype=float)
        self.total = self.initial.copy()
        # Full-Transfer history ring: most recent mass-bearing rounds first.  No
        # other mode reads it, so there it has no rows.
        rows = self.n if mode == "full-transfer" else 0
        self._history_weight = np.zeros((rows, self.history), dtype=float)
        self._history_total = np.zeros((rows, self.history), dtype=float)
        self._history_filled = np.zeros(rows, dtype=np.int64)
        self._last_estimate = self.initial.copy()
        #: :meth:`truth`, and the live index it was computed over (``None``: stale).
        self._truth = float("nan")
        self._truth_of: Optional[np.ndarray] = None

    def _end_epoch(self) -> None:
        """The base epoch's holdings, plus the live hosts' estimates (:meth:`estimates`)."""
        super()._end_epoch()
        #: The live hosts' estimates, read-only, and the live index they are over.
        self._estimates: Optional[np.ndarray] = None
        self._estimates_of: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ gossip
    def _state(self) -> List[np.ndarray]:
        return [self.weight, self.total]

    def _end(self, block: List[np.ndarray], hosts: np.ndarray) -> None:
        """Push-Sum's ``finalize_round``: the fixed revert where it applies, then the
        estimate refresh — a massless host keeps its last estimate.

        Without a massless row the refresh is one plain divide (into
        :attr:`_last_estimate` itself while everyone is alive); only a massless row
        takes the ``where=`` divide.  A partial block's estimates are scattered once
        and, over the live index, held for :meth:`estimates`.
        """
        weight, total = block
        if self._fixed_revert:
            self._revert_block(hosts, weight, total, self.reversion)
        everyone = hosts.size == self.n
        if weight.size and weight.min() > WEIGHT_EPSILON:  # (a NaN weight fails this too)
            estimate = np.divide(total, weight, out=self._last_estimate if everyone else None)
        else:
            estimate = self._last_estimate if everyone else self._last_estimate[hosts]
            np.divide(total, weight, out=estimate, where=weight > WEIGHT_EPSILON)
        self._estimates = None
        if not everyone:
            self._last_estimate[hosts] = estimate
            if hosts is self._live_index:
                self._hold_estimates(estimate, hosts)

    def _hold_estimates(self, estimate: np.ndarray, hosts: np.ndarray) -> None:
        """Keep ``estimate`` — the live index ``hosts``' estimates — read-only for
        :meth:`estimates`."""
        estimate.flags.writeable = False
        self._estimates, self._estimates_of = estimate, hosts

    def _refresh(self, *hosts: np.ndarray, rows=None) -> None:
        """Refresh ``hosts``' stored estimates from their mass (``rows``, if the caller
        holds it); a massless host keeps its last estimate.

        Every path that moves mass ends here or in :meth:`_end`, so
        :attr:`_last_estimate` is always current for every live host (the
        invariant :meth:`estimates` reads).  Several ``hosts`` arrays share one
        mass: the two ends of exchanged pairs.  Repeated hosts are fine.  Why a
        refresh per ``merge_pairs`` pass is exact: DESIGN.md §14.
        """
        self._estimates = None
        weight, total = (self.weight[hosts[0]], self.total[hosts[0]]) if rows is None else rows
        has_weight = weight > WEIGHT_EPSILON
        if not has_weight.all():
            hosts = [index[has_weight] for index in hosts]
            weight, total = weight[has_weight], total[has_weight]
        estimate = np.divide(total, weight, out=total)
        for index in hosts:
            self._last_estimate[index] = estimate

    def _exchange(self, state: List[np.ndarray], a: np.ndarray, b: np.ndarray) -> List[np.ndarray]:
        """Push/pull: both ends of each pair take the pair's mean; returns the means."""
        means = []
        for mass in state:
            mean = mass[a]
            mean += mass[b]
            mean /= 2.0
            mass[a] = mean
            mass[b] = mean
            means.append(mean)
        return means

    def _payload(self, state: List[np.ndarray], senders: np.ndarray):
        """Each sender keeps half its mass and pushes the other half.  While every row
        sends, the rows are halved in place (``*= 0.5`` is ``/ 2.0`` bit for bit: both
        round the same exact half) and the payload is one copy of them."""
        weight, total = state
        if senders.size == weight.size:
            weight *= 0.5
            total *= 0.5
            return weight.copy(), total.copy()
        halves = weight[senders] / 2.0, total[senders] / 2.0
        weight[senders], total[senders] = halves
        return halves

    def _land(self, state: List[np.ndarray], targets: np.ndarray, payload) -> None:
        # One ``np.add.at`` per mass array replaces one agent DELIVER per message;
        # repeated targets accumulate (addition commutes).
        for mass, parcel in zip(state, payload):
            np.add.at(mass, targets, parcel)

    def _carried_mass(self, payload) -> np.ndarray:
        return payload[0]

    def _move(self, block, hosts: np.ndarray, senders: np.ndarray, targets: np.ndarray):
        """The round's move: the base exchanges or pushes — every push lands before
        the revert, so the round stays simultaneous — then adaptive push's
        per-indegree revert; or Full-Transfer."""
        if self.mode == "full-transfer":
            return self._full_transfer(block, hosts, targets)
        landed = super()._move(block, hosts, senders, targets)
        if self.mode == "push" and self.adaptive and self.reversion > 0.0:
            # λ/2 per message received, the self-message included.
            received = np.bincount(landed, minlength=hosts.size) + 1
            lam = np.minimum(1.0, 0.5 * self.reversion * received)
            self._revert_block(hosts, *block, lam)
        return landed

    def _full_transfer(self, block, hosts: np.ndarray, targets: np.ndarray) -> None:
        """Revert, then send everything as ``parcels`` parcels; ``targets`` (the round's
        uniform push draw) are the first parcels'."""
        weight, total = block
        k = hosts.size
        self._revert_block(hosts, weight, total, self.reversion)
        parcels = weight / self.parcels, total / self.parcels
        weight.fill(0.0)  # the block now collects what lands
        total.fill(0.0)
        ranks = self._every_rank()
        for parcel in range(self.parcels):
            if parcel:
                targets = self.rng.integers(0, k, size=k)
            # Every non-self parcel costs radio bytes whether or not the
            # network then loses it (agent parity); lost parcels drain mass.
            self.bytes_sent += self._message_bytes * int(np.count_nonzero(targets != ranks))
            self._land(block, *self._lose(targets, parcels))
        # Record this round in the history of hosts that received any mass.
        received = (weight > WEIGHT_EPSILON).nonzero()[0]
        if received.size:
            idx = received if k == self.n else hosts[received]
            self._history_weight[idx, 1:] = self._history_weight[idx, :-1]
            self._history_total[idx, 1:] = self._history_total[idx, :-1]
            self._history_weight[idx, 0] = weight[received]
            self._history_total[idx, 0] = total[received]
            self._history_filled[idx] = np.minimum(self._history_filled[idx] + 1, self.history)

    def mass_view(self) -> Tuple[float, float, float, float]:
        """The ledger's view: the weight at every host (a dead row is frozen, so it
        keeps the mass stranded there) and in flight now, and the totals reversion
        and membership have created and lost messages have destroyed."""
        return float(self.weight.sum()), self.in_flight_mass, self.mass_injected, self.mass_lost

    def _revert_block(self, hosts: np.ndarray, weight: np.ndarray, total: np.ndarray, lam):
        """Move the rows of ``hosts`` ``lam`` of the way back to ``(1, initial)``, in place,
        and book the weight that creates in :attr:`mass_injected` (from the block's own
        sums, so the mass ledger closes on every revert: fixed, adaptive, Full-Transfer).

        ``lam`` is one λ or one per row.  IEEE ``+`` and ``*`` commute exactly, so
        this is still ``lam + (1 - lam) * weight`` and ``lam * initial + (1 - lam) *
        total``, bit for bit.
        """
        old_mass = weight.sum()
        weight *= 1.0 - lam
        weight += lam
        self.mass_injected += float(weight.sum() - old_mass)
        total *= 1.0 - lam
        if hosts.size == self.n:
            total += lam * self.initial
        else:  # scaled in place: one block-sized temporary, not two
            anchor = self.initial[hosts]
            anchor *= lam
            total += anchor

    # ------------------------------------------------------------- membership
    def _grow(self, values: np.ndarray, start: int) -> None:
        count = values.size
        self.initial = np.concatenate([self.initial, values])
        self.weight = np.concatenate([self.weight, np.ones(count, dtype=float)])
        self.mass_injected += count  # a joiner brings its unit weight
        self.total = np.concatenate([self.total, values])
        self._last_estimate = np.concatenate([self._last_estimate, values])
        if self.mode == "full-transfer":
            self._history_weight = np.concatenate(
                [self._history_weight, np.zeros((count, self.history), dtype=float)]
            )
            self._history_total = np.concatenate(
                [self._history_total, np.zeros((count, self.history), dtype=float)]
            )
            self._history_filled = np.concatenate(
                [self._history_filled, np.zeros(count, dtype=np.int64)]
            )

    def depart_gracefully(self, host_indices: Sequence[int]) -> None:
        """Sign-off departure: each leaver hands its mass to a random survivor.

        Mirrors :func:`repro.core.departure.sign_off_mass` — the departing
        weight/total move to a live peer, so the conserved mass stays in the
        system and the average re-converges instead of drifting.  With no
        survivors left the leavers' mass is dropped, as the agent's sign-off
        drops it, and booked as a negative :attr:`mass_injected` (as the agent's
        recount books it), not as :attr:`mass_lost`, which only lost messages
        feed.  A host named twice signs off once (the agent's second sign-off
        hands over an empty state).
        """
        indices = np.asarray(list(dict.fromkeys(map(int, host_indices))), dtype=np.int64)
        if indices.size == 0:
            return
        self._mark_dead(indices)
        survivors = self.live_index()
        if survivors.size:
            heirs = survivors[self.rng.integers(0, survivors.size, size=indices.size)]
            np.add.at(self.weight, heirs, self.weight[indices])
            np.add.at(self.total, heirs, self.total[indices])
            self._refresh(heirs)
        else:
            self.mass_injected -= float(self.weight[indices].sum())
        self.weight[indices] = 0.0
        self.total[indices] = 0.0

    # ---------------------------------------------------------- value changes
    def _host_values(self) -> np.ndarray:
        return self.initial

    def _set_host_value(self, index: int, value: float) -> None:
        # Mirrors ValueChangeEvent with rebase_state=True: only the revert
        # anchor moves, so reversion gradually pulls the circulating mass
        # towards the new value while the in-flight totals stay untouched —
        # exactly the agent protocol's ``rebase`` hook.
        self.initial[index] = value
        self._truth_of = None

    # -------------------------------------------------------------- estimates
    def estimates(self) -> np.ndarray:
        """Per-live-host estimates of the network average, read-only; no later call
        changes the array returned.

        In the push and pushpull modes they are :attr:`_last_estimate`, kept current by
        :meth:`_end` / :meth:`_refresh`: a copy of it while everyone is alive, else the
        live block's estimates the last end hook held (gathered once if a refresh has
        dropped them).
        """
        alive_idx = self.live_index()
        if self.mode == "full-transfer":
            weight_sum = self._history_weight[alive_idx].sum(axis=1)
            total_sum = self._history_total[alive_idx].sum(axis=1)
            estimates = np.where(
                weight_sum > WEIGHT_EPSILON, total_sum / np.maximum(weight_sum, 1e-300),
                self._last_estimate[alive_idx],
            )
        elif alive_idx.size == self.n:
            estimates = self._last_estimate.copy()
        else:
            if self._estimates is None or self._estimates_of is not alive_idx:
                self._hold_estimates(self._last_estimate[alive_idx], alive_idx)
            return self._estimates
        estimates.flags.writeable = False
        return estimates

    def truth(self) -> float:
        """The correct average over the currently live hosts (NaN with nobody alive)."""
        alive_idx = self.live_index()
        if self._truth_of is not alive_idx:  # new membership epoch, or a value changed
            self._truth = float(self.initial[alive_idx].mean()) if alive_idx.size else float("nan")
            self._truth_of = alive_idx
        return self._truth
