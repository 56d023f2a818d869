"""Vectorised NumPy kernels for large gossip experiments.

The agent-based engine (:mod:`repro.simulator.engine`) is the reference
implementation: it runs any protocol over any environment with per-host
objects, which is ideal for the small trace-driven populations of Fig 11
but too slow for the 10⁴–10⁵-host sweeps of Figs 6, 8, 9 and 10.  The
kernels here re-implement the gossip protocols — Push-Sum-Revert (with
all its optimisations), Count-Sketch-Reset, static FM Sketch-Count and
extrema gossip (with and without freshness reset) — as array programs
over the whole population.  Unit tests cross-check the kernels against
the agent-based implementations on small populations, and the backend
layer (:mod:`repro.api.backends`) dispatches declarative scenarios onto
them.

Peer selection is pluggable: by default gossip is *uniform* (any live
host may contact any other), but every kernel except Full-Transfer also
accepts a ``topology`` — a :class:`~repro.simulator.sparse.CSRTopology`
or :class:`~repro.simulator.sparse.GridRingTopology` — and then samples
partners from the graph instead of the whole population, which is what
runs the paper's Section IV-A grid-restricted scenarios at kernel speed.

Differences from the agent engine worth knowing about:

* push/pull is realised as a random perfect matching of the live hosts per
  round (every host takes part in exactly one pairwise exchange), rather
  than "every host contacts one random peer" with incidental collisions.
  Both schemes mix mass at the same rate and the matching form vectorises
  exactly.  Under a topology the matching runs along sampled graph edges
  (:meth:`~repro.simulator.sparse.LiveView.sample_matching`), so hosts
  whose neighbourhood is exhausted simply sit the round out — like an
  agent-engine host whose ``select_peers`` comes back empty.
* failures are applied by masking hosts out; their mass/counters simply
  stop participating, which is precisely the silent-departure semantics.

The two sketch kernels hold one sketch per host row and share one merge
(:func:`_merge_rows`, a fan-in-ranked scatter — no ``ufunc.at`` on the
N-D state) and one read-out (:func:`_prefix_rank` over the live rows);
DESIGN.md §7 "Sketch kernel layout" has the exactness argument.
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.cutoff import default_cutoff
from repro.events.vectorized import TIME_EPS
from repro.metrics.accuracy import error_statistics, group_truths
from repro.obs.probe import NULL_PROBE
from repro.sketches.fm_sketch import PHI

__all__ = [
    "VectorizedPushSumRevert",
    "VectorizedCountSketchReset",
    "VectorizedSketchCount",
    "VectorizedExtrema",
]

#: Sentinel for "never heard of" in the vectorised counter kernel (int16-safe).
_COUNTER_INFINITY = np.int16(30_000)


def _draw_identifiers(
    rng: np.random.Generator, n: int, bins: int, bits: int, identifiers_per_host: int
):
    """``(mask, hosts, positions)``: the FM-style sketch kernels' owned coordinates.

    Each identifier lands in a uniform bin with a geometric bit index
    (P[bit = k] = 2^-(k+1), clamped to L-1) — the array analogue of the
    hash-based coordinates in :mod:`repro.sketches.hashing`.  ``mask`` is
    the (host, bin, bit) ownership image; identifier ``i`` belongs to
    ``hosts[i]`` and sits at ``positions[i]`` of that host's flattened
    ``bins * bits`` sketch, so owners can be revisited without rescanning
    the mask.
    """
    hosts = np.tile(np.arange(n), identifiers_per_host)
    positions = np.empty((identifiers_per_host, n), dtype=np.int64)
    for drawn in positions:
        owned_bins = rng.integers(0, bins, size=n)
        owned_bits = np.minimum(rng.geometric(0.5, size=n) - 1, bits - 1)
        drawn[:] = owned_bins * bits + owned_bits
    positions = positions.reshape(-1)
    mask = np.zeros((n, bins * bits), dtype=bool)
    mask[hosts, positions] = True
    return mask.reshape(n, bins, bits), hosts, positions


def _merge_rows(
    rows: np.ndarray, senders: np.ndarray, targets: np.ndarray, reduce: np.ufunc, pull: bool
) -> None:
    """One push(+pull) round of whole-row merges on a 2-D state, in place.

    Every ``targets[i]`` row absorbs the pre-round ``senders[i]`` row under
    ``reduce`` (an idempotent, commutative ufunc: ``minimum`` / ``logical_or``)
    and, with ``pull``, every sender then absorbs its target's pre-round row
    — what ``reduce.at(rows, targets, rows[senders])`` plus a write-back from
    a full copy computes, without ``ufunc.at``'s slow generic N-D path.
    Precondition: ``senders`` is unique and *ascending*, so that when every
    row sends, ``senders`` is ``arange(len(rows))`` and the pull is one
    in-place reduce.  Pairs are ordered by their fan-in rank (the
    k-th sender of its target), so within one rank every target row occurs
    once and a plain gather → reduce → fancy assignment is exact; the loop
    runs max-fan-in times (≈ 8 under uniform gossip).  Both sort keys are
    cast to the smallest dtype that holds a row index: NumPy radix-sorts
    keys of 16 bits or fewer.
    """
    pulled = rows[targets] if pull else None
    key = np.min_scalar_type(len(rows))
    order = np.argsort(targets.astype(key), kind="stable")
    grouped = targets[order]
    rank = np.arange(grouped.size) - np.searchsorted(grouped, grouped)
    order = order[np.argsort(rank.astype(key), kind="stable")]
    sent = rows[senders[order]]
    receivers = targets[order]
    start = 0
    for stop in np.cumsum(np.bincount(rank)).tolist():
        into = receivers[start:stop]
        merged = rows[into]
        reduce(merged, sent[start:stop], out=merged)
        rows[into] = merged
        start = stop
    if pull and senders.size == len(rows):
        reduce(rows, pulled, out=rows)
    elif pull:
        merged = rows[senders]
        reduce(merged, pulled, out=merged)
        rows[senders] = merged


def _prefix_rank(image: np.ndarray) -> np.ndarray:
    """Per (host, bin) length of the prefix of ones in a boolean bit image.

    A trailing all-False sentinel column makes ``argmin`` (first False)
    return the full width for all-True rows in the same pass.
    """
    padded = np.zeros(image.shape[:-1] + (image.shape[-1] + 1,), dtype=bool)
    padded[..., :-1] = image
    return padded.argmin(axis=-1)


class _VectorizedKernel:
    """Shared population machinery for the array kernels.

    Subclass constructors call :meth:`_init_population`; subclasses name
    their :attr:`aggregate` and implement :meth:`step`, :meth:`estimates`
    and :meth:`truth`.
    """

    n: int
    rng: np.random.Generator
    alive: np.ndarray
    round_index: int

    #: The aggregate the kernel computes (``"average"``, ``"count"``,
    #: ``"max"`` or ``"min"``) — the agent protocol's ``aggregate``.
    aggregate: str

    #: Cumulative network accounting, maintained by every kernel so the
    #: vectorised path exposes the same delivery series the agent
    #: engine's RoundRecord carries.  One pairwise exchange counts as two
    #: messages and self-messages cost no radio bytes, matching
    #: :class:`repro.simulator.message.BandwidthMeter`.
    messages_delivered: int = 0
    messages_lost: int = 0
    bytes_sent: int = 0
    #: Messages sent but not yet landed (a deferred exchange counts as two).
    messages_in_flight: int = 0

    def _init_population(self, n: int, topology, seed: int, probe) -> None:
        """Set what every kernel shares: size, peers, probe, generator, liveness.

        ``probe`` is the instrumentation sink (:mod:`repro.obs`) of the run
        that owns this kernel; the :meth:`live_view` carries it too, since
        the topology itself is shared between runs.  Probes never draw from
        ``rng``, so attaching one is bit-neutral.
        """
        if n < 1:
            raise ValueError("need at least one host")
        if topology is not None and topology.n != n:
            raise ValueError(f"topology covers {topology.n} hosts but the kernel has {n}")
        self.n = int(n)
        self.topology = topology
        self.probe = probe
        self.rng = np.random.default_rng(seed)
        self.alive = np.ones(self.n, dtype=bool)
        self._end_epoch()
        self.round_index = 0

    def live_index(self) -> np.ndarray:
        """Sorted ids of the live hosts (the nonzero of :attr:`alive`), read-only.

        Computed once per membership epoch: it belongs to this kernel (never
        to the shared topology) and every method that writes :attr:`alive`
        ends the epoch (:meth:`_end_epoch`) — removals through
        :meth:`_mark_dead`, growth in :meth:`join`.
        """
        if self._live_index is None:
            self._live_index = np.nonzero(self.alive)[0]
            self._live_index.flags.writeable = False
        return self._live_index

    def live_view(self):
        """The topology under this epoch's mask (a :class:`~repro.simulator.sparse.LiveView`):
        built on first use, dropped with :meth:`live_index`; the shared topology is only read."""
        if self._live_view is None:
            self._live_view = self.topology.view(self.alive, self.probe, self.live_index())
        return self._live_view

    def live_rank(self) -> np.ndarray:
        """:meth:`live_index` inverted: ``rank[h]`` is live host ``h``'s position in it, -1 for
        a dead host (filled, never left uninitialised: a caller handing in a dead host stays
        deterministic).  Read-only, built on first use, dropped with :meth:`live_index`."""
        if self._live_rank is None:
            self._live_rank = np.where(self.alive, np.cumsum(self.alive) - 1, -1)
            self._live_rank.flags.writeable = False
        return self._live_rank

    def _end_epoch(self) -> None:
        """Drop everything derived from :attr:`alive`; the next reader rebuilds it."""
        self._live_index = self._live_view = self._live_rank = None

    def _mark_dead(self, indices: np.ndarray) -> None:
        """The one way hosts leave: clear their liveness, end the membership epoch."""
        self.alive[indices] = False
        self._end_epoch()

    def _draw_push_targets(self, alive_idx: np.ndarray):
        """``(senders, targets)`` as *live ranks* (positions in ``alive_idx``; ``senders``
        ascend) for one "everyone contacts one peer" round.

        Uniform gossip draws a random live host per sender (self-contact
        allowed, as in the agent engine); topology-restricted gossip draws a
        random live graph neighbour, and hosts whose live neighbourhood is
        empty drop out of the round (the agent engine's isolated-host rule).
        """
        k = alive_idx.size
        if self.topology is None:
            return np.arange(k), self.rng.integers(0, k, size=k)
        drawn = self.live_view().sample_peers(alive_idx, self.rng, self.round_index)
        has_peer = drawn >= 0
        return np.flatnonzero(has_peer), self._ranks(drawn[has_peer])

    def _draw_matching(self, alive_idx: np.ndarray):
        """``(left, right)``: one round's pairwise exchanges, as live ranks.

        A random perfect matching of the live hosts — ``rng.permutation(k)``
        shuffles the ``k`` ranks exactly as ``rng.permutation(alive_idx)`` would
        the ids — or, when a topology restricts gossip, a matching along sampled
        graph edges.
        """
        if self.topology is not None:
            left, right = self.live_view().sample_matching(self.rng, round_index=self.round_index)
            return self._ranks(left), self._ranks(right)
        order = self.rng.permutation(alive_idx.size)
        pair_count = order.size // 2
        return order[:pair_count], order[pair_count : 2 * pair_count]

    def _ranks(self, hosts: np.ndarray) -> np.ndarray:
        """Live ``hosts``' positions in :meth:`live_index` (the ids themselves while all live)."""
        return hosts if self.live_index().size == self.n else self.live_rank()[hosts]

    def _hosts(self, alive_idx: np.ndarray, *ranks: np.ndarray):
        """:meth:`_ranks` inverted, one ``alive_idx`` gather per array (none while all live)."""
        return ranks if alive_idx.size == self.n else tuple(alive_idx[r] for r in ranks)

    def step(self) -> None:
        """Execute one gossip round over the live hosts."""
        raise NotImplementedError

    def estimates(self) -> np.ndarray:
        """Per-live-host estimates of the kernel's aggregate."""
        raise NotImplementedError

    def truth(self) -> float:
        """The correct aggregate over the currently live hosts."""
        raise NotImplementedError

    def step_many(self, rounds: int) -> None:
        """Execute several rounds."""
        for _ in range(rounds):
            self.step()

    # ------------------------------------------------------------- membership
    def join(self, values: Sequence[float]) -> np.ndarray:
        """Grow the population: one new live host per value; returns their ids.

        New hosts get fresh per-host state exactly as the agent engine's
        ``add_host`` does (a joining host knows only itself), and host ids
        extend the existing range, matching the agent engine's
        ``_next_host_id`` assignment.  Joins are uniform-gossip only: a
        static or trace topology has no slots (or edges) for new hosts, so
        those scenarios stay on the agent engine.
        """
        fresh = np.asarray(list(values), dtype=float)
        if fresh.size == 0:
            return np.array([], dtype=np.int64)
        if self.topology is not None:
            raise ValueError(
                "joins under a topology are not vectorised; "
                "topology-restricted joins require the agent engine"
            )
        start = self.n
        self.n = start + fresh.size
        self.alive = np.concatenate([self.alive, np.ones(fresh.size, dtype=bool)])
        self._end_epoch()
        self._grow(fresh, start)
        return np.arange(start, self.n, dtype=np.int64)

    def _grow(self, values: np.ndarray, start: int) -> None:
        """Append per-host state rows for hosts ``start .. start+len(values)``."""
        raise NotImplementedError

    def depart_gracefully(self, host_indices: Sequence[int]) -> None:
        """Remove hosts that sign off cleanly, transferring state if possible.

        The default is indistinguishable from a silent failure; kernels
        whose protocols define a hand-over (:meth:`VectorizedPushSumRevert.
        depart_gracefully` transfers mass, the counter kernel disowns its
        sketch positions) override this to mirror
        :class:`repro.core.departure.GracefulDepartureEvent`.
        """
        self.fail(host_indices)

    # --------------------------------------------------------------- failures
    def fail(self, host_indices: Sequence[int]) -> None:
        """Silently remove the given hosts from the computation."""
        self._mark_dead(np.asarray(list(host_indices), dtype=np.int64))

    def fail_random_fraction(self, fraction: float) -> np.ndarray:
        """Fail a uniformly random fraction of the live hosts; returns their indices."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        alive_idx = self.live_index()
        count = int(round(fraction * alive_idx.size))
        chosen = (
            self.rng.choice(alive_idx, size=count, replace=False)
            if count
            else np.array([], dtype=np.int64)
        )
        self._mark_dead(chosen)
        return chosen

    def extreme_hosts(
        self, fraction: float, *, highest: bool = True, values: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """The most extreme-valued fraction of live hosts, most extreme first.

        Hosts are ordered by ``values``, by default the kernel's own
        per-host values.  The counting kernels carry none, so their caller
        passes the workload it built to reproduce the agent semantics
        (the hosts with the most extreme *workload* values).  Equal values
        keep id order, so the set and its order are exactly what
        :class:`~repro.failures.models.CorrelatedFailure` picks.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        alive_idx = self.live_index()
        count = int(round(fraction * alive_idx.size))
        if count == 0:
            return np.array([], dtype=np.int64)
        if values is None:
            values = self._host_values()
        live_values = values[alive_idx]
        order = np.argsort(-live_values if highest else live_values, kind="stable")
        return alive_idx[order[:count]]

    def fail_extreme_fraction(
        self, fraction: float, *, highest: bool = True, values: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Fail :meth:`extreme_hosts`; returns their indices."""
        chosen = self.extreme_hosts(fraction, highest=highest, values=values)
        if chosen.size:
            self._mark_dead(chosen)
        return chosen

    # -------------------------------------------------------------- estimates
    def error(self) -> float:
        """Standard deviation of the live hosts' estimates from the truth."""
        return error_statistics(self.estimates(), self.truth()).stddev_error

    def group_truths(self, round_index: int) -> Tuple[np.ndarray, float]:
        """``(truths, mean_group_size)``: each live host's *group* truth (Fig 11).

        Groups are the components of the live-induced topology at
        ``round_index`` (labelled once per :meth:`live_view` on a static
        graph, so steady-state rounds pay only gathers); ``truths`` is
        aligned with :meth:`estimates`, like the agent engine's accounting.
        """
        alive_idx = self.live_index()
        if alive_idx.size == 0:
            return np.array([], dtype=float), 0.0
        labels, sizes = self.live_view().component_labels(round_index)
        counting = self.aggregate == "count"  # counting kernels carry no values
        values = None if counting else np.asarray(self._host_values(), dtype=float)[alive_idx]
        return group_truths(self.aggregate, labels[alive_idx], sizes, values), float(sizes.mean())

    def delivery_counters(self) -> Tuple[int, int, int, int]:
        """``(delivered, lost, bytes_sent)`` so far, and the ``in_flight`` backlog now."""
        return self.messages_delivered, self.messages_lost, self.bytes_sent, self.messages_in_flight


class _ValueKernel(_VectorizedKernel):
    """Kernels carrying one value per host.

    The value array is what correlated failures order hosts by and what
    value-change events rewrite; subclasses expose it via
    :meth:`_host_values` and apply updates in :meth:`_set_host_value`.
    """

    def _host_values(self) -> np.ndarray:
        raise NotImplementedError

    def _set_host_value(self, index: int, value: float) -> None:
        raise NotImplementedError

    def change_values(self, new_values: Mapping[int, float]) -> None:
        """Change hosts' underlying values mid-run (the value-change workload)."""
        for host_id, value in new_values.items():
            index = int(host_id)
            if not 0 <= index < self.n:
                raise ValueError(f"host {host_id} outside population of {self.n}")
            self._set_host_value(index, float(value))


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
        Bernoulli message-loss probability (the ``bernoulli-loss`` network
        model of :mod:`repro.network`).  In push and full-transfer modes
        each emitted mass parcel is lost independently with probability
        ``loss`` — the mass leaves the system and accumulates in
        :attr:`mass_lost` — while in pushpull mode a lossy link makes the
        atomic pairwise exchange simply not happen (no mass at risk),
        matching the agent engine's exchange semantics.  ``loss=0`` draws
        no extra randomness, so it is bit-identical to the lossless kernel.
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
        if not 0.0 <= loss <= 1.0:
            raise ValueError("loss must be in [0, 1]")
        if parcels < 1 or history < 1:
            raise ValueError("parcels and history must be >= 1")
        if topology is not None and mode == "full-transfer":
            raise ValueError(
                "full-transfer mode is uniform-only; topology-restricted "
                "gossip supports the push and pushpull modes"
            )
        self.initial = np.array(values, dtype=float)
        self._init_population(self.initial.size, topology, seed, probe)
        self.reversion = float(reversion)
        self.mode = mode
        self.parcels = int(parcels)
        self.history = int(history)
        self.adaptive = bool(adaptive)
        self.loss = float(loss)
        #: Conserved mass (weight) destroyed by lost messages so far.
        self.mass_lost = 0.0
        #: Conserved mass (weight) created by reversion so far (the fixed
        #: revert blends each host's weight towards 1, injecting mass the
        #: event calendar's per-bucket ledger must account for).
        self.mass_injected = 0.0
        #: Conserved mass (weight) of the push halves currently in flight.
        self.in_flight_mass = 0.0
        self.weight = np.ones(self.n, dtype=float)
        self.total = self.initial.copy()
        # Full-Transfer history ring: most recent mass-bearing rounds first.
        self._history_weight = np.zeros((self.n, self.history), dtype=float)
        self._history_total = np.zeros((self.n, self.history), dtype=float)
        self._history_filled = np.zeros(self.n, dtype=np.int64)
        self._last_estimate = self.initial.copy()
        #: :meth:`truth`, and the live index it was computed over (``None``: stale).
        self._truth = float("nan")
        self._truth_of: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ steps
    def step(self) -> None:
        """Execute one gossip round over the live hosts, on one compact live block.

        Block row ``i`` is host ``live_index()[i]``: the block is ``weight`` /
        ``total`` / ``_last_estimate`` themselves while everyone is alive, else
        one gather of each and one write-back at the end.  The peer draws come
        as live ranks, so everything in between runs in place on the block and
        dead rows are never read or written.
        """
        alive_idx = self.live_index()
        k = alive_idx.size
        if k == 0:
            self.round_index += 1
            return
        if k >= 2 and self.mode == "pushpull":
            # Matched before the block is gathered: a sparse matcher's
            # temporaries never sit beside it (peak RSS after a failure).
            with self.probe.span("matching"):
                left, right = self._draw_matching(alive_idx)
            left, right = self._settle_exchanges(left, right)
        weight, total = self._live_block(alive_idx)
        if k >= 2:
            if self.mode == "pushpull":
                with self.probe.span("scatter"):
                    self._mean_merge(weight, total, left, right)
            elif self.mode == "push":
                self._block_push(alive_idx, weight, total)
            else:
                self._block_full_transfer(alive_idx, weight, total)
        # Full-Transfer reverts inside its own round, and so does adaptive push
        # (per indegree): the fixed revert skips both.
        fixed = self.mode == "pushpull" or (self.mode == "push" and not self.adaptive)
        self._settle_block(alive_idx, weight, total, revert=fixed and self.reversion > 0.0)
        self.round_index += 1

    def _live_block(self, alive_idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(weight, total)`` of the live block: the arrays themselves while everyone is
        alive, else gathered copies that :meth:`_settle_block` writes back."""
        if alive_idx.size == self.n:
            return self.weight, self.total
        return self.weight[alive_idx], self.total[alive_idx]

    def _settle_block(
        self, alive_idx: np.ndarray, weight: np.ndarray, total: np.ndarray, revert: bool
    ) -> None:
        """The live block's tail: the fixed revert if ``revert``, the estimate refresh, and
        the write-back of a gathered block — :meth:`_settle` over the whole live index,
        bit for bit, with no gather at all while everyone is alive."""
        if revert:
            old_mass = weight.sum()
            self._revert_block(alive_idx, weight, total, self.reversion)
            self.mass_injected += float(weight.sum() - old_mass)
        everyone = alive_idx.size == self.n
        # A massless host keeps its last estimate.
        estimate = self._last_estimate if everyone else self._last_estimate[alive_idx]
        np.divide(total, weight, out=estimate, where=weight > 1e-12)
        if not everyone:
            self.weight[alive_idx] = weight
            self.total[alive_idx] = total
            self._last_estimate[alive_idx] = estimate

    def _settle(self, host_idx: np.ndarray, revert: bool = False) -> None:
        """Refresh ``host_idx``'s stored estimates, after their fixed revert if ``revert``.

        Every public mutator ends here (or in :meth:`_settle_block`) for each host
        whose mass it moved, so :attr:`_last_estimate` is always current for every
        live host (the invariant :meth:`estimates` reads).  Weight and total are
        gathered once; the revert (one tick's worth for the ticking hosts of a
        bucket where not every live host ticks) and the ratio work on those
        copies.  The injected weight is tallied in :attr:`mass_injected` so the
        per-bucket mass ledger can balance its books.  Duplicates in
        ``host_idx`` are fine without ``revert``: the write-back is a plain
        fancy-index assignment of equal values.
        """
        weight, total = self.weight[host_idx], self.total[host_idx]
        if revert:
            # In place on the copies (every temporary is a population-sized
            # allocation).  IEEE ``+`` and ``*`` commute exactly, so these are
            # still ``lam + (1 - lam) * weight`` and
            # ``lam * initial + (1 - lam) * total``, bit for bit.
            lam = self.reversion
            old_mass = weight.sum()
            weight *= 1.0 - lam
            weight += lam
            self.mass_injected += float(weight.sum() - old_mass)
            anchor = self.initial[host_idx]
            anchor *= lam
            total *= 1.0 - lam
            total += anchor
            self.weight[host_idx] = weight
            self.total[host_idx] = total
        has_weight = weight > 1e-12
        if not has_weight.all():  # a massless host keeps its last estimate
            host_idx, weight, total = host_idx[has_weight], weight[has_weight], total[has_weight]
        self._last_estimate[host_idx] = np.divide(total, weight, out=total)

    def merge_pairs(self, left: np.ndarray, right: np.ndarray) -> None:
        """Atomic pairwise exchanges, serialised where endpoints collide.

        ``(left[i], right[i])`` are exchange pairs whose endpoints may
        repeat (the event calendar draws partners independently, unlike the
        round engine's perfect matching).  Conflicting exchanges are
        resolved in pair order: each pass takes every pair that is the
        lowest-indexed remaining claimant of *both* its endpoints (those
        are endpoint-disjoint, so their mean-merges commute), then repeats
        on the rest.  Every lower-indexed pair sharing an endpoint with a
        taken pair went in an earlier pass, so the result is, bit for bit,
        the pairs applied one by one in pair order.  Pass counts stay tiny
        in practice — collisions are rare at gossip fan-out — and the lowest
        remaining pair is always taken, so the loop terminates.

        Each pass refreshes the estimates of the pairs it merges.  That equals
        one :meth:`_settle` of every endpoint after the last pass: a host's
        last pass leaves its final mass, so its last refresh is the final one.
        The two could differ only if a host's weight crossed the 1e-12
        massless threshold between two of its passes (one refresh skipped, the
        other not).  None does: the calendar merges pairs only in pushpull
        mode, where every weight is a mean of weights that start at 1 and
        revert towards 1 (a graceful heir only gains), so none falls below 1.
        """
        with self.probe.span("scatter"):
            # One int32 claim table per call, never reset, not even at allocation:
            # a pass reads only ``claim[left]`` / ``claim[right]`` of the pairs it
            # has just written, so what earlier passes left behind is unread.
            # ``claims`` is the first pass's write (pair indices descending, each
            # twice); a pass over ``m`` remaining pairs writes its last ``2m``.
            claim = np.empty(self.n, dtype=np.int32)
            index = np.arange(left.size, dtype=np.int32)
            claims = np.repeat(index[::-1], 2)
            while left.size:
                # One interleaved write in descending pair order, so the
                # last (winning) write for any endpoint is its *lowest*
                # claiming pair index across both sides — pair 0 always
                # claims both its endpoints, guaranteeing progress.
                m = left.size
                endpoints = np.empty(2 * m, dtype=np.int64)
                endpoints[0::2] = left[::-1]
                endpoints[1::2] = right[::-1]
                claim[endpoints] = claims[claims.size - 2 * m :]
                idx = index[:m]
                take = (claim[left] == idx) & (claim[right] == idx)
                taken = np.flatnonzero(take)
                if taken.size == m:  # the usual last pass: nothing to compact
                    self._merge_and_refresh(left, right)
                    break
                self._merge_and_refresh(left[taken], right[taken])
                rest = np.flatnonzero(~take)
                left, right = left[rest], right[rest]

    def _merge_and_refresh(self, a: np.ndarray, b: np.ndarray) -> None:
        """Endpoint-disjoint exchanges in host space, each end's estimate refreshed."""
        weight, total = self._mean_merge(self.weight, self.total, a, b)
        has_weight = weight > 1e-12
        if not has_weight.all():  # a massless host keeps its last estimate
            a, b, weight, total = a[has_weight], b[has_weight], weight[has_weight], total[has_weight]
        estimate = np.divide(total, weight, out=total)
        self._last_estimate[a] = estimate
        self._last_estimate[b] = estimate

    @staticmethod
    def _mean_merge(
        weight: np.ndarray, total: np.ndarray, a: np.ndarray, b: np.ndarray
    ) -> List[np.ndarray]:
        """The atomic exchange of endpoint-disjoint pairs of rows: both take the pair's mean.

        Returns the ``[weight, total]`` means (fresh arrays, one entry per pair)."""
        means = []
        for mass in (weight, total):
            mean = mass[a]
            mean += mass[b]
            mean /= 2.0
            mass[a] = mean
            mass[b] = mean
            means.append(mean)
        return means

    def emit_push(self, senders: np.ndarray):
        """Split ``senders``' mass in half; return the outgoing halves.

        The halves leave the senders immediately (they are now in flight);
        the caller delivers them — instantly via :meth:`apply_deliveries`
        or after a network delay.  ``senders`` must be unique live hosts.
        """
        return self._halve(self.weight, self.total, senders)

    @staticmethod
    def _halve(weight: np.ndarray, total: np.ndarray, rows) -> Tuple[np.ndarray, np.ndarray]:
        """Halve ``rows`` of both mass arrays in place; return the halves (new arrays)."""
        half_weight, half_total = weight[rows] / 2.0, total[rows] / 2.0
        weight[rows], total[rows] = half_weight, half_total
        return half_weight, half_total

    def apply_deliveries(
        self, targets: np.ndarray, weight: np.ndarray, total: np.ndarray
    ) -> None:
        """Scatter-add in-flight push halves into live ``targets``.

        One ``np.add.at`` per mass array replaces one agent-engine DELIVER
        event per message; duplicate targets accumulate, matching
        sequential delivery order-independently (addition commutes).
        """
        with self.probe.span("scatter"):
            np.add.at(self.weight, targets, weight)
            np.add.at(self.total, targets, total)
        self._settle(targets)

    # ---------------------------------------------------- the calendar protocol
    def step_subset(self, ticking: np.ndarray, delays=None) -> List[tuple]:
        """One gossip tick for just ``ticking`` (unique live hosts).

        The event calendar's bucketed drain: every host whose clock fires
        in the current bucket gossips once, against partners drawn from the
        *full* live population (non-ticking hosts can be pulled into an
        exchange or receive a push, exactly as in the agent event engine).
        Reversion applies per tick to the ticking hosts only.  Unlike
        :meth:`step` this never bumps :attr:`round_index` — sample indices
        are the calendar's business, not the kernel's.

        ``delays`` is the calendar's network-delay sampler (``delays(k)``
        draws ``k`` delays in simulated seconds); ``None`` means every delay
        is zero.  Messages with no delay land within the tick; the rest are
        returned as opaque ``(kind, senders, delay, *arrays)`` batches —
        message ``i`` left ``senders[i]`` at its tick and matures ``delay[i]``
        later, when the calendar hands ``(kind, *arrays)`` to :meth:`deliver`.
        Until then it is in flight (:attr:`messages_in_flight`, and push
        halves' mass in :attr:`in_flight_mass`).

        When every live host ticks (each bucket of a synchronized calendar),
        the revert and refresh run on the live block, as in :meth:`step`.
        """
        if self.mode == "full-transfer":
            raise ValueError("full-transfer mode has no subset step")
        if self.adaptive:
            raise ValueError("adaptive reversion has no subset step")
        ticking = np.asarray(ticking, dtype=np.int64)
        alive_idx = self.live_index()
        deferred: List[tuple] = []
        if alive_idx.size >= 2 and ticking.size:
            # (merge_pairs / apply_deliveries settle the peers they touch.)
            tick = self._tick_exchange if self.mode == "pushpull" else self._tick_push
            deferred = tick(ticking, alive_idx, delays)
        if ticking.size == alive_idx.size:  # unique live hosts: the live index itself
            weight, total = self._live_block(alive_idx)
            self._settle_block(alive_idx, weight, total, revert=self.reversion > 0.0)
        else:
            self._settle(ticking, revert=self.reversion > 0.0)
        return deferred

    def _tick_exchange(self, ticking: np.ndarray, alive_idx: np.ndarray, delays) -> List[tuple]:
        """The ticking hosts' exchanges: merged within the tick, or deferred whole.

        Each partner is uniform among the *other* live hosts: the ticker's
        live rank, offset by ``1..n_alive-1`` (no self-exchanges, like the
        agent peer sampler).  A delayed exchange completes once both legs
        have arrived, as one atomic merge.
        """
        k = ticking.size
        with self.probe.span("sampling"):
            peers = self.rng.integers(1, alive_idx.size, size=k)
            # (Every live host ticking: the tickers' ranks are 0..k-1.)
            peers += np.arange(k) if k == alive_idx.size else self.live_rank()[ticking]
            peers %= alive_idx.size
            (peers,) = self._hosts(alive_idx, peers)
        legs = np.zeros(2 * k) if delays is None else delays(2 * k)
        delay = legs[:k]
        delay += legs[k:]
        now, later = self._split_tick(delay)
        if now.size:
            self.merge_pairs(*self._settle_exchanges(ticking[now], peers[now]))
        if not later.size:
            return []
        self.bytes_sent += 32 * later.size
        self.messages_in_flight += 2 * later.size
        left = ticking[later]  # the initiators are the senders
        return [("exchange", left, delay[later], left, peers[later])]

    def _tick_push(self, ticking: np.ndarray, alive_idx: np.ndarray, delays) -> List[tuple]:
        """The ticking hosts' halves, pushed to any live host: landed now or put in flight."""
        with self.probe.span("sampling"):
            drawn = self.rng.integers(0, alive_idx.size, size=ticking.size)
            (peers,) = self._hosts(alive_idx, drawn)
        self.bytes_sent += 16 * int(np.count_nonzero(peers != ticking))
        weight, total = self.emit_push(ticking)
        delay = np.zeros(ticking.size) if delays is None else delays(ticking.size)
        now, later = self._split_tick(delay)
        if now.size:
            self.apply_deliveries(*self._lose_pushes(peers[now], weight[now], total[now]))
        if not later.size:
            return []
        weight = weight[later]
        self.in_flight_mass += float(weight.sum())
        self.messages_in_flight += later.size
        return [("push", ticking[later], delay[later], peers[later], weight, total[later])]

    @staticmethod
    def _split_tick(delay: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(now, later)``: positions of a tick's messages that land within it / stay in flight."""
        later = delay > TIME_EPS
        return np.flatnonzero(~later), np.flatnonzero(later)

    def deliver(self, kind: str, *arrays: np.ndarray) -> None:
        """Land one matured batch that :meth:`step_subset` deferred.

        A message whose endpoint died in the meantime is lost: a push half
        takes its mass out of the system (:attr:`mass_lost`), an exchange
        simply does not happen (two messages lost, nothing merged).
        """
        if kind == "push":
            targets, weight, total = arrays
            self.in_flight_mass -= float(weight.sum())
            self.messages_in_flight -= targets.size
            alive = self.alive[targets]
            landed = np.flatnonzero(alive)
            if landed.size < targets.size:
                self.mass_lost += float(weight[~alive].sum())
                self.messages_lost += targets.size - landed.size
                targets, weight, total = targets[landed], weight[landed], total[landed]
            if landed.size:
                self.apply_deliveries(targets, weight, total)
                self.messages_delivered += landed.size
        else:
            left, right = arrays
            self.messages_in_flight -= 2 * left.size
            landed = np.flatnonzero(self.alive[left] & self.alive[right])
            if landed.size < left.size:
                self.messages_lost += 2 * (left.size - landed.size)
                left, right = left[landed], right[landed]
            if landed.size:
                self.merge_pairs(left, right)
                self.messages_delivered += 2 * landed.size

    def mass_view(self) -> Tuple[float, float, float, float]:
        """``(at_hosts, in_flight, injected, lost)``: the ledger's read-only view.

        Conserved mass (weight) at the live hosts and in flight now, and the
        totals reversion has created and lost messages have destroyed.
        """
        at_hosts = float(self.weight[self.live_index()].sum())
        return at_hosts, self.in_flight_mass, self.mass_injected, self.mass_lost

    def _settle_exchanges(self, left: np.ndarray, right: np.ndarray):
        """Account for the attempted exchanges; return the pairs that go ahead.

        A lossy link makes the atomic exchange not happen: the pair keeps
        its masses untouched (no mass is ever at risk here), but the
        initiator's half still crossed the radio (agent parity:
        ``record_sent``); the reply never happened.
        """
        if self.loss > 0.0:
            kept = self.rng.random(left.size) >= self.loss
            dropped = int(left.size - int(kept.sum()))
            left, right = left[kept], right[kept]
            self.messages_lost += 2 * dropped
            self.bytes_sent += 16 * dropped
        self.messages_delivered += 2 * int(left.size)
        self.bytes_sent += 32 * int(left.size)  # 16 bytes each way per exchange
        return left, right

    def _lose_pushes(self, targets: np.ndarray, weight: np.ndarray, total: np.ndarray):
        """Account for the pushed halves; return the ones the network delivers.

        Each half traverses the network and is lost independently; a lost
        half's mass leaves the system for good (:attr:`mass_lost`).
        """
        if self.loss > 0.0:
            kept = self.rng.random(targets.size) >= self.loss
            self.mass_lost += float(weight[~kept].sum())
            self.messages_lost += int(targets.size - int(kept.sum()))
            targets, weight, total = targets[kept], weight[kept], total[kept]
        self.messages_delivered += int(targets.size)
        return targets, weight, total

    def _block_push(self, alive_idx: np.ndarray, weight: np.ndarray, total: np.ndarray) -> None:
        """Push mode on the live block: every sender keeps half its mass and pushes half."""
        # Hosts whose live neighbourhood is empty drop out of `senders` and
        # keep their whole mass (the agent engine's isolated-host rule).
        with self.probe.span("sampling"):
            senders, targets = self._draw_push_targets(alive_idx)
        # Radio bytes are spent when the half is pushed, lost or not
        # (agent parity: the bandwidth meter records before the network
        # plans); self-messages never touch the radio.
        self.bytes_sent += 16 * int(np.count_nonzero(targets != senders))
        # Half the mass stays home, half lands at the target (which may be the
        # sender itself — self-selection is allowed in uniform push gossip).
        # Every half leaves before any lands, so the round stays simultaneous.
        sent = slice(None) if senders.size == weight.size else senders  # every row sends
        halves = self._halve(weight, total, sent)
        targets, half_weight, half_total = self._lose_pushes(targets, *halves)
        with self.probe.span("scatter"):
            np.add.at(weight, targets, half_weight)
            np.add.at(total, targets, half_total)
        if self.adaptive and self.reversion > 0.0:
            # λ/2 per message received, the self-message included.
            received = np.bincount(targets, minlength=weight.size) + 1
            lam = np.minimum(1.0, 0.5 * self.reversion * received)
            self._revert_block(alive_idx, weight, total, lam)

    def _block_full_transfer(self, alive_idx: np.ndarray, weight: np.ndarray, total: np.ndarray):
        """Full-Transfer on the live block: revert, then send all of it as ``parcels`` parcels."""
        k = alive_idx.size
        self._revert_block(alive_idx, weight, total, self.reversion)
        parcel_weight, parcel_total = weight / self.parcels, total / self.parcels
        weight.fill(0.0)  # the block now collects what lands
        total.fill(0.0)
        ranks = np.arange(k)
        for _ in range(self.parcels):
            targets = self.rng.integers(0, k, size=k)
            # Every non-self parcel costs radio bytes whether or not the
            # network then loses it (agent parity); lost parcels drain mass.
            self.bytes_sent += 16 * int(np.count_nonzero(targets != ranks))
            targets, landed_weight, landed_total = self._lose_pushes(
                targets, parcel_weight, parcel_total
            )
            np.add.at(weight, targets, landed_weight)
            np.add.at(total, targets, landed_total)
        # Record this round in the history of hosts that received any mass.
        received = np.flatnonzero(weight > 1e-12)
        if received.size:
            idx = received if k == self.n else alive_idx[received]
            self._history_weight[idx, 1:] = self._history_weight[idx, :-1]
            self._history_total[idx, 1:] = self._history_total[idx, :-1]
            self._history_weight[idx, 0] = weight[received]
            self._history_total[idx, 0] = total[received]
            self._history_filled[idx] = np.minimum(self._history_filled[idx] + 1, self.history)

    def _revert_block(self, alive_idx: np.ndarray, weight: np.ndarray, total: np.ndarray, lam):
        """Move the live block ``lam`` of the way back to ``(1, initial)``, in place.

        ``lam`` is one λ or one per row.  IEEE ``+`` and ``*`` commute exactly, so
        this is still ``lam + (1 - lam) * weight`` and ``lam * initial + (1 - lam) *
        total``, bit for bit.
        """
        weight *= 1.0 - lam
        weight += lam
        total *= 1.0 - lam
        if alive_idx.size == self.n:
            total += lam * self.initial
        else:  # scaled in place: one block-sized temporary, not two
            anchor = self.initial[alive_idx]
            anchor *= lam
            total += anchor

    # ------------------------------------------------------------- membership
    def _grow(self, values: np.ndarray, start: int) -> None:
        count = values.size
        self.initial = np.concatenate([self.initial, values])
        self.weight = np.concatenate([self.weight, np.ones(count, dtype=float)])
        self.total = np.concatenate([self.total, values])
        self._last_estimate = np.concatenate([self._last_estimate, values])
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
        survivors left the mass leaves the system (tracked in
        :attr:`mass_lost`).
        """
        indices = np.asarray(list(host_indices), dtype=np.int64)
        if indices.size == 0:
            return
        self._mark_dead(indices)
        survivors = self.live_index()
        if survivors.size == 0:
            self.mass_lost += float(self.weight[indices].sum())
        else:
            heirs = survivors[self.rng.integers(0, survivors.size, size=indices.size)]
            np.add.at(self.weight, heirs, self.weight[indices])
            np.add.at(self.total, heirs, self.total[indices])
            self._settle(heirs)
        self.weight[indices] = 0.0
        self.total[indices] = 0.0

    # ------------------------------------------------- failures/value changes
    def fail_highest_fraction(self, fraction: float) -> np.ndarray:
        """Fail the highest-valued fraction of live hosts (correlated failure)."""
        return self.fail_extreme_fraction(fraction, highest=True)

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
        """Per-live-host estimates of the network average."""
        alive_idx = self.live_index()
        if self.mode != "full-transfer":
            return self._last_estimate[alive_idx]  # kept current by _settle
        weight_sum = self._history_weight[alive_idx].sum(axis=1)
        total_sum = self._history_total[alive_idx].sum(axis=1)
        return np.where(
            weight_sum > 1e-12, total_sum / np.maximum(weight_sum, 1e-300), self._last_estimate[alive_idx]
        )

    def truth(self) -> float:
        """The correct average over the currently live hosts (NaN with nobody alive)."""
        alive_idx = self.live_index()
        if self._truth_of is not alive_idx:  # new membership epoch, or a value changed
            self._truth = float(self.initial[alive_idx].mean()) if alive_idx.size else float("nan")
            self._truth_of = alive_idx
        return self._truth


class _CountingKernel(_VectorizedKernel):
    """Kernels estimating the live population size (no per-host values)."""

    aggregate = "count"

    def truth(self) -> float:
        """The correct count (number of live hosts; NaN once nobody is alive)."""
        n_alive = int(self.alive.sum())
        return float(n_alive) if n_alive else float("nan")


class VectorizedCountSketchReset(_CountingKernel):
    """Array implementation of Count-Sketch-Reset under uniform gossip.

    Parameters
    ----------
    n:
        Number of hosts.
    bins, bits:
        Sketch dimensions ``m`` × ``L``.
    cutoff:
        Freshness cutoff ``f(k)``; ``None`` disables decay (static
        Sketch-Count behaviour, the "propagation limiting off" curve of
        Fig 9).
    identifiers_per_host:
        Identifiers registered per host (values > 1 implement
        multiple-insertion summation of equal integer values, or the
        100-identifiers-per-device trick of Fig 11).
    pull:
        Whether the contacted peer responds with its own array (recommended
        by the paper; on by default).
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
        n: int,
        *,
        bins: int = 64,
        bits: int = 20,
        cutoff: Optional[Callable[[int], float]] = default_cutoff,
        identifiers_per_host: int = 1,
        pull: bool = True,
        topology=None,
        seed: int = 0,
        probe=NULL_PROBE,
    ):
        if bins < 1 or bits < 1:
            raise ValueError("bins and bits must be >= 1")
        if identifiers_per_host < 1:
            raise ValueError("identifiers_per_host must be >= 1")
        self._init_population(n, topology, seed, probe)
        self.bins = int(bins)
        self.bits = int(bits)
        self.cutoff = cutoff
        self.identifiers_per_host = int(identifiers_per_host)
        self.pull = bool(pull)

        # Counters are integers, so ``c <= f(k)`` is ``c <= floor(f(k))`` and
        # the read-out compares int16 against int16.  Below -1 nothing
        # qualifies either way; the upper clip keeps the "never heard of"
        # sentinel unset even with decay disabled (``cutoff=None``).
        no_decay = int(_COUNTER_INFINITY) - 1
        cutoffs = np.array(
            [no_decay if cutoff is None else float(cutoff(k)) for k in range(self.bits)]
        )
        if np.isnan(cutoffs).any():
            raise ValueError("cutoff(k) must not be NaN")
        self._thresholds = np.clip(np.floor(cutoffs), -1, no_decay).astype(np.int16)

        (
            self.counters, self.own_mask, self._owned_hosts, self._owned_positions
        ) = self._fresh_rows(self.n)

    def _fresh_rows(self, count: int):
        """Counters, ownership mask and owned (host, position) pairs of new hosts."""
        own_mask, hosts, positions = _draw_identifiers(
            self.rng, count, self.bins, self.bits, self.identifiers_per_host
        )
        counters = np.full((count, self.bins * self.bits), _COUNTER_INFINITY, dtype=np.int16)
        counters[hosts, positions] = 0
        return counters.reshape(count, self.bins, self.bits), own_mask, hosts, positions

    # ------------------------------------------------------------- membership
    def _grow(self, values: np.ndarray, start: int) -> None:
        counters, own_mask, hosts, positions = self._fresh_rows(values.size)
        self.counters = np.concatenate([self.counters, counters])
        self.own_mask = np.concatenate([self.own_mask, own_mask])
        self._owned_hosts = np.concatenate([self._owned_hosts, hosts + start])
        self._owned_positions = np.concatenate([self._owned_positions, positions])

    def depart_gracefully(self, host_indices: Sequence[int]) -> None:
        """Sign-off departure: the leaver disowns its sketch positions.

        Mirrors :func:`repro.core.departure.sign_off_counters` — the
        departed host's identifiers stop being refreshed, so their counters
        age past the cutoff and the live count drops without waiting for
        the silent-failure detection delay.
        """
        indices = np.asarray(list(host_indices), dtype=np.int64)
        if indices.size == 0:
            return
        self.own_mask[indices] = False
        self._mark_dead(indices)
        kept = ~np.isin(self._owned_hosts, indices)
        self._owned_hosts = self._owned_hosts[kept]
        self._owned_positions = self._owned_positions[kept]

    # ------------------------------------------------------------------ steps
    def step(self) -> None:
        """Execute one gossip round over the live hosts."""
        alive_idx = self.live_index()
        if alive_idx.size == 0:
            self.round_index += 1
            return
        rows = self.counters.reshape(self.n, -1)  # a view: one sketch per row
        rank = self.live_rank()
        # The round works on one contiguous block of live rows (block row i is
        # host alive_idx[i]): ``rows`` itself while everyone is alive, else one
        # gather here and one scatter at the end.  Dead rows are never touched.
        # Phase 1: age every live counter, then re-pin the live owners' positions.
        with self.probe.span("ageing"):
            live = rows if alive_idx.size == self.n else rows[alive_idx]
            np.add(live, 1, out=live)
            np.minimum(live, _COUNTER_INFINITY, out=live)
            owners = rank[self._owned_hosts]
            owner_alive = owners >= 0
            live[owners[owner_alive], self._owned_positions[owner_alive]] = 0
        # Phase 2: gossip.  Each live host sends its array to one random live
        # peer (a live graph neighbour under a topology); receivers take the
        # element-wise min.  With pull enabled the sender also merges the
        # (pre-round) array of its target.  Counters are >= 0 and every live
        # owned position is 0 after ageing, so no min can unpin one.
        if alive_idx.size >= 2:
            with self.probe.span("sampling"):
                senders, targets = self._draw_push_targets(alive_idx)  # block rows
            non_self = int(np.count_nonzero(targets != senders))
            payload_bytes = 2 * self.bins * self.bits  # agent parity: 2 B/counter
            legs = 2 if self.pull else 1  # the pull reply is a second array
            self.messages_delivered += legs * non_self
            self.bytes_sent += legs * payload_bytes * non_self
            with self.probe.span("scatter"):
                _merge_rows(live, senders, targets, np.minimum, self.pull)
        if live is not rows:
            rows[alive_idx] = live
        self.round_index += 1

    # -------------------------------------------------------------- estimates
    def bit_image(self) -> np.ndarray:
        """Derived bit matrix, counter ≤ f(k), of every host row (dead included)."""
        return self.counters <= self._thresholds

    def ranks(self) -> np.ndarray:
        """Per (host, bin) prefix-of-ones length of :meth:`bit_image` (all rows)."""
        return _prefix_rank(self.bit_image())

    def estimates(self) -> np.ndarray:
        """Per-live-host estimates of the live population size (or sum)."""
        live_image = self.counters[self.live_index()] <= self._thresholds
        mean_rank = _prefix_rank(live_image).mean(axis=1)
        raw = self.bins / PHI * np.exp2(mean_rank)
        return raw / self.identifiers_per_host

    # ------------------------------------------------------- Fig 6 diagnostics
    def counter_values_for_bit(self, bit_index: int, *, finite_only: bool = True) -> np.ndarray:
        """All live hosts' counter values for bit ``bit_index`` (all bins).

        This is the raw data behind Fig 6's per-bit CDFs.
        """
        if not 0 <= bit_index < self.bits:
            raise ValueError(f"bit_index must be in [0, {self.bits})")
        alive_idx = self.live_index()
        values = self.counters[alive_idx, :, bit_index].reshape(-1).astype(np.int64)
        if finite_only:
            values = values[values < int(_COUNTER_INFINITY)]
        return values


class VectorizedSketchCount(_CountingKernel):
    """Array implementation of static FM Sketch-Count under uniform gossip.

    This is the Considine et al. baseline (:class:`repro.baselines.SketchCount`)
    as a whole-population array program: every host owns bit positions in an
    ``m`` × ``L`` boolean sketch, gossip merges by bitwise OR, and — the
    static counting weakness the paper's Figure 9 demonstrates — the
    estimate can never decrease, so departed hosts stay counted forever.

    Parameters
    ----------
    n:
        Number of hosts.
    bins, bits:
        Sketch dimensions ``m`` × ``L``.
    identifiers_per_host:
        Identifiers registered per host (the estimate divides by this).
    pull:
        Whether the contacted peer responds with its own sketch.
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
        n: int,
        *,
        bins: int = 64,
        bits: int = 20,
        identifiers_per_host: int = 1,
        pull: bool = True,
        topology=None,
        seed: int = 0,
        probe=NULL_PROBE,
    ):
        if bins < 1 or bits < 1:
            raise ValueError("bins and bits must be >= 1")
        if identifiers_per_host < 1:
            raise ValueError("identifiers_per_host must be >= 1")
        self._init_population(n, topology, seed, probe)
        self.bins = int(bins)
        self.bits = int(bits)
        self.identifiers_per_host = int(identifiers_per_host)
        self.pull = bool(pull)
        self.matrix = self._fresh_rows(self.n)

    def _fresh_rows(self, count: int) -> np.ndarray:
        """Sketches of ``count`` new hosts: just their own identifiers' bits."""
        return _draw_identifiers(
            self.rng, count, self.bins, self.bits, self.identifiers_per_host
        )[0]

    # ------------------------------------------------------------- membership
    def _grow(self, values: np.ndarray, start: int) -> None:
        self.matrix = np.concatenate([self.matrix, self._fresh_rows(values.size)])

    # ------------------------------------------------------------------ steps
    def step(self) -> None:
        """Execute one gossip round over the live hosts."""
        alive_idx = self.live_index()
        if alive_idx.size >= 2:
            with self.probe.span("sampling"):
                senders, targets = self._hosts(alive_idx, *self._draw_push_targets(alive_idx))
            non_self = int(np.count_nonzero(targets != senders))
            # Agent parity: a boolean sketch packs to one bit per position.
            payload_bytes = int(np.ceil(self.bins * self.bits / 8))
            legs = 2 if self.pull else 1
            self.messages_delivered += legs * non_self
            self.bytes_sent += legs * payload_bytes * non_self
            with self.probe.span("scatter"):
                _merge_rows(
                    self.matrix.reshape(self.n, -1), senders, targets, np.logical_or, self.pull
                )
        self.round_index += 1

    # -------------------------------------------------------------- estimates
    def ranks(self) -> np.ndarray:
        """Per (host, bin) prefix-of-ones length of the bit matrix."""
        return _prefix_rank(self.matrix)

    def estimates(self) -> np.ndarray:
        """Per-live-host estimates of the (ever-seen) population size."""
        mean_rank = _prefix_rank(self.matrix[self.live_index()]).mean(axis=1)
        return self.bins / PHI * np.exp2(mean_rank) / self.identifiers_per_host


class VectorizedExtrema(_ValueKernel):
    """Array implementation of extrema gossip (static and freshness-reset).

    Covers both agent protocols: with ``cutoff=None`` this is
    :class:`~repro.baselines.ExtremaGossip` (the best value spreads and is
    never forgotten); with an integer cutoff it is
    :class:`~repro.baselines.ExtremaReset` — the best value travels with an
    age that its originator keeps resetting, and a value whose age exceeds
    the cutoff is dropped in favour of the host's own value.

    Gossip is a random perfect matching of the live hosts per round (the
    same push/pull realisation as :class:`VectorizedPushSumRevert`); with
    a ``topology`` the matching runs along sampled graph edges instead.

    Parameters
    ----------
    values:
        Initial host values.
    maximum:
        Track the maximum (default) or the minimum.
    cutoff:
        Maximum tolerated age in rounds, or ``None`` for the static protocol.
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
        topology=None,
        seed: int = 0,
        probe=NULL_PROBE,
    ):
        if cutoff is not None and cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        self.own = np.array(values, dtype=float)
        self._init_population(self.own.size, topology, seed, probe)
        self.maximum = bool(maximum)
        self.aggregate = "max" if self.maximum else "min"
        self.cutoff = None if cutoff is None else int(cutoff)
        self.best_value = self.own.copy()
        self.best_id = np.arange(self.n, dtype=np.int64)
        self.best_age = np.zeros(self.n, dtype=np.int64)

    # ------------------------------------------------------------------ steps
    def step(self) -> None:
        """Execute one gossip round over the live hosts."""
        alive_idx = self.live_index()
        if alive_idx.size == 0:
            self.round_index += 1
            return
        # Begin-round ageing (mirrors ExtremaReset.begin_round): own values
        # are always fresh; everything learned from others ages, and with a
        # cutoff a stale best falls back to the host's own value.
        is_own = self.best_id[alive_idx] == alive_idx
        self.best_age[alive_idx] = np.where(is_own, 0, self.best_age[alive_idx] + 1)
        if self.cutoff is not None:
            # Re-sync own-held bests to the current own value (a host may
            # have re-absorbed its own stale advertisement after a value
            # change; refreshing that would keep the outdated value alive).
            own_holders = alive_idx[is_own]
            self.best_value[own_holders] = self.own[own_holders]
            expired = alive_idx[self.best_age[alive_idx] > self.cutoff]
            self.best_value[expired] = self.own[expired]
            self.best_id[expired] = expired
            self.best_age[expired] = 0
        if alive_idx.size >= 2:
            with self.probe.span("matching"):
                left, right = self._hosts(alive_idx, *self._draw_matching(alive_idx))
            self.messages_delivered += 2 * int(left.size)
            self.bytes_sent += 32 * int(left.size)  # 16 bytes each way
            left_better = (
                self.best_value[left] > self.best_value[right]
                if self.maximum
                else self.best_value[left] < self.best_value[right]
            )
            # Equal values: the fresher (lower-age) copy wins, like _absorb.
            tie = self.best_value[left] == self.best_value[right]
            left_better |= tie & (self.best_age[left] < self.best_age[right])
            winner = np.where(left_better, left, right)
            for array in (self.best_value, self.best_id, self.best_age):
                array[left] = array[winner]
                array[right] = array[winner]
        self.round_index += 1

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
