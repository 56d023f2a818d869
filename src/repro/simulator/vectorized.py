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

How they differ from the agent engine — push/pull as a random perfect matching
(along sampled graph edges under a topology), failures as masking — is DESIGN.md
§7 "Kernel semantics deltas".  Each kernel states its gossip once, and
:class:`_VectorizedKernel` derives the lockstep round and the event calendar's
protocol from it (DESIGN.md §7).

The two sketch kernels hold one sketch per host row and share one merge
(:func:`_merge_rows`, a fan-in-ranked scatter — no ``ufunc.at`` on the
N-D state) and one read-out (:func:`_prefix_rank` over the live rows);
DESIGN.md §7 "Sketch kernel layout" has the exactness argument.
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.cutoff import default_cutoff
from repro.events.clocks import TIME_EPS
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


def _scatter_rows(
    rows: np.ndarray, targets: np.ndarray, reduce: np.ufunc, source: np.ndarray,
    index: Optional[np.ndarray] = None,
) -> None:
    """Every ``targets[i]`` row absorbs ``source`` row ``i`` (row ``index[i]``) under
    ``reduce``, in place; a target may repeat.

    What ``reduce.at(rows, targets, source)`` computes, without ``ufunc.at``'s
    slow generic N-D path.  ``source`` rows are gathered before the first write,
    so ``source`` may be ``rows`` itself.  Pairs are ordered by their fan-in rank
    (the k-th sender of its target), so within one rank every target row occurs
    once and a plain gather → reduce → fancy assignment is exact; the loop runs
    max-fan-in times (≈ 8 under uniform gossip).  Both sort keys are cast to the
    smallest dtype that holds a row index: NumPy radix-sorts keys of 16 bits or
    fewer.
    """
    key = np.min_scalar_type(len(rows))
    order = np.argsort(targets.astype(key), kind="stable")
    grouped = targets[order]
    rank = np.arange(grouped.size) - np.searchsorted(grouped, grouped)
    order = order[np.argsort(rank.astype(key), kind="stable")]
    sent = source[order if index is None else index[order]]
    receivers = targets[order]
    start = 0
    for stop in np.cumsum(np.bincount(rank)).tolist():
        into = receivers[start:stop]
        merged = rows[into]
        reduce(merged, sent[start:stop], out=merged)
        rows[into] = merged
        start = stop


def _merge_rows(
    rows: np.ndarray, senders: np.ndarray, targets: np.ndarray, reduce: np.ufunc, pull: bool
) -> None:
    """One push(+pull) round of whole-row merges on a 2-D state, in place.

    Every ``targets[i]`` row absorbs the pre-round ``senders[i]`` row under
    ``reduce`` (an idempotent, commutative ufunc: ``minimum`` / ``logical_or``;
    :func:`_scatter_rows`) and, with ``pull``, every sender then absorbs its
    target's pre-round row.  Precondition: ``senders`` is unique and
    *ascending*, so that when every row sends, ``senders`` is
    ``arange(len(rows))`` and the pull is one in-place reduce.
    """
    pulled = rows[targets] if pull else None
    _scatter_rows(rows, targets, reduce, rows, senders)
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
    """Shared population machinery, and the one gossip step every kernel derives.

    Subclass constructors call :meth:`_init_population`; subclasses name their
    :attr:`aggregate`, implement ``estimates()`` (per live host), ``truth()`` and
    ``_grow(values, start)`` (state rows for joining hosts), and state their gossip
    once, in the agent hook vocabulary the event engine replays (``begin_round``,
    the tick, ``finalize_round``):

    * ``_state()`` — the per-host arrays the gossip moves (row ``h`` is host ``h``);
    * ``_begin(block, hosts)`` / ``_end(block, hosts)`` — optional hooks over the
      acting hosts, ``block`` holding their rows of every state array (the arrays
      themselves in :attr:`_host_space`); neither draws randomness;
    * ``_exchange(state, a, b)`` — the rule for endpoint-disjoint row pairs
      ``(a[i], b[i])``, returning the rows both ends now share, if any;
    * ``_payload(state, senders)`` / ``_land(state, targets, payload)`` — what a
      push takes out of each sender's row, and how it lands (targets repeat);
    * :meth:`_move` — only where a round's move is more than those exchanges
      or pushes (the sketches' push+pull merge, Full-Transfer).

    :meth:`step` (a lockstep round on the compact live block) and the calendar
    protocol — :meth:`step_subset`, :meth:`deliver`, :meth:`merge_pairs`,
    :meth:`mass_view` (DESIGN.md §14) — are derived from those, here, once.
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
    #: Conserved mass (Push-Sum's weight) created by reversion, destroyed by lost
    #: messages, and carried by the pushes in flight; the idempotent kernels carry none.
    mass_injected: float = 0.0
    mass_lost: float = 0.0
    in_flight_mass: float = 0.0

    #: Bytes of one message — one leg of an exchange; self-messages cost none.
    _message_bytes: int = 16
    #: Bernoulli message-loss probability (set by the lossy kernels).
    loss: float = 0.0
    #: A round draws a matching of disjoint exchanges (else one push target per host).
    _matched: bool = False
    #: A calendar tick opens an exchange with one other live host (else it pushes).
    _exchanges: bool = False
    #: The optional ``begin_round`` / ``finalize_round`` hooks, ``(block, hosts)``.
    _begin = None
    _end = None
    #: The hooks and the move index the state arrays themselves by host id, so no
    #: block is gathered (kernels whose rules are cheaper in place than on a copy).
    _host_space = False

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

    # ------------------------------------------------------ what a kernel states
    def _carried_mass(self, payload) -> Optional[np.ndarray]:
        """Per pushed message, the conserved mass it carries (``None``: massless)."""
        return None

    def _refresh(self, *hosts: np.ndarray, rows=None) -> None:
        """Bring derived per-host state up to date after the calendar moved ``hosts``
        outside a tick's end hook (``hosts`` may be several arrays that share ``rows``)."""

    # ---------------------------------------------------------- the derived step
    def _gather(self, hosts: np.ndarray) -> List[np.ndarray]:
        """``hosts``' rows of every state array: the arrays themselves for everyone, or in
        host space."""
        state = self._state()
        return state if self._host_space or hosts.size == self.n else [a[hosts] for a in state]

    def _scatter(self, block: List[np.ndarray], hosts: np.ndarray) -> None:
        """Write a gathered block back (nothing to do when it is the arrays themselves)."""
        if not self._host_space and hosts.size != self.n:
            for array, rows in zip(self._state(), block):
                array[hosts] = rows

    def _on_rows(self, hook, hosts: np.ndarray) -> None:
        """Run a begin/end hook on ``hosts``' rows."""
        if hook is not None:
            block = self._gather(hosts)
            hook(block, hosts)
            self._scatter(block, hosts)

    def step(self) -> None:
        """One lockstep round: every live host gossips once, on one compact live block.

        Block row ``i`` is host ``live_index()[i]``: the state arrays themselves while
        everyone is alive, else one gather of each and one write-back at the end.  The
        peer draw comes first, as live ranks — so a sparse matcher's temporaries never
        sit beside the block — then begin, the move and end run in place on the block;
        dead rows are never read or written.  In host space (:attr:`_host_space`) the
        block is the arrays themselves and the draw is mapped to host ids.
        """
        alive_idx = self.live_index()
        if alive_idx.size:
            pairs = self._draw_round(alive_idx) if alive_idx.size >= 2 else None
            if pairs is not None and self._host_space and alive_idx.size < self.n:
                pairs = tuple(alive_idx[ranks] for ranks in pairs)
            block = self._gather(alive_idx)
            if self._begin is not None:
                self._begin(block, alive_idx)
            if pairs is not None:
                with self.probe.span("scatter"):
                    self._move(block, alive_idx, *pairs)
            if self._end is not None:
                self._end(block, alive_idx)
            self._scatter(block, alive_idx)
        self.round_index += 1

    def _draw_round(self, alive_idx: np.ndarray):
        """A round's ``(senders, targets)`` as live ranks: a matching, or push targets."""
        if self._matched:
            with self.probe.span("matching"):
                return self._draw_matching(alive_idx)
        with self.probe.span("sampling"):
            return self._draw_push_targets(alive_idx)

    def _move(self, block, hosts: np.ndarray, senders: np.ndarray, targets: np.ndarray):
        """A round's move on the live block: the drawn exchanges, or the drawn pushes
        (returns the targets they landed at)."""
        if self._matched:
            self._exchange(block, *self._account_exchanges(senders, targets))
            return None
        targets, payload = self._lose(targets, self._emit(block, senders, targets))
        self._land(block, targets, payload)
        return targets

    def _emit(self, state, senders: np.ndarray, targets: np.ndarray):
        """The pushes' payloads, taken out of the senders.  Their radio bytes are spent
        now, lost or not (agent parity); self-messages never touch the radio."""
        self.bytes_sent += self._message_bytes * int(np.count_nonzero(targets != senders))
        return self._payload(state, senders)

    def _lose(self, targets: np.ndarray, payload):
        """Account for pushed messages; return those the network delivers (each is lost
        independently, its mass for good; ``loss=0`` draws nothing)."""
        if self.loss > 0.0:
            kept = self.rng.random(targets.size) >= self.loss
            mass = self._carried_mass(payload)
            if mass is not None:
                self.mass_lost += float(mass[~kept].sum())
            self.messages_lost += int(targets.size - int(kept.sum()))
            targets, payload = targets[kept], [rows[kept] for rows in payload]
        self.messages_delivered += int(targets.size)
        return targets, payload

    def _account_exchanges(self, left: np.ndarray, right: np.ndarray):
        """Account for attempted exchanges; return the pairs that go ahead.  A lossy link
        cancels the atomic exchange (nothing is at risk), but the initiator's message
        still crossed the radio (agent parity: ``record_sent``)."""
        if self.loss > 0.0:
            kept = self.rng.random(left.size) >= self.loss
            dropped = int(left.size - int(kept.sum()))
            left, right = left[kept], right[kept]
            self.messages_lost += 2 * dropped
            self.bytes_sent += self._message_bytes * dropped
        self.messages_delivered += 2 * int(left.size)
        self.bytes_sent += 2 * self._message_bytes * int(left.size)  # one message each way
        return left, right

    # ---------------------------------------------------- the calendar protocol
    def step_subset(self, ticking, delays=None) -> List[tuple]:
        """One gossip tick for just ``ticking`` (unique live hosts), in the calendar's bucket.

        The tickers' begin hook, one message each to a partner drawn from the
        *whole* live population (as in the agent event engine), their end hook
        — on the live block when everyone ticks.  ``round_index`` stays put.
        ``delays(k)`` draws ``k`` network delays (``None``: all zero).  What has
        no delay lands within the tick through the rules a round uses; the rest
        is returned as opaque ``(kind, senders, delay, *arrays)`` batches —
        message ``i`` left ``senders[i]`` and matures ``delay[i]`` later, when
        the calendar hands ``(kind, *arrays)`` to :meth:`deliver` — and is in
        flight until then.
        """
        ticking = np.asarray(ticking, dtype=np.int64)
        alive_idx = self.live_index()
        if ticking.size == alive_idx.size:  # unique live hosts: the live index itself
            ticking = alive_idx
        self._on_rows(self._begin, ticking)
        deferred: List[tuple] = []
        if alive_idx.size >= 2 and ticking.size:
            deferred = self._tick(ticking, alive_idx, delays)
        self._on_rows(self._end, ticking)
        return deferred

    def _draw_partners(self, ticking: np.ndarray, alive_idx: np.ndarray):
        """``(senders, peers)`` as host ids: one partner per ticker.  Uniform gossip
        exchanges with any *other* live host (the ticker's live rank offset by
        ``1..n_alive-1``) and pushes to any live host; under a topology the partner is
        a live graph neighbour, and a ticker without one sends nothing."""
        if self.topology is not None:
            drawn = self.live_view().sample_peers(ticking, self.rng, self.round_index)
            has_peer = drawn >= 0
            return ticking[has_peer], drawn[has_peer]
        k = alive_idx.size
        if self._exchanges:
            peers = self.rng.integers(1, k, size=ticking.size)
            # (Every live host ticking: the tickers' ranks are 0..k-1.)
            peers += np.arange(k) if ticking.size == k else self.live_rank()[ticking]
            peers %= k
        else:
            peers = self.rng.integers(0, k, size=ticking.size)
        return ticking, peers if k == self.n else alive_idx[peers]

    def _tick(self, ticking: np.ndarray, alive_idx: np.ndarray, delays) -> List[tuple]:
        """The tickers' messages: landed within the tick, or returned as one batch.

        A delayed exchange completes once both legs have arrived, as one atomic
        merge; a delayed push carries its payload, which left the sender at once.
        """
        with self.probe.span("sampling"):
            senders, peers = self._draw_partners(ticking, alive_idx)
        m, legs = senders.size, 2 if self._exchanges else 1
        if legs == 1:
            state = self._state()
            payload = self._emit(state, senders, peers)
        drawn = np.zeros(legs * m) if delays is None else delays(legs * m)
        delay = drawn[:m]
        if legs == 2:
            delay += drawn[m:]
        later = delay > TIME_EPS
        now, later = np.flatnonzero(~later), np.flatnonzero(later)
        if now.size and legs == 2:
            self.merge_pairs(*self._account_exchanges(senders[now], peers[now]))
        elif now.size:
            self._deliver_pushes(state, *self._lose(peers[now], [rows[now] for rows in payload]))
        if not later.size:
            return []
        self.messages_in_flight += legs * later.size
        senders = senders[later]
        if legs == 2:
            self.bytes_sent += 2 * self._message_bytes * later.size
            return [("exchange", senders, delay[later], senders, peers[later])]
        payload = [rows[later] for rows in payload]
        mass = self._carried_mass(payload)
        if mass is not None:
            self.in_flight_mass += float(mass.sum())
        return [("push", senders, delay[later], peers[later], *payload)]

    def _deliver_pushes(self, state, targets: np.ndarray, payload) -> None:
        """Land pushes in host space, then refresh what they moved."""
        with self.probe.span("scatter"):
            self._land(state, targets, payload)
        self._refresh(targets)

    def deliver(self, kind: str, *arrays: np.ndarray) -> None:
        """Land one matured batch that :meth:`step_subset` deferred.

        A message whose endpoint died in the meantime is lost: a push takes
        its mass out of the system (:attr:`mass_lost`), an exchange simply
        does not happen (two messages lost, nothing merged).
        """
        legs = 2 if kind == "exchange" else 1
        targets, *rest = arrays  # an exchange's (left, right); a push's (targets, *payload)
        alive = self.alive[targets]
        if legs == 2:
            alive &= self.alive[rest[0]]
        mass = None if legs == 2 else self._carried_mass(rest)
        if mass is not None:
            self.in_flight_mass -= float(mass.sum())
        self.messages_in_flight -= legs * targets.size
        landed = np.flatnonzero(alive)
        if landed.size < targets.size:
            if mass is not None:
                self.mass_lost += float(mass[~alive].sum())
            self.messages_lost += legs * (targets.size - landed.size)
            targets, rest = targets[landed], [rows[landed] for rows in rest]
        if not landed.size:
            return
        if legs == 2:
            self.merge_pairs(targets, rest[0])
        else:
            self._deliver_pushes(self._state(), targets, rest)
        self.messages_delivered += legs * landed.size

    def merge_pairs(self, left: np.ndarray, right: np.ndarray) -> None:
        """Atomic pairwise exchanges in host space, serialised where endpoints collide.

        ``(left[i], right[i])`` are exchange pairs whose endpoints may
        repeat (the event calendar draws partners independently, unlike the
        round's perfect matching).  Conflicting exchanges are resolved in
        pair order: each pass takes every pair that is the lowest-indexed
        remaining claimant of *both* its endpoints (those are
        endpoint-disjoint, so the kernel's ``_exchange`` applies, and the
        pass refreshes them), then repeats on the rest.  Every lower-indexed
        pair sharing an endpoint with a taken pair went in an earlier pass,
        so the result is, bit for bit, the pairs applied one by one in pair
        order; collisions are rare at gossip fan-out, so passes are few.
        """
        state = self._state()
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
                    self._refresh(left, right, rows=self._exchange(state, left, right))
                    break
                a, b = left[taken], right[taken]
                self._refresh(a, b, rows=self._exchange(state, a, b))
                rest = np.flatnonzero(~take)
                left, right = left[rest], right[rest]

    def mass_view(self) -> Tuple[float, float, float, float]:
        """``(at_hosts, in_flight, injected, lost)``: the ledger's read-only view.

        An idempotent, massless merge conserves nothing, so by default all four
        are zero and the ledger trivially balances.
        """
        return 0.0, 0.0, 0.0, 0.0

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
        self._matched = self._exchanges = mode == "pushpull"
        # Full-Transfer reverts inside its own round, and so does adaptive push
        # (per indegree): the fixed revert of the end hook skips both.
        self._fixed_revert = self.reversion > 0.0 and (
            mode == "pushpull" or (mode == "push" and not self.adaptive)
        )
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

    # ------------------------------------------------------------------ gossip
    def _state(self) -> List[np.ndarray]:
        return [self.weight, self.total]

    def _end(self, block: List[np.ndarray], hosts: np.ndarray) -> None:
        """Push-Sum's ``finalize_round``: the fixed revert where it applies (its weight
        booked in :attr:`mass_injected`), then the estimate refresh — a massless host
        keeps its last estimate."""
        weight, total = block
        if self._fixed_revert:
            old_mass = weight.sum()
            self._revert_block(hosts, weight, total, self.reversion)
            self.mass_injected += float(weight.sum() - old_mass)
        everyone = hosts.size == self.n
        estimate = self._last_estimate if everyone else self._last_estimate[hosts]
        np.divide(total, weight, out=estimate, where=weight > 1e-12)
        if not everyone:
            self._last_estimate[hosts] = estimate

    def _refresh(self, *hosts: np.ndarray, rows=None) -> None:
        """Refresh ``hosts``' stored estimates from their mass (``rows``, if the caller
        holds it); a massless host keeps its last estimate.

        Every path that moves mass ends here or in :meth:`_end`, so
        :attr:`_last_estimate` is always current for every live host (the
        invariant :meth:`estimates` reads).  Several ``hosts`` arrays share one
        mass: the two ends of exchanged pairs.  Repeated hosts are fine.  Why a
        refresh per ``merge_pairs`` pass is exact: DESIGN.md §14.
        """
        weight, total = (self.weight[hosts[0]], self.total[hosts[0]]) if rows is None else rows
        has_weight = weight > 1e-12
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
        """Each sender keeps half its mass and pushes the other half (whole rows while
        every row sends)."""
        weight, total = state
        rows = slice(None) if senders.size == weight.size else senders
        halves = weight[rows] / 2.0, total[rows] / 2.0
        weight[rows], total[rows] = halves
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
        ranks = np.arange(k)
        for parcel in range(self.parcels):
            if parcel:
                targets = self.rng.integers(0, k, size=k)
            # Every non-self parcel costs radio bytes whether or not the
            # network then loses it (agent parity); lost parcels drain mass.
            self.bytes_sent += self._message_bytes * int(np.count_nonzero(targets != ranks))
            self._land(block, *self._lose(targets, parcels))
        # Record this round in the history of hosts that received any mass.
        received = np.flatnonzero(weight > 1e-12)
        if received.size:
            idx = received if k == self.n else hosts[received]
            self._history_weight[idx, 1:] = self._history_weight[idx, :-1]
            self._history_total[idx, 1:] = self._history_total[idx, :-1]
            self._history_weight[idx, 0] = weight[received]
            self._history_total[idx, 0] = total[received]
            self._history_filled[idx] = np.minimum(self._history_filled[idx] + 1, self.history)

    def mass_view(self) -> Tuple[float, float, float, float]:
        """The ledger's view: the weight at the live hosts and in flight now, and the
        totals reversion has created and lost messages have destroyed."""
        at_hosts = float(self.weight[self.live_index()].sum())
        return at_hosts, self.in_flight_mass, self.mass_injected, self.mass_lost

    def _revert_block(self, alive_idx: np.ndarray, weight: np.ndarray, total: np.ndarray, lam):
        """Move the rows of ``alive_idx`` ``lam`` of the way back to ``(1, initial)``, in place.

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
        :attr:`mass_lost`).  A host named twice signs off once (the agent's
        second sign-off hands over an empty state).
        """
        indices = np.asarray(list(dict.fromkeys(map(int, host_indices))), dtype=np.int64)
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
            self._refresh(heirs)
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
            return self._last_estimate[alive_idx]  # kept current by _end / _refresh
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
    """The two sketch kernels: one sketch per host row (no per-host values), merged
    under an idempotent ufunc.  A round pushes every live sketch to one drawn target
    and, with ``pull``, sends the target's back (:func:`_merge_rows`); on the calendar
    ``pull`` makes a tick one atomic exchange, and a deferred push carries a copy of
    the sender's row.  Massless: the default, all-zero ``mass_view()`` is exact."""

    aggregate = "count"
    pull: bool
    #: The element-wise merge: ``np.minimum`` (counters) or ``np.logical_or`` (bits).
    _reduce: np.ufunc

    def _init_sketches(self, n, bins, bits, identifiers_per_host, pull, topology, seed, probe):
        """:meth:`_init_population` plus the sketch dimensions both kernels share."""
        if bins < 1 or bits < 1:
            raise ValueError("bins and bits must be >= 1")
        if identifiers_per_host < 1:
            raise ValueError("identifiers_per_host must be >= 1")
        self._init_population(n, topology, seed, probe)
        self.bins, self.bits = int(bins), int(bits)
        self.identifiers_per_host = int(identifiers_per_host)
        self.pull = self._exchanges = bool(pull)

    def truth(self) -> float:
        """The correct count (number of live hosts; NaN once nobody is alive)."""
        n_alive = int(self.alive.sum())
        return float(n_alive) if n_alive else float("nan")

    def _move(self, block, hosts: np.ndarray, senders: np.ndarray, targets: np.ndarray):
        # A self-contact is no message; the pull reply is a second one.
        non_self = int(np.count_nonzero(targets != senders))
        legs = 2 if self.pull else 1
        self.messages_delivered += legs * non_self
        self.bytes_sent += legs * self._message_bytes * non_self
        _merge_rows(block[0], senders, targets, self._reduce, self.pull)

    def _draw_partners(self, ticking: np.ndarray, alive_idx: np.ndarray):
        """The base draw less its self-pushes: on the calendar too, a row merged into
        itself is no message (the agent engine never counts one either)."""
        senders, peers = super()._draw_partners(ticking, alive_idx)
        sends = np.flatnonzero(peers != senders)  # (an exchange partner is never oneself)
        return senders[sends], peers[sends]

    def _exchange(self, state: List[np.ndarray], a: np.ndarray, b: np.ndarray) -> None:
        (rows,) = state
        merged = rows[a]
        self._reduce(merged, rows[b], out=merged)
        rows[a] = merged
        rows[b] = merged

    def _payload(self, state: List[np.ndarray], senders: np.ndarray):
        return (state[0][senders],)

    def _land(self, state: List[np.ndarray], targets: np.ndarray, payload) -> None:
        _scatter_rows(state[0], targets, self._reduce, payload[0])


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
        self._init_sketches(n, bins, bits, identifiers_per_host, pull, topology, seed, probe)
        self.cutoff = cutoff
        self._message_bytes = 2 * self.bins * self.bits  # agent parity: 2 B/counter

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

    # ------------------------------------------------------------------ gossip
    _reduce = np.minimum

    def _state(self) -> List[np.ndarray]:
        return [self.counters.reshape(self.n, -1)]  # a view: one sketch per row

    def _begin(self, block: List[np.ndarray], hosts: np.ndarray) -> None:
        """Count-Sketch-Reset's ``begin_round``: age every acting counter, then re-pin
        the acting owners' positions (through the ``(host, position)`` index arrays
        recorded when the identifiers were drawn).  Counters are >= 0 and every
        live owned position is 0 after ageing, so no later min can unpin one."""
        (rows,) = block
        with self.probe.span("ageing"):
            np.add(rows, 1, out=rows)
            np.minimum(rows, _COUNTER_INFINITY, out=rows)
            if hosts is self.live_index():
                row = self.live_rank()
            else:  # the rows of a partial tick
                row = np.full(self.n, -1, dtype=np.int64)
                row[hosts] = np.arange(hosts.size)
            owners = row[self._owned_hosts]
            acting = owners >= 0
            rows[owners[acting], self._owned_positions[acting]] = 0

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
        self._init_sketches(n, bins, bits, identifiers_per_host, pull, topology, seed, probe)
        # Agent parity: a boolean sketch packs to one bit per position.
        self._message_bytes = int(np.ceil(self.bins * self.bits / 8))
        self.matrix = self._fresh_rows(self.n)

    def _fresh_rows(self, count: int) -> np.ndarray:
        """Sketches of ``count`` new hosts: just their own identifiers' bits."""
        return _draw_identifiers(
            self.rng, count, self.bins, self.bits, self.identifiers_per_host
        )[0]

    # ------------------------------------------------------------- membership
    def _grow(self, values: np.ndarray, start: int) -> None:
        self.matrix = np.concatenate([self.matrix, self._fresh_rows(values.size)])

    # ------------------------------------------------------------------ gossip
    _reduce = np.logical_or
    _host_space = True  # no hooks: the merge alone touches rows

    def _state(self) -> List[np.ndarray]:
        return [self.matrix.reshape(self.n, -1)]  # a view: one sketch per row

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
