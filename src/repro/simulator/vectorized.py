"""The shared base of the vectorised NumPy kernels for large gossip experiments.

The agent-based engine (:mod:`repro.simulator.engine`) is the reference
implementation: it runs any protocol over any environment with per-host
objects, which is ideal for the small trace-driven populations of Fig 11
but too slow for the 10⁴–10⁵-host sweeps of Figs 6, 8, 9 and 10.  The
kernels re-implement the gossip protocols as array programs over the whole
population, one module per protocol family (listed in
:mod:`repro.simulator.kernels`).  Unit tests cross-check the kernels against
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
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.events.clocks import TIME_EPS
from repro.metrics.accuracy import group_truths

# A kernel round makes population-sized temporaries (800 KB per float array at 10⁵
# hosts), and glibc serves any block above its mmap threshold (128 KiB at start) from
# fresh zeroed pages, one fault per page, every round.  By the dynamic rule of mallopt(3),
# freeing an mmapped block raises the mmap threshold to that block's size and the trim
# threshold to twice it.  So one untouched 8 MiB block, freed once here, lets every kernel
# temporary up to 8 MiB reuse heap memory; the block itself never becomes resident
# (DESIGN.md §7 "Kernel temporaries and the allocator").
np.empty(8 << 20, dtype=np.uint8)


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
    :meth:`mass_view` (DESIGN.md §7 "The calendar protocol") — are derived
    from those, here, once.
    """

    n: int
    rng: np.random.Generator
    alive: np.ndarray
    round_index: int

    #: The aggregate the kernel computes (``"average"``, ``"count"``,
    #: ``"max"`` or ``"min"``) — the agent protocol's ``aggregate``.
    aggregate: str

    #: Cumulative network accounting, the contract every engine keeps
    #: (``delivery_counters()``, DESIGN.md §11): a record carries the change
    #: since the previous record.  One pairwise exchange counts as two
    #: messages and self-messages cost no radio bytes, as on the agent engines.
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
    #: Bernoulli loss: each message the kernel counts is lost independently.
    loss: float
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

    def _init_population(self, n: int, topology, seed: int, probe, loss: float) -> None:
        """Set what every kernel shares: size, peers, probe, generator, liveness, loss.

        ``probe`` is the instrumentation sink (:mod:`repro.obs`) of the run
        that owns this kernel; the :meth:`live_view` carries it too, since
        the topology itself is shared between runs.  Probes never draw from
        ``rng``, so attaching one is bit-neutral; so is ``loss=0``.
        """
        if n < 1:
            raise ValueError("need at least one host")
        if topology is not None and topology.n != n:
            raise ValueError(f"topology covers {topology.n} hosts but the kernel has {n}")
        if not 0.0 <= loss <= 1.0:
            raise ValueError("loss must be in [0, 1]")
        self.loss = float(loss)
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

    def _every_rank(self) -> np.ndarray:
        """``arange`` over the live ranks — every live host as a sender — read-only, built on
        first use, dropped with :meth:`live_index`."""
        if self._ranks_held is None:
            self._ranks_held = np.arange(self.live_index().size)
            self._ranks_held.flags.writeable = False
        return self._ranks_held

    def _end_epoch(self) -> None:
        """Drop everything derived from :attr:`alive`; the next reader rebuilds it."""
        self._live_index = self._live_view = self._live_rank = self._ranks_held = None

    def _mark_dead(self, indices: np.ndarray) -> None:
        """The one way hosts leave: clear their liveness, end the membership epoch."""
        self.alive[indices] = False
        self._end_epoch()

    def _draw_push_targets(self, alive_idx: np.ndarray):
        """``(senders, targets)`` as *live ranks* (positions in ``alive_idx``; ``senders``
        ascend) for one "everyone contacts one peer" round.

        Uniform gossip draws a random live host per sender (self-contact
        allowed, unlike the agent's ``UniformEnvironment``; DESIGN.md §7
        "Kernel semantics deltas"); topology-restricted gossip draws a
        random live graph neighbour, and hosts whose live neighbourhood is
        empty drop out of the round (the agent engine's isolated-host rule).
        """
        if self.topology is None:
            return self._every_rank(), self.rng.integers(0, alive_idx.size, size=alive_idx.size)
        drawn = self.live_view().sample_peers(alive_idx, self.rng, self.round_index)
        has_peer = drawn >= 0
        return has_peer.nonzero()[0], self._ranks(drawn[has_peer])

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
        now, later = (~later).nonzero()[0], later.nonzero()[0]
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
        landed = alive.nonzero()[0]
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
                taken = take.nonzero()[0]
                if taken.size == m:  # the usual last pass: nothing to compact
                    self._refresh(left, right, rows=self._exchange(state, left, right))
                    break
                a, b = left[taken], right[taken]
                self._refresh(a, b, rows=self._exchange(state, a, b))
                rest = (~take).nonzero()[0]
                left, right = left[rest], right[rest]

    def mass_view(self) -> Optional[Tuple[float, float, float, float]]:
        """``(at_hosts, in_flight, injected, lost)``: the ledger's read-only view.

        ``None`` for an idempotent, massless merge, which conserves nothing: a
        run over such a kernel keeps no ledger, as the agent engines keep none
        for a protocol whose ``state_mass`` is ``None``.
        """
        return None

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
        whose protocols define a hand-over (Push-Sum-Revert transfers mass,
        the counter kernel disowns its sketch positions) override this to mirror
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
