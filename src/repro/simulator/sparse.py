"""Sparse-adjacency peer sampling for the vectorised kernels.

Uniform gossip selects peers with one ``rng.integers``/``rng.permutation``
call over the live index.  This module lets the kernels in
:mod:`repro.simulator.vectorized` run *graph-restricted* gossip at the same
speed: "one random live peer for each of these hosts" is answered as an array
program, and the kernels treat the answer exactly like the uniform draw.

Every topology is two things.  The *graph* is immutable once built, memoised
by the backend and shared between runs:

* :class:`CSRTopology` — an arbitrary static graph held as CSR
  ``indptr``/``indices`` arrays (rings, grids, random-geometric and Erdős–Rényi
  graphs: anything a :class:`~repro.environments.NeighborhoodEnvironment` holds).
* :class:`TraceCSRTopology` — a contact trace replayed as one such graph per
  round (a function of trace and round, so their LRU stays on the topology).
* :class:`GridRingTopology` — the spatial-gossip rule of the paper's
  Section IV-A (Kempe–Kleinberg–Demers) on a 2-D grid: a distance ``d`` drawn
  with probability ∝ ``1/d²``, then a uniform live host on the L1 ring at
  exactly that distance, enumerated arithmetically (never materialised), so
  sampling is O(attempts) per host regardless of ``d``.

A :class:`LiveView` — ``topology.view(alive, probe)`` — is the graph under
*one alive mask*, owned by whoever owns the mask: a kernel builds one per
membership epoch and drops it when a host leaves, so no mask is ever hashed
or compared and the shared graph is only read.  The view holds what stays
constant with the mask (the live index; for a CSR graph the live-edge CSR and
its ``degree``/``indptr`` gathers over the whole live index; the component
labels once asked for) and answers what the kernels need:
:meth:`~LiveView.sample_peers` (one live peer per requesting host, ``-1``
when the host is isolated), :meth:`~LiveView.sample_matching` (a
conflict-free set of pairwise exchanges along sampled edges — the graph
analogue of the uniform kernels' random perfect matching) and
:meth:`~LiveView.component_labels` (the connected components of the
live-induced graph, for group-relative error accounting à la Fig 11).  It
carries its owner's ``probe`` (:mod:`repro.obs`); only a trace view reads the
``round_index`` each call names.  Hand-driven callers keep the stateless
``topology.sample_peers(requesters, alive, rng, …)`` forms, which delegate to
a one-slot memo of the last mask's view.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.obs.probe import NULL_PROBE
from repro.topology.graphs import grid_edges

__all__ = [
    "CSRTopology",
    "GridRingTopology",
    "LiveView",
    "TraceCSRTopology",
    "greedy_edge_matching",
]

Adjacency = Dict[int, Set[int]]


def greedy_edge_matching(
    left: np.ndarray, right: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """A matching among the candidate edges ``(left[i], right[i])``.

    Each candidate edge draws an iid uniform priority; an edge is accepted
    when it holds the highest priority at *both* of its endpoints.  The
    order of ``m`` iid uniforms is a uniform random permutation of the
    edges, so the law is that of shuffled distinct ranks without the
    shuffle.  Accepted edges never share a vertex (two accepted edges
    meeting at ``v`` would both have to carry ``v``'s maximum) unless two
    priorities tie there — probability about 2⁻⁵³ per pair of edges, which
    :meth:`LiveView.sample_matching` detects and redraws.  The result is
    computed in one vectorised pass — no sequential greedy loop.

    ``left`` must not repeat a vertex (each requester proposes once), so
    its priorities are assigned rather than max-reduced.  Returns the
    boolean acceptance mask over the candidate edges.
    """
    if left.size == 0:
        return np.zeros(0, dtype=bool)
    priority = rng.random(left.size)
    best = np.full(n, -1.0)
    best[left] = priority
    np.maximum.at(best, right, priority)
    return (best[left] == priority) & (best[right] == priority)


class LiveView:
    """A topology under one alive mask (see the module docstring).

    ``alive`` must not change under a view — its owner drops the view
    instead — and ``live_index``, if given, is its ``alive.nonzero()[0]``.  The
    base class samples through ``topology._draw_peers(requesters, alive,
    rng)``; the CSR and trace views add what they precompute per mask.
    """

    def __init__(self, topology, alive: np.ndarray, probe=NULL_PROBE, live_index=None):
        self.topology, self.alive, self.probe = topology, alive, probe
        self.live_index = alive.nonzero()[0] if live_index is None else live_index
        self._labels = None

    def sample_peers(
        self, requesters: np.ndarray, rng: np.random.Generator, round_index: int = 0
    ) -> np.ndarray:
        """One uniform live peer per requester: a live host, or ``-1`` if it has none."""
        return self.topology._draw_peers(requesters, self.alive, rng)

    def sample_matching(
        self, rng: np.random.Generator, *, passes: int = 3, round_index: int = 0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Pairwise exchange partners along sampled edges.

        Every live host proposes one random live peer; proposals are
        resolved into a matching by :func:`greedy_edge_matching`, and hosts
        left unmatched get ``passes - 1`` further proposal rounds against
        the still-unmatched population.  This is the graph analogue of the
        uniform kernels' random perfect matching: on sparse graphs a
        perfect matching need not exist, so unmatched hosts simply sit the
        round out — exactly like an agent-engine host whose neighbourhood
        is empty.

        Returns ``(left, right)`` index arrays of the accepted exchanges.
        """
        pairs: List[Tuple[np.ndarray, np.ndarray]] = []
        available = None  # copied from the mask after pass 0's proposals
        requesters = self.live_index
        for _ in range(max(1, passes)):
            if requesters.size < 2:
                break
            targets = self.sample_peers(requesters, rng, round_index)
            # A proposal only stands if its target (live, by sample_peers'
            # contract) is itself still unmatched; -1 gathers are masked out.
            valid = targets >= 0
            if available is not None:
                valid &= available[targets]
            if valid.all():
                left, right = requesters, targets
            else:
                standing = valid.nonzero()[0]
                left, right = requesters[standing], targets[standing]
            if available is None:
                available = self.alive.copy()
            while True:
                accepted = greedy_edge_matching(left, right, self.topology.n, rng).nonzero()[0]
                matched_left, matched_right = left[accepted], right[accepted]
                available[matched_left] = False
                available[matched_right] = False
                unmatched = requesters[available[requesters].nonzero()[0]]
                # Every endpoint is a requester, so the pass is a matching
                # exactly when each accepted edge took two requesters away;
                # a priority tie did not: undo the pass and redraw.
                if requesters.size - unmatched.size == 2 * accepted.size:
                    break
                available[matched_left] = True
                available[matched_right] = True
            if accepted.size == 0:
                break
            pairs.append((matched_left, matched_right))
            requesters = unmatched
        if not pairs:
            empty = np.array([], dtype=np.int64)
            return empty, empty
        lefts, rights = zip(*pairs)
        return np.concatenate(lefts), np.concatenate(rights)

    def component_labels(self, round_index: int = 0):
        """``(labels, sizes)`` for the live components (built once per view).

        ``labels[host]`` is the component index of every live host (``-1``
        for dead hosts) and ``sizes[c]`` the member count of component
        ``c``.  Group-relative error (the Fig 11 definition) needs the
        partition every round, but the partition only changes when hosts
        fail — that is, with the view.
        """
        if self._labels is None:
            with self.probe.span("component_labelling"):
                u, v = self.topology._edges()
                live = self.alive[u] & self.alive[v]
                full = _min_label_components(u[live], v[live], self.topology.n)
                self._labels = _live_labels(full, self.live_index)
        return self._labels


class _CSRView(LiveView):
    """A :class:`CSRTopology` under one mask: the CSR of edges into live hosts
    (``indptr``/``indices``/``degree``) and its gathers over the whole live index,
    which the first pass of every matching and every push-mode draw asks for."""

    def __init__(self, topology, alive: np.ndarray, probe=NULL_PROBE, live_index=None):
        super().__init__(topology, alive, probe, live_index)
        with probe.span("csr_rebuild"):
            if self.live_index.size == alive.size:  # everyone is alive: the graph itself
                self.indptr, self.indices = topology.indptr, topology.indices
                self.degree = np.diff(topology.indptr)
                self._index_degree, self._index_start = self.degree, self.indptr[:-1]
            else:
                # One compaction serves both gathers; an ascending take keeps
                # the CSR grouping, so the kept indices stay segment-aligned.
                live_edges = alive[topology.indices].nonzero()[0]
                self.degree = np.bincount(
                    topology._edge_owner[live_edges], minlength=topology.n
                ).astype(np.int64)
                self.indptr = np.zeros(topology.n + 1, dtype=np.int64)
                np.cumsum(self.degree, out=self.indptr[1:])
                self.indices = topology.indices[live_edges]
                self._index_degree = self.degree[self.live_index]
                self._index_start = self.indptr[self.live_index]

    def sample_peers(
        self, requesters: np.ndarray, rng: np.random.Generator, round_index: int = 0
    ) -> np.ndarray:
        if self.indices.size == 0:
            return np.full(requesters.size, -1, dtype=np.int64)
        if requesters is self.live_index:
            degree, start = self._index_degree, self._index_start
        else:
            degree, start = self.degree[requesters], self.indptr[requesters]
        scaled = rng.random(requesters.size)
        scaled *= degree
        slots = scaled.astype(np.int64)
        # Clamp the (probability-zero) draw == degree edge case, and keep
        # zero-degree gathers in bounds (``clip``) before masking them to -1.
        np.minimum(slots, degree - 1, out=slots)
        np.maximum(slots, 0, out=slots)
        slots += start
        peers = self.indices.take(slots, mode="clip")
        if not degree.all():
            peers[degree == 0] = -1
        return peers


class _TraceView(LiveView):
    """A :class:`TraceCSRTopology` under one mask: the current round's live CSR."""

    _current = (None, None)  # (round, that round's graph under the mask)

    def sample_peers(
        self, requesters: np.ndarray, rng: np.random.Generator, round_index: int = 0
    ) -> np.ndarray:
        if round_index != self._current[0]:
            graph = self.topology._round_csr(round_index, self.probe)
            self._current = (round_index, graph.view(self.alive, self.probe, self.live_index))
        return self._current[1].sample_peers(requesters, rng)

    def component_labels(self, round_index: int = 0):
        """``(labels, sizes)`` of round ``round_index``'s window-union groups.

        Groups are the full-union components intersected with the live
        set (empty intersections dropped, exactly like the agent
        environment's group rule), relabelled ``0..k-1``; a live host with
        no window contacts is its own group of one.
        """
        full = self.topology._union_labels(round_index, self.probe)
        return _live_labels(full, self.live_index)


class _Topology:
    """What every graph shares: the view factory and the stateless entry points.

    Subclasses set ``n`` and implement :meth:`_edges` plus ``_draw_peers``, or
    name their own :class:`LiveView` subclass as ``_view_class``.
    """

    n: int
    _view_class = LiveView
    #: The view the last stateless call used (never touched by a kernel run).
    _last_view: Optional[LiveView] = None

    def view(self, alive: np.ndarray, probe=NULL_PROBE, live_index=None) -> LiveView:
        """This graph under ``alive``, reporting to ``probe``."""
        return self._view_class(self, alive, probe, live_index)

    def _edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(u, v)``: every undirected edge once (what components follow)."""
        raise NotImplementedError

    def _view_of(self, alive: np.ndarray, probe) -> LiveView:
        """The stateless calls' one-slot memo: the last view while mask and probe
        repeat, else a new one over a copy of the mask (installed in one assignment)."""
        view = self._last_view
        if view is None or view.probe is not probe or not np.array_equal(view.alive, alive):
            view = self._last_view = self.view(alive.copy(), probe)
        return view

    def sample_peers(
        self, requesters: np.ndarray, alive: np.ndarray, rng: np.random.Generator,
        probe=NULL_PROBE, round_index: int = 0,
    ) -> np.ndarray:
        """Stateless :meth:`LiveView.sample_peers`."""
        return self._view_of(alive, probe).sample_peers(requesters, rng, round_index)

    def sample_matching(
        self, alive_idx: np.ndarray, alive: np.ndarray, rng: np.random.Generator,
        *, passes: int = 3, probe=NULL_PROBE, round_index: int = 0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Stateless :meth:`LiveView.sample_matching` (``alive_idx`` is ``alive``'s nonzero)."""
        view = self._view_of(alive, probe)
        return view.sample_matching(rng, passes=passes, round_index=round_index)

    def component_labels(self, alive: np.ndarray, probe=NULL_PROBE, round_index: int = 0):
        """Stateless :meth:`LiveView.component_labels`."""
        return self._view_of(alive, probe).component_labels(round_index)


class CSRTopology(_Topology):
    """A static undirected graph in CSR form, sampled against a live mask.

    Parameters
    ----------
    indptr, indices:
        Standard CSR arrays: the neighbours of host ``i`` are
        ``indices[indptr[i]:indptr[i + 1]]``.  Build from an adjacency map
        with :meth:`from_adjacency`.
    """

    _view_class = _CSRView

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        if self.indptr.ndim != 1 or self.indptr.size < 1 or self.indptr[0] != 0:
            raise ValueError("indptr must be a 1-D array starting at 0")
        if self.indices.ndim != 1 or self.indptr[-1] != self.indices.size:
            raise ValueError("indices length must equal indptr[-1]")
        self.n = self.indptr.size - 1
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.n):
            raise ValueError("indices reference hosts outside 0..n-1")
        #: Owner of each CSR slot (precomputed once; drives live rebuilds).
        self._edge_owner = np.repeat(
            np.arange(self.n, dtype=np.int64), np.diff(self.indptr)
        )

    @classmethod
    def from_edges(cls, u: np.ndarray, v: np.ndarray, n: int) -> "CSRTopology":
        """Build from unique undirected edge arrays (no self-loops).

        This is the fast path for generators with a closed-form edge
        enumeration (:func:`~repro.topology.graphs.ring_lattice_edges`,
        :func:`~repro.topology.graphs.grid_edges`): no per-node Python
        sets are ever materialised, so a 10⁵-host topology builds in
        milliseconds.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError("edge arrays must be 1-D and of equal length")
        source = np.concatenate([u, v])
        destination = np.concatenate([v, u])
        order = np.lexsort((destination, source))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(source, minlength=n), out=indptr[1:])
        return cls(indptr, destination[order])

    @classmethod
    def from_adjacency(cls, adjacency: Adjacency, n: Optional[int] = None) -> "CSRTopology":
        """Build from an adjacency map (``repro.topology.graphs`` output)."""
        size = int(n) if n is not None else (max(adjacency, default=-1) + 1)
        degrees = np.zeros(size, dtype=np.int64)
        for node, neighbors in adjacency.items():
            if not 0 <= node < size:
                raise ValueError(f"adjacency references host {node} outside 0..{size - 1}")
            degrees[node] = len(neighbors)
        indptr = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        indices = np.zeros(int(indptr[-1]), dtype=np.int64)
        for node, neighbors in adjacency.items():
            start = indptr[node]
            indices[start : start + len(neighbors)] = sorted(neighbors)
        return cls(indptr, indices)

    def _edges(self) -> Tuple[np.ndarray, np.ndarray]:
        once = self._edge_owner < self.indices  # each edge holds two CSR slots
        return self._edge_owner[once], self.indices[once]


def _min_label_components(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Per-node component label via vectorised min-label propagation.

    Each node starts labelled with its own index; every pass pulls the
    minimum label across each edge and then pointer-jumps (``labels =
    labels[labels]``) until stable, so convergence needs O(log diameter)
    passes rather than O(diameter).  Isolated nodes keep their own index,
    i.e. they are singleton components — the same convention as
    :func:`repro.topology.connectivity.connected_components`.
    """
    labels = np.arange(n, dtype=np.int64)
    if u.size == 0:
        return labels
    while True:
        gathered = np.minimum(labels[u], labels[v])
        np.minimum.at(labels, u, gathered)
        np.minimum.at(labels, v, gathered)
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
        if np.array_equal(labels[u], labels[v]):
            return labels


def _live_labels(full: np.ndarray, live: np.ndarray):
    """``(labels, sizes)``: per-node labels ``full`` restricted to the hosts ``live``.

    Components are renumbered ``0..k-1`` over their live members (dead hosts
    get ``-1``, memberless labels drop out); ``sizes[c]`` counts component ``c``.
    """
    labels = np.full(full.size, -1, dtype=np.int64)
    if live.size == 0:
        return labels, np.zeros(0, dtype=np.int64)
    unique, remapped = np.unique(full[live], return_inverse=True)
    labels[live] = remapped
    sizes = np.bincount(remapped, minlength=unique.size).astype(np.int64)
    return labels, sizes


class TraceCSRTopology(_Topology):
    """A contact trace replayed as a per-round time-varying CSR graph.

    This is the vectorised counterpart of
    :class:`~repro.environments.TraceEnvironment`: round ``t`` happens at
    simulated time ``t * round_seconds``, the edges in range at that
    instant form the gossip graph, and the paper's "nearby group" is the
    connected components of the *union* of every edge seen in the last
    ``group_window_seconds``.

    The trace's merged contact intervals are held as flat NumPy arrays
    ``(u, v, start, end)``; every call names the round it samples (the
    shared topology holds no "current round"), and the per-round live graph
    is materialised on demand as an ordinary :class:`CSRTopology` (one
    vectorised interval mask + one ``from_edges`` build, LRU-cached per
    round, so multi-seed sweeps that share the topology compile each round
    once).  A view samples through that graph's own live view — rebuilt when
    the round moves on — and group labels come from a vectorised min-label
    component pass over the window-union edges.

    Parameters
    ----------
    trace:
        The :class:`~repro.mobility.traces.ContactTrace` to replay.
    round_seconds:
        Simulated seconds per gossip round (the paper gossips every 30 s).
    group_window_seconds:
        Length of the group-union window (0 groups by the instantaneous
        graph, like the agent environment).
    cache_rounds:
        Number of per-round compiled graphs kept in each LRU cache.
    """

    _view_class = _TraceView

    def __init__(
        self,
        trace,
        *,
        round_seconds: float = 30.0,
        group_window_seconds: float = 600.0,
        cache_rounds: int = 32,
    ):
        if round_seconds <= 0:
            raise ValueError("round_seconds must be positive")
        if group_window_seconds < 0:
            raise ValueError("group_window_seconds must be non-negative")
        if cache_rounds < 1:
            raise ValueError("cache_rounds must be >= 1")
        self.n = int(trace.n_devices)
        self.round_seconds = float(round_seconds)
        self.group_window_seconds = float(group_window_seconds)
        self.total_rounds = int(trace.duration // self.round_seconds) + 1
        self._cache_rounds = int(cache_rounds)
        records = trace.records
        self._u = np.fromiter((r.a for r in records), dtype=np.int64, count=len(records))
        self._v = np.fromiter((r.b for r in records), dtype=np.int64, count=len(records))
        self._start = np.fromiter(
            (r.start for r in records), dtype=float, count=len(records)
        )
        self._end = np.fromiter((r.end for r in records), dtype=float, count=len(records))
        self._csr_cache: "OrderedDict[int, CSRTopology]" = OrderedDict()
        self._labels_by_round: "OrderedDict[int, np.ndarray]" = OrderedDict()

    # ---------------------------------------------------------------- rounds
    def time_of_round(self, round_index: int) -> float:
        """Simulated time at which ``round_index`` happens."""
        return round_index * self.round_seconds

    def _round_csr(self, round_index: int, probe) -> CSRTopology:
        """The instantaneous contact graph of one round (LRU-cached)."""
        cached = self._csr_cache.get(round_index)
        if cached is not None:
            self._csr_cache.move_to_end(round_index)
            return cached
        with probe.span("csr_rebuild", round=round_index):
            time = self.time_of_round(round_index)
            active = (self._start <= time) & (time < self._end)
            csr = CSRTopology.from_edges(self._u[active], self._v[active], self.n)
        self._csr_cache[round_index] = csr
        while len(self._csr_cache) > self._cache_rounds:
            self._csr_cache.popitem(last=False)
        return csr

    def _union_labels(self, round_index: int, probe) -> np.ndarray:
        """Component labels of the full window-union graph (LRU-cached).

        Matches ``TraceEnvironment.groups``: the union covers every edge
        overlapping ``[time - window, time + 1e-9)`` regardless of which
        hosts are currently alive (a dead host can still bridge a group),
        and the intersection with the live set happens per call in
        :meth:`_TraceView.component_labels`.
        """
        cached = self._labels_by_round.get(round_index)
        if cached is not None:
            self._labels_by_round.move_to_end(round_index)
            return cached
        with probe.span("component_labelling", round=round_index):
            time = self.time_of_round(round_index)
            in_window = (self._start < time + 1e-9) & (
                self._end > time - self.group_window_seconds
            )
            labels = _min_label_components(self._u[in_window], self._v[in_window], self.n)
        self._labels_by_round[round_index] = labels
        while len(self._labels_by_round) > self._cache_rounds:
            self._labels_by_round.popitem(last=False)
        return labels


class GridRingTopology(_Topology):
    """Spatial gossip on a ``width`` × ``height`` grid with 1/d² long links.

    The vectorised realisation of
    :class:`~repro.environments.SpatialGridEnvironment`: a gossip peer is
    found by sampling an L1 distance ``d ∝ 1/d²`` and then a uniform live
    host on the ring at exactly that distance.  (The agent environment can
    also *walk* to the peer hop by hop; the walk's endpoint distribution
    is an approximation of this ring draw, which is the model's
    idealisation — see DESIGN.md §10.)

    Sampling is rejection-based: the L1 circle of radius ``d`` has exactly
    ``4·d`` lattice offsets, enumerated arithmetically, so an attempt
    draws ``(d, offset)``, maps it to a grid cell and accepts when the
    cell is in bounds and alive.  Conditioned on acceptance the peer is
    uniform on the live in-bounds ring, matching the environment's
    idealised rule; hosts whose attempts all fail sit the round out.

    Parameters
    ----------
    width, height:
        Grid dimensions; host ``i`` sits at row-major position
        ``(i % width, i // width)``.
    max_distance:
        Upper bound on the sampled distance; defaults to the grid
        diameter, like the agent environment.
    attempts:
        Distance draws per requesting host per round (the agent
        environment retries 4 times per requested peer).
    offset_tries:
        Offset draws per sampled distance.  The distance stays *fixed*
        across these inner tries so that a boundary host — whose L1 ring
        is partly out of bounds — keeps the full 1/d² weight on its
        sampled distance instead of down-weighting it by ring occupancy;
        only when every try misses is the distance itself redrawn, which
        mirrors the agent environment's attempt-level retry.
    """

    def __init__(
        self,
        width: int,
        height: int,
        *,
        max_distance: Optional[int] = None,
        attempts: int = 4,
        offset_tries: int = 8,
    ):
        if width < 1 or height < 1:
            raise ValueError("grid dimensions must be positive")
        if attempts < 1 or offset_tries < 1:
            raise ValueError("attempts and offset_tries must be >= 1")
        self.width = int(width)
        self.height = int(height)
        self.n = self.width * self.height
        diameter = (width - 1) + (height - 1)
        self.max_distance = int(max_distance) if max_distance is not None else max(1, diameter)
        if self.max_distance < 1:
            raise ValueError("max_distance must be >= 1")
        self.attempts = int(attempts)
        self.offset_tries = int(offset_tries)
        hosts = np.arange(self.n, dtype=np.int64)
        self._col = hosts % self.width
        self._row = hosts // self.width
        distances = np.arange(1, self.max_distance + 1, dtype=float)
        weights = 1.0 / distances**2
        self._distance_probabilities = weights / weights.sum()

    # ------------------------------------------------------------- sampling
    def _draw_peers(
        self, requesters: np.ndarray, alive: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        targets = np.full(requesters.size, -1, dtype=np.int64)
        pending = np.arange(requesters.size)
        for _ in range(self.attempts):
            if pending.size == 0:
                break
            d = (
                rng.choice(
                    self.max_distance, size=pending.size, p=self._distance_probabilities
                ).astype(np.int64)
                + 1
            )
            # Inner tries redraw the offset while keeping d fixed, so the
            # 1/d² distance law survives boundary clipping (see class doc).
            trying = np.arange(pending.size)
            for _ in range(self.offset_tries):
                hosts = requesters[pending[trying]]
                d_try = d[trying]
                # The L1 circle of radius d has 4d offsets; quadrant q and
                # step s enumerate it as (d-s, s) rotated 90° per quadrant.
                k = (rng.random(trying.size) * (4 * d_try)).astype(np.int64)
                q, s = k // d_try, k % d_try
                d_col = np.select(
                    [q == 0, q == 1, q == 2], [d_try - s, -s, s - d_try], default=s
                )
                d_row = np.select(
                    [q == 0, q == 1, q == 2], [s, d_try - s, -s], default=s - d_try
                )
                col = self._col[hosts] + d_col
                row = self._row[hosts] + d_row
                in_bounds = (
                    (col >= 0) & (col < self.width) & (row >= 0) & (row < self.height)
                )
                peer = np.where(in_bounds, row * self.width + col, 0)
                hit = in_bounds & alive[peer]
                targets[pending[trying[hit]]] = peer[hit]
                trying = trying[~hit]
                if trying.size == 0:
                    break
            resolved = targets[pending] >= 0
            pending = pending[~resolved]
        return targets

    def _edges(self) -> Tuple[np.ndarray, np.ndarray]:
        # Groups follow the *grid-edge* connectivity, exactly like the agent
        # environment (long 1/d² links are transient routes, not edges).
        return grid_edges(self.width, self.height)
