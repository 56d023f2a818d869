"""Sparse-adjacency peer sampling for the vectorised kernels.

The kernels in :mod:`repro.simulator.vectorized` were born uniform: every
live host could gossip with every other live host, so peer selection was a
single ``rng.integers``/``rng.permutation`` call over the live index set.
This module is what lets the same kernels run *graph-restricted* gossip at
kernel speed: a topology object answers "one random live peer for each of
these hosts" as an array program, and the kernels treat the answer exactly
like the uniform draw they used before.

Two topologies are provided:

* :class:`CSRTopology` — an arbitrary static graph held as CSR
  ``indptr``/``indices`` arrays (ring lattices, grids, random-geometric
  and Erdős–Rényi graphs, anything a
  :class:`~repro.environments.NeighborhoodEnvironment` can describe).
  Failures are handled by caching a live-edge CSR that is rebuilt only
  when the alive mask actually changes, so steady-state rounds pay one
  gather per sample and nothing else.
* :class:`GridRingTopology` — the spatial-gossip rule of the paper's
  Section IV-A (Kempe–Kleinberg–Demers): hosts live on a 2-D grid, a
  gossip partner is found by sampling a distance ``d`` with probability
  proportional to ``1/d²`` and then a uniform live host on the L1 ring at
  exactly that distance.  The ring is never materialised: the 4·d lattice
  offsets of an L1 circle are enumerated arithmetically, so sampling is
  O(attempts) per host regardless of ``d``.

Both expose the same three operations the kernels and the backend need:
:meth:`sample_peers` (one live peer per requesting host, ``-1`` when the
host is isolated), :meth:`sample_matching` (a conflict-free set of
pairwise exchanges along sampled edges — the graph analogue of the
uniform kernels' random perfect matching) and :meth:`component_labels`
(the connected components of the live-induced graph, for group-relative
error accounting à la Fig 11).  Each takes the caller's ``probe``
(:mod:`repro.obs`) and ``round_index`` as trailing arguments: a topology
is memoised and shared between runs, so it holds neither — only
:class:`TraceCSRTopology`, whose graph varies by round, reads the round.
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
    "TraceCSRTopology",
    "greedy_edge_matching",
]

Adjacency = Dict[int, Set[int]]


def greedy_edge_matching(
    left: np.ndarray, right: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """A matching among the candidate edges ``(left[i], right[i])``.

    Each candidate edge draws a distinct random priority; an edge is
    accepted when it holds the highest priority at *both* of its
    endpoints.  Accepted edges therefore never share a vertex (two
    accepted edges meeting at ``v`` would both have to carry ``v``'s
    unique maximum), which makes the result a valid matching computed in
    one vectorised pass — no sequential greedy loop.

    Returns the boolean acceptance mask over the candidate edges.
    """
    if left.size == 0:
        return np.zeros(0, dtype=bool)
    priority = rng.permutation(left.size)
    best = np.full(n, -1, dtype=np.int64)
    np.maximum.at(best, left, priority)
    np.maximum.at(best, right, priority)
    return (best[left] == priority) & (best[right] == priority)


class _Topology:
    """Shared sampling machinery; subclasses implement the raw peer draw.

    Subclasses set ``n`` and implement :meth:`sample_peers` and
    :meth:`_edges`; everything else (matching construction,
    component labelling and its cache) lives here.
    """

    n: int

    def sample_peers(
        self, requesters: np.ndarray, alive: np.ndarray, rng: np.random.Generator,
        probe=NULL_PROBE, round_index: int = 0,
    ) -> np.ndarray:
        """One uniform live peer per requester (``-1`` for isolated hosts)."""
        raise NotImplementedError

    def _edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(u, v)``: every undirected edge once (what components follow)."""
        raise NotImplementedError

    # ------------------------------------------------------------- matching
    def sample_matching(
        self,
        alive_idx: np.ndarray,
        alive: np.ndarray,
        rng: np.random.Generator,
        *,
        passes: int = 3,
        probe=NULL_PROBE,
        round_index: int = 0,
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
        matched_left: List[np.ndarray] = []
        matched_right: List[np.ndarray] = []
        available = alive.copy()
        requesters = alive_idx
        for _ in range(max(1, passes)):
            if requesters.size < 2:
                break
            targets = self.sample_peers(requesters, alive, rng, probe, round_index)
            # A proposal only stands if its target is itself still
            # unmatched; everything else retries next pass.
            valid = (targets >= 0) & available[np.where(targets >= 0, targets, 0)]
            left = requesters[valid]
            right = targets[valid]
            accept = greedy_edge_matching(left, right, self.n, rng)
            if accept.any():
                matched_left.append(left[accept])
                matched_right.append(right[accept])
                available[left[accept]] = False
                available[right[accept]] = False
                requesters = requesters[available[requesters]]
            else:
                break
        if not matched_left:
            empty = np.array([], dtype=np.int64)
            return empty, empty
        return np.concatenate(matched_left), np.concatenate(matched_right)

    # ----------------------------------------------------------- components
    def component_labels(self, alive: np.ndarray, probe=NULL_PROBE, round_index: int = 0):
        """``(labels, sizes)`` for the live components (cached by mask).

        ``labels[host]`` is the component index of every live host (``-1``
        for dead hosts) and ``sizes[c]`` the member count of component
        ``c``.  Group-relative error (the Fig 11 definition) needs the
        partition every round, but the partition only changes when hosts
        fail — so the answer is cached against the alive mask and
        recomputed on membership changes only.
        """
        key = alive.tobytes()
        cached = getattr(self, "_labels_cache", None)
        if cached is not None and cached[0] == key:
            return cached[1], cached[2]
        with probe.span("component_labelling"):
            u, v = self._edges()
            live = alive[u] & alive[v]
            labels, sizes = _live_labels(_min_label_components(u[live], v[live], self.n), alive)
        self._labels_cache = (key, labels, sizes)
        return labels, sizes


class CSRTopology(_Topology):
    """A static undirected graph in CSR form, sampled against a live mask.

    Parameters
    ----------
    indptr, indices:
        Standard CSR arrays: the neighbours of host ``i`` are
        ``indices[indptr[i]:indptr[i + 1]]``.  Build from an adjacency map
        with :meth:`from_adjacency`.
    """

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
        self._live_key: Optional[bytes] = None
        self._live_indptr = self.indptr
        self._live_indices = self.indices
        self._live_degree = np.diff(self.indptr)

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

    # ------------------------------------------------------------- sampling
    def _refresh_live(self, alive: np.ndarray, probe) -> None:
        """Rebuild the live-edge CSR iff the alive mask changed."""
        key = alive.tobytes()
        if key == self._live_key:
            return
        with probe.span("csr_rebuild"):
            if bool(alive.all()):
                live_indptr, live_indices = self.indptr, self.indices
                live_degree = np.diff(self.indptr)
            else:
                edge_alive = alive[self.indices]
                live_degree = np.bincount(
                    self._edge_owner[edge_alive], minlength=self.n
                ).astype(np.int64)
                live_indptr = np.zeros(self.n + 1, dtype=np.int64)
                np.cumsum(live_degree, out=live_indptr[1:])
                # Boolean masking preserves CSR grouping: indices stay sorted
                # by owner, so the filtered array is already segment-aligned.
                live_indices = self.indices[edge_alive]
        self._live_key = key
        self._live_indptr = live_indptr
        self._live_indices = live_indices
        self._live_degree = live_degree

    def sample_peers(
        self, requesters: np.ndarray, alive: np.ndarray, rng: np.random.Generator,
        probe=NULL_PROBE, round_index: int = 0,
    ) -> np.ndarray:
        self._refresh_live(alive, probe)
        if self._live_indices.size == 0:
            return np.full(requesters.size, -1, dtype=np.int64)
        degree = self._live_degree[requesters]
        draw = (rng.random(requesters.size) * degree).astype(np.int64)
        # Clamp the (probability-zero) draw == degree edge case, and keep
        # zero-degree gathers in bounds before masking them to -1.
        offset = np.minimum(draw, np.maximum(degree - 1, 0))
        slots = np.minimum(
            self._live_indptr[requesters] + offset, self._live_indices.size - 1
        )
        return np.where(degree > 0, self._live_indices[slots], -1)

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


def _live_labels(full: np.ndarray, alive: np.ndarray):
    """``(labels, sizes)``: per-node labels ``full`` restricted to the live hosts.

    Components are renumbered ``0..k-1`` over their live members (dead hosts
    get ``-1``, memberless labels drop out); ``sizes[c]`` counts component ``c``.
    """
    live = np.nonzero(alive)[0]
    labels = np.full(alive.size, -1, dtype=np.int64)
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
    once).  ``sample_peers`` /
    ``sample_matching`` then reuse ``CSRTopology``'s live-edge rebuild
    unchanged, and group labels come from a vectorised min-label component
    pass over the window-union edges.

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
        :meth:`component_labels`.
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

    # ------------------------------------------------------------- sampling
    def sample_peers(
        self, requesters: np.ndarray, alive: np.ndarray, rng: np.random.Generator,
        probe=NULL_PROBE, round_index: int = 0,
    ) -> np.ndarray:
        return self._round_csr(round_index, probe).sample_peers(requesters, alive, rng, probe)

    # ----------------------------------------------------------- components
    def component_labels(self, alive: np.ndarray, probe=NULL_PROBE, round_index: int = 0):
        """``(labels, sizes)`` of round ``round_index``'s window-union groups.

        Groups are the full-union components intersected with the live
        set (empty intersections dropped, exactly like the agent
        environment's group rule), relabelled ``0..k-1``; a live host with
        no window contacts is its own group of one.
        """
        return _live_labels(self._union_labels(round_index, probe), alive)


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
    def sample_peers(
        self, requesters: np.ndarray, alive: np.ndarray, rng: np.random.Generator,
        probe=NULL_PROBE, round_index: int = 0,
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
