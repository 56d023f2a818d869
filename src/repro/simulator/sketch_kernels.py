"""The counting family's NumPy kernels: Count-Sketch-Reset and static FM Sketch-Count.

Both kernels hold one sketch per host row and share one merge
(:func:`_merge_rows`: one pre-round snapshot, then a fan-in-ranked scatter
a chunk of rows at a time — no ``ufunc.at`` on the N-D state) and one
read-out (:func:`_chunked_ranks`, a chunk of rows at a time), so a round
holds the state, one snapshot and a few :data:`_CHUNK_BYTES` chunks.
Count-Sketch-Reset stores a counter in one byte (uint8) whenever every
``floor(f(k))`` fits below its never-heard sentinel of 255, else in int16.
Every per-round counter pass takes contiguous operands a whole ``bins * bits``
row wide — the ageing clamp row, the read-out's tiled thresholds,
the merge's rows — because NumPy runs a small-integer ``minimum`` against a
scalar, or a compare against the ``bits``-wide table, in a loop 3–10× slower.
DESIGN.md §7 "Sketch kernel layout" has the exactness argument and the
measurements.

Public API beyond the kernel protocol: :attr:`VectorizedCountSketchReset.own_mask`,
the read-only (host, bin, bit) ownership image, for inspecting which positions
live hosts still source.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.core.cutoff import default_cutoff
from repro.obs.probe import NULL_PROBE
from repro.simulator.vectorized import _VectorizedKernel
from repro.sketches.fm_sketch import PHI

__all__ = ["VectorizedCountSketchReset", "VectorizedSketchCount"]

#: "Never heard of" in the vectorised counter kernel when some cutoff does not fit
#: a byte (decay off, a cutoff of 255 or more, a negative one); its counters are
#: then int16.  Otherwise they are uint8 and the sentinel is 255.
_COUNTER_INFINITY = np.int16(30_000)
_NARROW_INFINITY = np.uint8(np.iinfo(np.uint8).max)


#: Bytes of state rows one chunk of the sketch merges and read-out touches: every
#: per-round temporary besides the merge's one snapshot is a few chunks, not the
#: population (a private budget, not an option; the tests shrink it to 1-2 rows).
_CHUNK_BYTES = 1 << 17


def _chunk_rows(rows: np.ndarray) -> int:
    """Rows of ``rows`` in one chunk of :data:`_CHUNK_BYTES` (at least one)."""
    row_bytes = rows.itemsize * int(np.prod(rows.shape[1:]))
    return max(1, _CHUNK_BYTES // max(1, row_bytes))


def _draw_identifiers(
    rng: np.random.Generator, n: int, bins: int, bits: int, identifiers_per_host: int
):
    """``(hosts, positions)``: the FM-style sketch kernels' owned coordinates.

    Each identifier lands in a uniform bin with a geometric bit index
    (P[bit = k] = 2^-(k+1), clamped to L-1) — the array analogue of the
    hash-based coordinates in :mod:`repro.sketches.hashing`.  Identifier
    ``i`` belongs to ``hosts[i]`` and sits at ``positions[i]`` of that host's
    flattened ``bins * bits`` sketch, so owners can be revisited without
    scanning an ownership image (:func:`_owned_image` builds one).
    """
    hosts = np.tile(np.arange(n), identifiers_per_host)
    positions = np.empty((identifiers_per_host, n), dtype=np.int64)
    for drawn in positions:
        owned_bins = rng.integers(0, bins, size=n)
        owned_bits = np.minimum(rng.geometric(0.5, size=n) - 1, bits - 1)
        drawn[:] = owned_bins * bits + owned_bits
    return hosts, positions.reshape(-1)


def _owned_image(n: int, bins: int, bits: int, hosts: np.ndarray, positions: np.ndarray):
    """The (host, bin, bit) boolean image of the owned ``(hosts, positions)`` pairs."""
    mask = np.zeros((n, bins * bits), dtype=bool)
    mask[hosts, positions] = True
    return mask.reshape(n, bins, bits)


def _scatter_rows(
    rows: np.ndarray, targets: np.ndarray, reduce: np.ufunc, source: np.ndarray,
    index: Optional[np.ndarray] = None,
) -> None:
    """Every ``targets[i]`` row absorbs ``source`` row ``i`` (row ``index[i]``) under
    ``reduce``, in place; a target may repeat.

    What ``reduce.at(rows, targets, source)`` computes, without ``ufunc.at``'s
    slow generic N-D path.  Pairs are ordered by their fan-in rank (the k-th
    sender of its target), so within one rank every target row occurs once and a
    plain gather → reduce → fancy assignment is exact; the loop runs max-fan-in
    times (≈ 8 under uniform gossip), a chunk of :func:`_chunk_rows` pairs at a
    time.  ``source`` rows are gathered rank by rank, after earlier ranks have
    written ``rows``, so ``source`` must not share memory with ``rows``
    (``ValueError``).  Both sort keys are cast to the smallest dtype that holds a
    row index: NumPy radix-sorts keys of 16 bits or fewer.
    """
    if np.may_share_memory(source, rows):
        raise ValueError("source must not share memory with rows: later ranks read it")
    key = np.min_scalar_type(len(rows))
    order = np.argsort(targets.astype(key), kind="stable")
    grouped = targets[order]
    rank = np.arange(grouped.size) - np.searchsorted(grouped, grouped)
    order = order[np.argsort(rank.astype(key), kind="stable")]
    sent = order if index is None else index[order]
    receivers = targets[order]
    chunk = _chunk_rows(rows)
    start = 0
    for stop in np.cumsum(np.bincount(rank)).tolist():
        for lo in range(start, stop, chunk):
            hi = min(lo + chunk, stop)
            into = receivers[lo:hi]
            merged = rows[into]
            reduce(merged, source[sent[lo:hi]], out=merged)
            rows[into] = merged
        start = stop


def _merge_rows(
    rows: np.ndarray, senders: np.ndarray, targets: np.ndarray, reduce: np.ufunc, pull: bool
) -> None:
    """One push(+pull) round of whole-row merges on a 2-D state, in place.

    Every ``targets[i]`` row absorbs the pre-round ``senders[i]`` row under
    ``reduce`` (an idempotent, commutative ufunc: ``minimum`` / ``logical_or``;
    :func:`_scatter_rows`) and, with ``pull``, every sender then absorbs its
    target's pre-round row.  Both legs read one snapshot of the pre-round rows —
    the round's only full-size temporary — and move a chunk of rows at a time.
    Precondition: ``senders`` is unique and *ascending*, so that when every row
    sends, ``senders`` is ``arange(len(rows))`` and each pull chunk reduces a
    slice of ``rows`` in place.
    """
    snapshot = rows.copy()
    _scatter_rows(rows, targets, reduce, snapshot, senders)
    if not pull:
        return
    everyone = senders.size == len(rows)
    chunk = _chunk_rows(rows)
    for lo in range(0, senders.size, chunk):
        hi = min(lo + chunk, senders.size)
        pulled = snapshot[targets[lo:hi]]
        if everyone:
            into = rows[lo:hi]
            reduce(into, pulled, out=into)
        else:
            into = senders[lo:hi]
            merged = rows[into]
            reduce(merged, pulled, out=merged)
            rows[into] = merged


def _chunked_ranks(
    sketches: np.ndarray, hosts: Optional[np.ndarray] = None,
    thresholds: Optional[np.ndarray] = None, mean: bool = False,
) -> np.ndarray:
    """Per (row, bin) length of the prefix of ones in the sketches' bit image, or with
    ``mean`` each row's mean over its bins — for the ``hosts`` rows, or all of them.

    The image is the boolean ``sketches`` themselves, or ``sketches <= thresholds``
    (per bit) for counters.  A chunk of :func:`_chunk_rows` rows at a time is written
    into one reused contiguous buffer as full ``bins * bits`` rows: the compare runs
    against the thresholds tiled once to that width, since against the ``bits``-wide
    table its inner loop is ``bits`` elements long (0.9 ms against 4.4 ms on 20 000 ×
    288 counters; DESIGN.md §7 "Sketch kernel layout").  ``argmin`` (first False)
    ranks each bin; a bin that ranks 0 with bit 0 set is all ones and ranks ``bits``.
    With ``hosts=None`` the rows are read in place; else gathered a chunk at a time.
    """
    count = len(sketches) if hosts is None else hosts.size
    bins, bits = sketches.shape[1:]
    chunk = _chunk_rows(sketches)
    buffer = np.empty((min(chunk, count), bins * bits), dtype=bool)
    tiled = None if thresholds is None else np.tile(thresholds, bins)
    out = np.empty(count if mean else (count, bins), dtype=float if mean else np.intp)
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        rows = sketches[lo:hi] if hosts is None else sketches[hosts[lo:hi]]
        rows = rows.reshape(hi - lo, -1)
        image = buffer[: hi - lo]
        if tiled is None:
            np.copyto(image, rows)
        else:
            np.less_equal(rows, tiled, out=image)
        ranks = image.reshape(-1, bins, bits).argmin(axis=-1)
        ranks[image[:, ::bits] & (ranks == 0)] = bits
        if mean:
            np.add.reduce(ranks, axis=1, dtype=float, out=out[lo:hi])
        else:
            out[lo:hi] = ranks
    if mean:
        out /= bins  # one division of exact integer sums: ``ranks.mean(axis=1)`` bit for bit
    return out


class _CountingKernel(_VectorizedKernel):
    """The two sketch kernels: one sketch per host row (no per-host values), merged
    under an idempotent ufunc.  A round pushes every live sketch to one drawn target
    and, with ``pull``, sends the target's back (:func:`_merge_rows`); on the calendar
    ``pull`` makes a tick one atomic exchange, and a deferred push carries a copy of
    the sender's row.  Massless: ``mass_view()`` is ``None``, so a run keeps no ledger."""

    aggregate = "count"
    pull: bool
    #: The element-wise merge: ``np.minimum`` (counters) or ``np.logical_or`` (bits).
    _reduce: np.ufunc

    def _init_sketches(self, n, bins, bits, identifiers_per_host, pull, *wiring):
        """:meth:`_init_population` (``wiring``) plus the sketch dimensions both kernels share."""
        if bins < 1 or bits < 1:
            raise ValueError("bins and bits must be >= 1")
        if identifiers_per_host < 1:
            raise ValueError("identifiers_per_host must be >= 1")
        self._init_population(n, *wiring)
        self.bins, self.bits = int(bins), int(bits)
        self.identifiers_per_host = int(identifiers_per_host)
        self.pull = self._exchanges = bool(pull)

    def truth(self) -> float:
        """The correct count (number of live hosts; NaN once nobody is alive)."""
        n_alive = self.live_index().size
        return float(n_alive) if n_alive else float("nan")

    def _move(self, block, hosts: np.ndarray, senders: np.ndarray, targets: np.ndarray):
        """The round's merge.  A self-contact is no message (and a row merged into itself
        is unchanged), so only the others are counted, and only they can be lost: with
        ``pull`` as exchanges, else as pushes (whose payload, the sender's pre-round row, is
        named by its index).  Without loss every pair merges, and the full ascending
        ``senders`` keep :func:`_merge_rows`' in-place pull."""
        sends = (targets != senders).nonzero()[0]
        sent, landed = senders[sends], targets[sends]
        if self.pull:
            sent, landed = self._account_exchanges(sent, landed)
        else:
            self.bytes_sent += self._message_bytes * sends.size
            landed, (sent,) = self._lose(landed, [sent])
        if self.loss > 0.0:
            senders, targets = sent, landed
        del sends, sent, landed  # before the merge takes its snapshot
        _merge_rows(block[0], senders, targets, self._reduce, self.pull)

    def _draw_partners(self, ticking: np.ndarray, alive_idx: np.ndarray):
        """The base draw less its self-pushes: on the calendar too, a row merged into
        itself is no message (the agent engine never counts one either)."""
        senders, peers = super()._draw_partners(ticking, alive_idx)
        sends = (peers != senders).nonzero()[0]  # (an exchange partner is never oneself)
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

    def _estimate(self, sketches: np.ndarray, thresholds: Optional[np.ndarray] = None):
        """The FM estimate of every live host from its sketch row (:func:`_chunked_ranks`;
        rows read in place while everyone is alive)."""
        alive_idx = self.live_index()
        hosts = None if alive_idx.size == self.n else alive_idx
        mean_rank = _chunked_ranks(sketches, hosts, thresholds, mean=True)
        return self.bins / PHI * np.exp2(mean_rank) / self.identifiers_per_host


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
    loss:
        Bernoulli message-loss probability: a lost push is a merge that does
        not happen; with ``pull`` a lost contact cancels the exchange.
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
        loss: float = 0.0,
        topology=None,
        seed: int = 0,
        probe=NULL_PROBE,
    ):
        self._init_sketches(n, bins, bits, identifiers_per_host, pull, topology, seed, probe, loss)
        self.cutoff = cutoff
        self._message_bytes = 2 * self.bins * self.bits  # agent parity: 2 B/counter

        # Counters are integers, so ``c <= f(k)`` is ``c <= floor(f(k))`` and
        # the read-out compares counters against a table of their own dtype.
        # When every floor lies in [0, 254] the counters are uint8 with a
        # sentinel of 255: a uint8 counter is then always min(int16 counter,
        # 255), which reads the same bit against every threshold (DESIGN.md §7
        # "Sketch kernel layout").  Otherwise they are int16; below -1 nothing
        # qualifies either way, and the upper clip keeps the sentinel unset
        # even with decay disabled (``cutoff=None``).
        wide = int(_COUNTER_INFINITY) - 1
        cutoffs = np.floor(np.array(
            [wide if cutoff is None else float(cutoff(k)) for k in range(self.bits)]
        ))
        if np.isnan(cutoffs).any():
            raise ValueError("cutoff(k) must not be NaN")
        narrow = bool(((cutoffs >= 0) & (cutoffs < _NARROW_INFINITY)).all())
        self._never_heard = _NARROW_INFINITY if narrow else _COUNTER_INFINITY
        dtype, no_decay = self._never_heard.dtype, int(self._never_heard) - 1
        self._thresholds = np.clip(cutoffs, -1, no_decay).astype(dtype)
        # The ageing clamp's operand: a whole row, not the scalar, whose small-integer
        # minimum takes NumPy's non-SIMD loop (DESIGN.md §7 "Sketch kernel layout").
        self._clamp_row = np.full(self.bins * self.bits, no_decay, dtype=dtype)

        self.counters, self._owned_hosts, self._owned_positions = self._fresh_rows(self.n)

    def _fresh_rows(self, count: int):
        """Counters and owned (host, position) pairs of new hosts."""
        hosts, positions = _draw_identifiers(
            self.rng, count, self.bins, self.bits, self.identifiers_per_host
        )
        counters = np.full(
            (count, self.bins * self.bits), self._never_heard, dtype=self._never_heard.dtype
        )
        counters[hosts, positions] = 0
        return counters.reshape(count, self.bins, self.bits), hosts, positions

    @property
    def never_heard(self):
        """The counter value of a position never heard of: 255 on uint8 counters,
        30 000 on int16 ones (the scalar carries the counters' dtype)."""
        return self._never_heard

    @property
    def own_mask(self) -> np.ndarray:
        """The (host, bin, bit) ownership image, rebuilt on each read from the owned
        ``(host, position)`` pairs (a departed host owns nothing); read-only."""
        mask = _owned_image(
            self.n, self.bins, self.bits, self._owned_hosts, self._owned_positions
        )
        mask.flags.writeable = False
        return mask

    # ------------------------------------------------------------- membership
    def _grow(self, values: np.ndarray, start: int) -> None:
        counters, hosts, positions = self._fresh_rows(values.size)
        self.counters = np.concatenate([self.counters, counters])
        self._owned_hosts = np.concatenate([self._owned_hosts, hosts + start])
        self._owned_positions = np.concatenate([self._owned_positions, positions])

    def depart_gracefully(self, host_indices: Sequence[int]) -> None:
        """Sign-off departure: the leaver disowns its sketch positions.

        Mirrors :meth:`repro.core.CountSketchReset.sign_off` — the
        departed host's identifiers stop being refreshed, so their counters
        age past the cutoff and the live count drops without waiting for
        the silent-failure detection delay.
        """
        indices = np.asarray(list(host_indices), dtype=np.int64)
        if indices.size == 0:
            return
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
        recorded when the identifiers were drawn).  Clamping to one below the
        sentinel before adding is ``min(c + 1, sentinel)`` and never wraps a uint8.
        Counters are >= 0 and every live owned position is 0 after ageing, so no
        later min can unpin one."""
        (rows,) = block
        with self.probe.span("ageing"):
            np.minimum(rows, self._clamp_row, out=rows)
            np.add(rows, 1, out=rows)
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
        return _chunked_ranks(self.counters, thresholds=self._thresholds)

    def estimates(self) -> np.ndarray:
        """Per-live-host estimates of the live population size (or sum)."""
        return self._estimate(self.counters, self._thresholds)

    # ------------------------------------------------------- Fig 6 diagnostics
    def counter_values_for_bit(self, bit_index: int, *, finite_only: bool = True) -> np.ndarray:
        """All live hosts' counter values for bit ``bit_index`` (all bins).

        This is the raw data behind Fig 6's per-bit CDFs.  On uint8 counters a raw
        age of 255 or more reads as never heard of (:attr:`never_heard`).
        """
        if not 0 <= bit_index < self.bits:
            raise ValueError(f"bit_index must be in [0, {self.bits})")
        alive_idx = self.live_index()
        values = self.counters[alive_idx, :, bit_index].reshape(-1).astype(np.int64)
        if finite_only:
            values = values[values < int(self._never_heard)]
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
    loss:
        As for :class:`VectorizedCountSketchReset`.
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
        loss: float = 0.0,
        topology=None,
        seed: int = 0,
        probe=NULL_PROBE,
    ):
        self._init_sketches(n, bins, bits, identifiers_per_host, pull, topology, seed, probe, loss)
        # Agent parity: a boolean sketch packs to one bit per position.
        self._message_bytes = int(np.ceil(self.bins * self.bits / 8))
        self.matrix = self._fresh_rows(self.n)

    def _fresh_rows(self, count: int) -> np.ndarray:
        """Sketches of ``count`` new hosts: just their own identifiers' bits."""
        hosts, positions = _draw_identifiers(
            self.rng, count, self.bins, self.bits, self.identifiers_per_host
        )
        return _owned_image(count, self.bins, self.bits, hosts, positions)

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
        return _chunked_ranks(self.matrix)

    def estimates(self) -> np.ndarray:
        """Per-live-host estimates of the (ever-seen) population size."""
        return self._estimate(self.matrix)
