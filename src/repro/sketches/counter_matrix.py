"""The freshness-counter matrix underlying Count-Sketch-Reset.

Count-Sketch-Reset (Section IV-A) replaces each bit of a Flajolet–Martin
sketch with an integer *freshness counter* ``N[n][k]``: the number of
gossip rounds since the youngest message sourcing that (bin, bit) position
was originated.  Positions a host itself sources are pinned at zero;
everything else is incremented every round and replaced by the minimum of
any value received.  A position is considered "set" when its counter is at
most a cutoff ``f(k)``; positions whose sources have all departed keep
ageing past the cutoff and thereby decay out of the sketch.

:class:`CounterMatrix` packages the matrix with its operations (increment,
min-merge, bit image, estimate) so the agent-based protocol, the
vectorised kernels and the tests all share one implementation of the
arithmetic.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.sketches.fm_sketch import PHI, fm_estimate
from repro.sketches.hashing import sketch_coordinates

__all__ = ["CounterMatrix", "INFINITY"]

#: Sentinel used for "never heard of": effectively infinite round count.
#: Kept finite so the matrix stays an integer array (2^31-ish would overflow
#: int32 after increments; 10^9 rounds is far beyond any simulation length).
INFINITY = 1_000_000_000


class CounterMatrix:
    """An ``m`` × ``L`` matrix of freshness counters plus the owned positions.

    Parameters
    ----------
    bins, bits:
        Sketch dimensions (``m`` bins for stochastic averaging, ``L`` bit
        positions per bin).
    owned:
        The (bin, bit) positions this host sources.  One position for pure
        counting; ``v`` positions (possibly colliding) when the host
        registers the integer value ``v`` for summation.
    """

    def __init__(self, bins: int, bits: int, owned: Iterable[Tuple[int, int]] = ()):
        if bins < 1 or bits < 1:
            raise ValueError("bins and bits must both be >= 1")
        self.bins = int(bins)
        self.bits = int(bits)
        self.counters = np.full((self.bins, self.bits), INFINITY, dtype=np.int64)
        self.owned: Set[Tuple[int, int]] = set()
        # ``(cutoff, thresholds)`` of the last :meth:`bit_image`: a cutoff is
        # a pure function of the bit index, so its row is built once.
        self._thresholds: Optional[Tuple[Callable[[int], float], np.ndarray]] = None
        for position in owned:
            self.own(position)

    # ------------------------------------------------------------- construction
    @classmethod
    def for_identifiers(
        cls,
        identifiers: Iterable[Hashable],
        bins: int,
        bits: int,
        *,
        salt: str = "",
    ) -> "CounterMatrix":
        """Build a matrix owning the positions of the given identifiers."""
        owned = [sketch_coordinates(identifier, bins, bits, salt=salt) for identifier in identifiers]
        return cls(bins, bits, owned)

    @classmethod
    def for_value(
        cls,
        host_id: Hashable,
        value: int,
        bins: int,
        bits: int,
        *,
        salt: str = "",
    ) -> "CounterMatrix":
        """Build a matrix registering ``value`` identifiers for host ``host_id``.

        ``value=1`` is plain counting; larger integers implement the
        multiple-insertion summation of Considine et al.
        """
        if value < 0:
            raise ValueError("value must be a non-negative integer")
        identifiers = [(host_id, j) for j in range(int(value))]
        return cls.for_identifiers(identifiers, bins, bits, salt=salt)

    # ----------------------------------------------------------------- owning
    def own(self, position: Tuple[int, int]) -> None:
        """Mark a (bin, bit) position as sourced by this host (counter pinned to 0)."""
        bin_idx, bit_idx = position
        if not (0 <= bin_idx < self.bins and 0 <= bit_idx < self.bits):
            raise ValueError(f"position {position} outside {self.bins}x{self.bits} matrix")
        self.owned.add((int(bin_idx), int(bit_idx)))
        self.counters[bin_idx, bit_idx] = 0

    def disown_all(self) -> None:
        """Stop sourcing every owned position (a graceful sign-off)."""
        self.owned.clear()

    # ------------------------------------------------------------------ round
    def increment(self) -> None:
        """Age every counter by one round, except the owned positions."""
        self.counters += 1
        # Clamp so repeated increments never approach the int64 ceiling.
        np.minimum(self.counters, INFINITY, out=self.counters)
        for bin_idx, bit_idx in self.owned:
            self.counters[bin_idx, bit_idx] = 0

    def merge_min(self, other: "CounterMatrix") -> None:
        """Take the element-wise minimum with another matrix (gossip merge)."""
        self._check_compatible(other)
        np.minimum(self.counters, other.counters, out=self.counters)
        for bin_idx, bit_idx in self.owned:
            self.counters[bin_idx, bit_idx] = 0

    def merge_min_array(self, counters: np.ndarray) -> None:
        """Merge with a raw counter array (used when payloads are plain arrays)."""
        if counters.shape != self.counters.shape:
            raise ValueError(
                f"cannot merge counters of shape {counters.shape} into {self.counters.shape}"
            )
        np.minimum(self.counters, counters, out=self.counters)
        for bin_idx, bit_idx in self.owned:
            self.counters[bin_idx, bit_idx] = 0

    def _check_compatible(self, other: "CounterMatrix") -> None:
        if (self.bins, self.bits) != (other.bins, other.bits):
            raise ValueError("counter matrices have incompatible shapes")

    # -------------------------------------------------------------- estimates
    def bit_image(self, cutoff: Callable[[int], float]) -> np.ndarray:
        """The derived bit matrix: position (n, k) is set iff counter ≤ cutoff(k)."""
        if self._thresholds is None or self._thresholds[0] is not cutoff:
            row = np.array([cutoff(k) for k in range(self.bits)], dtype=float)
            self._thresholds = (cutoff, row)
        return self.counters <= self._thresholds[1][None, :]

    def ranks(self, cutoff: Callable[[int], float]) -> List[int]:
        """Per-bin R values of the derived bit image."""
        image = self.bit_image(cutoff)
        # The first unset bit of each bin; a bin with every bit set ranks ``bits``.
        return np.where(image.all(axis=1), self.bits, image.argmin(axis=1)).tolist()

    def estimate(
        self,
        cutoff: Callable[[int], float],
        *,
        identifiers_per_host: int = 1,
        paper_formula: bool = False,
    ) -> float:
        """Estimate the number of live hosts (or the live sum) from the counters.

        ``identifiers_per_host`` divides the raw distinct-identifier estimate:
        when every host registers ``c`` identifiers (Fig 11 uses ``c=100``),
        the distinct count estimates ``c·n`` and dividing recovers ``n``.
        """
        if identifiers_per_host < 1:
            raise ValueError("identifiers_per_host must be >= 1")
        raw = fm_estimate(self.ranks(cutoff), self.bins, paper_formula=paper_formula)
        return raw / identifiers_per_host

    # ------------------------------------------------------------------ misc
    def copy(self) -> "CounterMatrix":
        """An independent copy (owned positions included)."""
        clone = CounterMatrix(self.bins, self.bits)
        clone.counters = self.counters.copy()
        clone.owned = set(self.owned)
        return clone

    def payload(self) -> np.ndarray:
        """The array to place on the wire (a defensive copy of the counters)."""
        return self.counters.copy()

    def size_bytes(self, counter_bytes: int = 2) -> int:
        """Wire size assuming ``counter_bytes`` bytes per counter.

        Counters are small non-negative integers bounded by the cutoff plus
        the convergence time, so two bytes per counter is a faithful model of
        a practical encoding (the in-memory representation uses int64 purely
        for convenience).
        """
        return self.bins * self.bits * counter_bytes

    def max_finite_counter(self) -> Optional[int]:
        """The largest counter strictly below the INFINITY sentinel, if any."""
        finite = self.counters[self.counters < INFINITY]
        if finite.size == 0:
            return None
        return int(finite.max())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CounterMatrix):
            return NotImplemented
        return (
            self.bins == other.bins
            and self.bits == other.bits
            and self.owned == other.owned
            and bool(np.array_equal(self.counters, other.counters))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CounterMatrix(bins={self.bins}, bits={self.bits}, "
            f"owned={len(self.owned)} positions)"
        )
