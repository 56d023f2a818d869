"""Flajolet–Martin counting sketches with stochastic averaging.

An FM sketch summarises a multiset of identifiers into ``m`` bit vectors of
``L`` bits.  Each identifier deterministically sets one bit in one bin; the
union of two sketches is the bitwise OR; the number of *distinct*
identifiers is estimated from the average length ``R`` of the prefix of
contiguous ones, via

    n  ≈  m · 2^avg(R) / φ        with φ ≈ 0.77351.

The paper's Figure 2 prints the estimator as ``|B|·φ·2^avg(R)``; the
standard Flajolet–Martin normalisation divides by φ rather than
multiplying, and dividing is what actually makes the estimate unbiased, so
that is what :func:`fm_estimate` implements (and what the experiments use).
``fm_estimate(..., paper_formula=True)`` applies the literal formula from
the figure for comparison.

Public API beyond what the protocols call: :func:`rank_of_bits`, the
bit-at-a-time definition of R that the array read-outs are checked
against, and :func:`expected_relative_error`, the 0.78/√m standard error
the paper quotes for its sketch size.
"""

from __future__ import annotations

from typing import Hashable, List, Sequence

import numpy as np

from repro.sketches.hashing import sketch_coordinates

__all__ = ["PHI", "FMSketch", "rank_of_bits", "fm_estimate", "expected_relative_error"]

#: Flajolet–Martin's correction constant.
PHI = 0.77351


def rank_of_bits(bits: Sequence[bool]) -> int:
    """R(A): the length of the prefix of contiguous ones in a bit vector."""
    rank = 0
    for bit in bits:
        if bit:
            rank += 1
        else:
            break
    return rank


def fm_estimate(
    ranks: Sequence[float], bins: int, *, paper_formula: bool = False
) -> float:
    """Estimate the number of distinct identifiers from per-bin ranks.

    Parameters
    ----------
    ranks:
        ``R`` values, one per bin (bins that saw no identifier contribute 0).
    bins:
        Number of bins ``m`` (must equal ``len(ranks)``; passed explicitly to
        keep call sites honest).
    paper_formula:
        Use the literal ``m·φ·2^avg(R)`` expression from the paper's Figure 2
        instead of the standard ``m·2^avg(R)/φ`` normalisation.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if len(ranks) != bins:
        raise ValueError(f"expected {bins} ranks, got {len(ranks)}")
    mean_rank = float(np.mean(ranks))
    scale = bins * PHI if paper_formula else bins / PHI
    return scale * (2.0**mean_rank)


def expected_relative_error(bins: int) -> float:
    """Expected standard error of the FM estimate with ``bins`` bins.

    Flajolet and Martin give σ/n ≈ 0.78 / sqrt(m); with the paper's 64 bins
    this evaluates to ≈ 9.7 %, the figure quoted in Section V-B.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    return 0.78 / float(np.sqrt(bins))


class FMSketch:
    """A Flajolet–Martin sketch: ``m`` bins × ``L`` bits, duplicate-insensitive.

    Parameters
    ----------
    bins:
        Number of bins ``m`` used for stochastic averaging.
    bits:
        Bit-vector length ``L``; must satisfy 2^L >> n/m for the counts of
        interest (the default 32 is ample for every experiment here).
    salt:
        Optional salt mixed into the hash, letting independent sketches be
        built over the same identifier space.
    """

    def __init__(self, bins: int = 64, bits: int = 32, salt: str = ""):
        if bins < 1:
            raise ValueError("bins must be >= 1")
        if bits < 1:
            raise ValueError("bits must be >= 1")
        self.bins = int(bins)
        self.bits = int(bits)
        self.salt = salt
        self.matrix = np.zeros((self.bins, self.bits), dtype=bool)

    # ---------------------------------------------------------------- inserts
    def insert(self, identifier: Hashable) -> None:
        """Insert one identifier (idempotent)."""
        bin_idx, bit_idx = sketch_coordinates(identifier, self.bins, self.bits, salt=self.salt)
        self.matrix[bin_idx, bit_idx] = True

    # -------------------------------------------------------------- estimates
    def ranks(self) -> List[int]:
        """Per-bin R values (length of the prefix of ones)."""
        ranks: List[int] = []
        for bin_idx in range(self.bins):
            row = self.matrix[bin_idx]
            # argmin of a boolean row returns the first False; an all-True row
            # returns 0, which we map to the full length.
            if row.all():
                ranks.append(self.bits)
            else:
                ranks.append(int(np.argmin(row)))
        return ranks

    def estimate(self, *, paper_formula: bool = False) -> float:
        """Estimated number of distinct identifiers inserted (or unioned) so far."""
        return fm_estimate(self.ranks(), self.bins, paper_formula=paper_formula)

    # ------------------------------------------------------------------ misc
    def size_bytes(self) -> int:
        """Approximate wire size of the sketch (bits packed into bytes)."""
        return int(np.ceil(self.bins * self.bits / 8))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FMSketch):
            return NotImplemented
        return (
            self.bins == other.bins
            and self.bits == other.bits
            and self.salt == other.salt
            and bool(np.array_equal(self.matrix, other.matrix))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FMSketch(bins={self.bins}, bits={self.bits}, estimate={self.estimate():.1f})"
