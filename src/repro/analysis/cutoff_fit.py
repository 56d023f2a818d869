"""Fitting the freshness cutoff f(k) from converged counter distributions.

Section IV-A of the paper derives the cutoff experimentally: simulate a
converged Count-Sketch-Reset network, look at the distribution of counter
values for each bit index k (Figure 6), take a high-probability upper
bound per bit, and fit a line through those bounds — obtaining
f(k) ≈ 7 + k/4 under uniform gossip.  This module implements that fit so
the derivation itself is reproducible (and so alternative environments can
derive their own cutoffs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.analysis.cdf import quantile

__all__ = ["CutoffFit", "fit_linear_cutoff"]


@dataclass(frozen=True)
class CutoffFit:
    """Result of fitting a linear high-probability counter bound.

    Attributes
    ----------
    intercept, slope:
        The fitted line ``bound(k) = intercept + slope · k``.
    per_bit_bounds:
        The raw per-bit quantile bounds the line was fitted through.
    quantile:
        The probability level of those bounds (e.g. 0.99).
    """

    intercept: float
    slope: float
    per_bit_bounds: Dict[int, float]
    quantile: float

    def __call__(self, bit_index: int) -> float:
        """Evaluate the fitted cutoff at ``bit_index``."""
        return self.intercept + self.slope * bit_index



def fit_linear_cutoff(
    counters_by_bit: Dict[int, Sequence[int]],
    *,
    probability: float = 0.99,
    min_samples: int = 10,
) -> CutoffFit:
    """Fit ``bound(k) = a + b·k`` through per-bit high-probability counter bounds.

    Parameters
    ----------
    counters_by_bit:
        bit index → observed (finite) counter values of a converged network.
        Bits with fewer than ``min_samples`` observations are excluded from
        the fit: high bit indices are sourced by so few hosts that their
        counter samples are dominated by the "nobody sources this yet" tail
        the paper also excludes.
    probability:
        The quantile used as the per-bit bound (the paper bounds "with high
        probability"; 0.99 reproduces the shape well).

    Returns
    -------
    CutoffFit
        The fitted line plus the raw per-bit bounds.
    """
    if not 0.0 < probability <= 1.0:
        raise ValueError("probability must be in (0, 1]")
    bounds: Dict[int, float] = {}
    for bit_index, samples in sorted(counters_by_bit.items()):
        samples = np.asarray(samples, dtype=float)
        samples = samples[np.isfinite(samples)]
        if samples.size < min_samples:
            continue
        bounds[bit_index] = quantile(samples, probability)
    if len(bounds) < 2:
        raise ValueError("need bounds for at least two bit indices to fit a line")
    bits = np.array(sorted(bounds), dtype=float)
    values = np.array([bounds[int(bit)] for bit in bits], dtype=float)
    slope, intercept = np.polyfit(bits, values, deg=1)
    return CutoffFit(
        intercept=float(intercept),
        slope=float(slope),
        per_bit_bounds=bounds,
        quantile=probability,
    )
