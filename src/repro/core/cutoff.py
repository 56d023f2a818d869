"""Freshness cutoff functions for Count-Sketch-Reset.

Section IV derives that, under uniform gossip, the freshness counter of a
bit still being sourced by at least one live host is bounded with high
probability by a function that is *linear in the bit index* and
independent of the network size:

    f(k) ≈ 7 + k/4

(the experimentally fitted bound shown in Figure 6).  A counter above the
cutoff means the bit has not been refreshed for longer than any live
source could explain, so the bit is treated as dead and the departed
host's contribution decays out of the sketch.

These helpers build the standard cutoff and the variants used by the
ablation experiments ("reversion off" = never decay, "reversion slow" =
a doubled cutoff).
"""

from __future__ import annotations

from typing import Callable

__all__ = ["default_cutoff", "linear_cutoff", "scaled_cutoff", "no_decay_cutoff"]

#: The counter matrices' "never heard of" sentinel,
#: :data:`repro.sketches.counter_matrix.INFINITY` (a test pins the two equal).
#: Spelled out here so that building a cutoff, which every spec does, loads no
#: sketch module.
INFINITY = 1_000_000_000

#: The intercept of the paper's experimentally derived bound.
DEFAULT_INTERCEPT = 7.0
#: The slope of the paper's experimentally derived bound (1 extra round per
#: 4 bit indices).
DEFAULT_SLOPE = 0.25


def linear_cutoff(intercept: float, slope: float) -> Callable[[int], float]:
    """A cutoff of the form ``f(k) = intercept + slope·k``."""
    if intercept < 0 or slope < 0:
        raise ValueError("cutoff intercept and slope must be non-negative")

    def cutoff(bit_index: int) -> float:
        return intercept + slope * bit_index

    cutoff.intercept = intercept  # type: ignore[attr-defined]
    cutoff.slope = slope  # type: ignore[attr-defined]
    return cutoff


def default_cutoff(bit_index: int) -> float:
    """The paper's cutoff: ``f(k) = 7 + k/4``."""
    return DEFAULT_INTERCEPT + DEFAULT_SLOPE * bit_index


def scaled_cutoff(factor: float) -> Callable[[int], float]:
    """The default cutoff scaled by ``factor`` (the "reversion slow" variant)."""
    if factor <= 0:
        raise ValueError("factor must be positive")

    def cutoff(bit_index: int) -> float:
        return factor * default_cutoff(bit_index)

    cutoff.factor = factor  # type: ignore[attr-defined]
    return cutoff


def no_decay_cutoff(bit_index: int) -> float:
    """A cutoff that never expires anything — Count-Sketch-Reset degenerates
    to static Sketch-Count ("reversion off" / "propagation limiting off").

    The value sits just below the counter matrices' "never heard of"
    sentinel, so positions nobody ever sourced still read as unset.
    """
    return float(INFINITY - 1)
