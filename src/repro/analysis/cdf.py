"""Empirical cumulative distribution functions (Fig 6's plotting primitive)."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = ["empirical_cdf", "cdf_at", "quantile"]


def empirical_cdf(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """The empirical CDF of ``values`` as ``(sorted_values, probabilities)``.

    ``probabilities[i]`` is the fraction of samples ≤ ``sorted_values[i]``.
    Raises on an empty sample, because a CDF of nothing is meaningless.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot build a CDF from an empty sample")
    ordered = np.sort(arr)
    probabilities = np.arange(1, ordered.size + 1, dtype=float) / ordered.size
    return ordered, probabilities


def cdf_at(values: Sequence[float], points: Sequence[float]) -> np.ndarray:
    """Evaluate the empirical CDF of ``values`` at the given ``points``."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot evaluate a CDF of an empty sample")
    ordered = np.sort(arr)
    points_arr = np.asarray(points, dtype=float)
    counts = np.searchsorted(ordered, points_arr, side="right")
    return counts / arr.size


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile of ``values`` (0 ≤ q ≤ 1)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot take a quantile of an empty sample")
    return float(np.quantile(arr, q))
