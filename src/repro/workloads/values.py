"""Host value distributions.

Each distribution comes twice: ``*_array`` draws one float64 array (what the
scenario layer builds once per run and the NumPy kernels copy), ``*_values``
is the same draw as a list of floats (what the agent engines and the
prebuilt scenarios hold).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "uniform_array",
    "uniform_values",
    "constant_array",
    "constant_values",
    "normal_array",
    "normal_values",
    "zipf_array",
    "zipf_values",
    "clustered_array",
    "clustered_values",
]


def uniform_array(
    n: int, low: float = 0.0, high: float = 100.0, seed: Optional[int] = None
) -> np.ndarray:
    """Values drawn uniformly from [low, high) — the paper's default workload."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if high < low:
        raise ValueError("high must be >= low")
    return np.random.default_rng(seed).uniform(low, high, size=n)


def constant_array(n: int, value: float = 1.0) -> np.ndarray:
    """Every host holds ``value``; value 1 turns summation into counting."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return np.full(n, float(value))


def normal_array(
    n: int, mean: float = 50.0, std: float = 15.0, seed: Optional[int] = None
) -> np.ndarray:
    """Gaussian values (e.g. sensor readings around a set point)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if std < 0:
        raise ValueError("std must be non-negative")
    return np.random.default_rng(seed).normal(mean, std, size=n)


def zipf_array(
    n: int, exponent: float = 1.5, scale: float = 1.0, seed: Optional[int] = None
) -> np.ndarray:
    """Heavy-tailed positive values (e.g. per-device play counts)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if exponent <= 1.0:
        raise ValueError("zipf exponent must be > 1")
    rng = np.random.default_rng(seed)
    return rng.zipf(exponent, size=n).astype(float) * scale


def clustered_array(
    n: int,
    cluster_means: Sequence[float] = (10.0, 50.0, 90.0),
    std: float = 5.0,
    seed: Optional[int] = None,
) -> np.ndarray:
    """Values clustered around a few means (e.g. taste-in-music communities).

    Hosts are split evenly (up to rounding) across the clusters, which makes
    correlated failures — "everyone in cluster 3 left the bar" — especially
    damaging to static protocols.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if not cluster_means:
        raise ValueError("need at least one cluster mean")
    if std < 0:
        raise ValueError("std must be non-negative")
    rng = np.random.default_rng(seed)
    assignments = rng.integers(0, len(cluster_means), size=n)
    means = np.asarray(cluster_means, dtype=float)[assignments]
    return rng.normal(means, std)


def uniform_values(
    n: int, low: float = 0.0, high: float = 100.0, seed: Optional[int] = None
) -> List[float]:
    """:func:`uniform_array` as a list."""
    return uniform_array(n, low, high, seed).tolist()


def constant_values(n: int, value: float = 1.0) -> List[float]:
    """:func:`constant_array` as a list."""
    return constant_array(n, value).tolist()


def normal_values(
    n: int, mean: float = 50.0, std: float = 15.0, seed: Optional[int] = None
) -> List[float]:
    """:func:`normal_array` as a list."""
    return normal_array(n, mean, std, seed).tolist()


def zipf_values(
    n: int, exponent: float = 1.5, scale: float = 1.0, seed: Optional[int] = None
) -> List[float]:
    """:func:`zipf_array` as a list."""
    return zipf_array(n, exponent, scale, seed).tolist()


def clustered_values(
    n: int,
    cluster_means: Sequence[float] = (10.0, 50.0, 90.0),
    std: float = 5.0,
    seed: Optional[int] = None,
) -> List[float]:
    """:func:`clustered_array` as a list."""
    return clustered_array(n, cluster_means, std, seed).tolist()
