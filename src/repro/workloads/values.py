"""Host value distributions."""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "uniform_values",
    "constant_values",
    "normal_values",
    "zipf_values",
    "clustered_values",
]


def uniform_values(
    n: int, low: float = 0.0, high: float = 100.0, seed: Optional[int] = None
) -> List[float]:
    """Values drawn uniformly from [low, high) — the paper's default workload."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if high < low:
        raise ValueError("high must be >= low")
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, size=n).tolist()


def constant_values(n: int, value: float = 1.0) -> List[float]:
    """Every host holds ``value``; value 1 turns summation into counting."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return [float(value)] * n


def normal_values(
    n: int, mean: float = 50.0, std: float = 15.0, seed: Optional[int] = None
) -> List[float]:
    """Gaussian values (e.g. sensor readings around a set point)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if std < 0:
        raise ValueError("std must be non-negative")
    rng = np.random.default_rng(seed)
    return rng.normal(mean, std, size=n).tolist()


def zipf_values(
    n: int, exponent: float = 1.5, scale: float = 1.0, seed: Optional[int] = None
) -> List[float]:
    """Heavy-tailed positive values (e.g. per-device play counts)."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if exponent <= 1.0:
        raise ValueError("zipf exponent must be > 1")
    rng = np.random.default_rng(seed)
    return (rng.zipf(exponent, size=n).astype(float) * scale).tolist()


def clustered_values(
    n: int,
    cluster_means: Sequence[float] = (10.0, 50.0, 90.0),
    std: float = 5.0,
    seed: Optional[int] = None,
) -> List[float]:
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
    return rng.normal(means, std).tolist()
