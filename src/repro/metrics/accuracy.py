"""Accuracy metrics: the one definition of "error" every driver scores with.

All the evaluation figures in the paper plot one statistic: "the standard
deviation from the correct value" — the root-mean-square deviation of the
hosts' estimates from the true aggregate.  :func:`error_statistics` computes
it (with its companions) for ``Simulation._record_round`` (both agent
engines) and ``KernelRun.sample``; :func:`group_truths` is the array form of the Fig 11 rule (each host
against its own group's aggregate).  The scorer owns the statistics of
``estimates − truths`` only: the scalar *recorded* as a record's ``truth``
stays with the caller (the agent engine averages group truths in
group-insertion order, the kernels in host order).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

__all__ = [
    "ErrorStatistics",
    "error_statistics",
    "group_truths",
]


class ErrorStatistics(NamedTuple):
    """What :func:`error_statistics` returns — named like the RoundRecord fields."""

    stddev_error: float
    max_abs_error: float
    mean_abs_error: float
    mean_estimate: float


def error_statistics(
    estimates: Sequence[float], truths: Union[float, np.ndarray]
) -> ErrorStatistics:
    """``(stddev, max_abs, mean_abs, mean_estimate)`` of ``estimates`` against ``truths``.

    ``truths`` is one scalar (every host scored against the same correct
    value) or one value per estimate (group-relative scoring).  ``stddev``
    is the paper's statistic, ``sqrt(mean((estimates - truths)**2))``.  An
    empty estimate set (every host failed) scores NaN throughout.
    """
    estimates = np.asarray(estimates, dtype=float)
    n = estimates.size
    if n == 0:
        return ErrorStatistics(*[float("nan")] * 4)
    deltas = estimates - truths
    # The reductions behind np.mean / np.max, minus their Python wrappers:
    # the same pairwise sums and the same division, so the same bits.  The
    # stddev is taken first, so the magnitudes can overwrite the deltas.  A
    # delta beyond ~1e154 squares to inf, which is the right stddev: no warning.
    with np.errstate(over="ignore"):
        stddev = float(np.sqrt(np.add.reduce(deltas * deltas) / n))
    magnitudes = np.abs(deltas, out=deltas)
    return ErrorStatistics(
        stddev,
        float(np.maximum.reduce(magnitudes)),
        float(np.add.reduce(magnitudes) / n),
        float(np.add.reduce(estimates) / n),
    )


def group_truths(
    kind: str, labels: np.ndarray, sizes: np.ndarray, values: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per-host correct value under the Fig 11 rule: each host against its *group*.

    ``labels[i]`` is the group index of live host ``i``, ``sizes[g]`` the
    live member count of group ``g`` and ``values[i]`` host ``i``'s own value
    (unused for ``kind="count"``).  Returns, aligned with ``labels``, the
    ``kind`` (``"count"``, ``"average"``, ``"max"``, ``"min"``) of each
    host's own group.
    """
    if kind == "count":
        per_group = sizes.astype(float)
    elif kind == "average":
        sums = np.bincount(labels, weights=values, minlength=sizes.size)
        per_group = sums / np.maximum(sizes, 1)
    else:  # max / min (no kernel aggregates sums today)
        fill = -np.inf if kind == "max" else np.inf
        per_group = np.full(sizes.size, fill, dtype=float)
        extremum = np.maximum if kind == "max" else np.minimum
        extremum.at(per_group, labels, values)
    return per_group[labels]
