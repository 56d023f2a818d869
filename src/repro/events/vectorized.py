"""The array-form calendar parts of the bucketed event engine.

The kernel driver (:class:`repro.api.kernel_run.KernelRun`, DESIGN.md §14)
runs ``engine="events"`` in per-bucket NumPy batches.  This module holds
the continuous-time machinery it switches on for that engine and leaves
out for lockstep rounds: :func:`bucket_grid` (the batch quantum),
:class:`ClockGrid` (every host clock as three arrays — the vectorised
:class:`~repro.events.clocks.HostClock`) and :func:`sample_delays` (the
latency model's ``plan_seconds``, ``k`` draws per call).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.events.clocks import TIME_EPS, EngineSettings

__all__ = ["ClockGrid", "bucket_grid", "sample_delays"]

#: Hard cap on buckets per sample interval: finer clock grids coarsen to
#: this rather than degenerating into per-event buckets.
_MAX_BUCKETS_PER_SAMPLE = 64


def sample_delays(network_model, rng: np.random.Generator, k: int) -> np.ndarray:
    """Vectorised ``plan_seconds`` for the latency model: ``k`` delays at once."""
    cap = float(network_model.max_delay)
    if network_model.distribution == "fixed":
        return np.full(k, min(float(network_model.delay), cap))
    if network_model.distribution == "uniform":
        drawn = rng.integers(network_model.low, network_model.high + 1, size=k).astype(float)
        if network_model.high <= cap:  # no draw can exceed the cap
            return drawn
    else:  # lognormal
        drawn = rng.lognormal(network_model.mean, network_model.sigma, k)
    return np.minimum(drawn, cap)


class ClockGrid:
    """Array-of-clocks: ``next_time[i] = origins[i] + next_index[i] * periods[i]``.

    The vectorised form of :class:`repro.events.clocks.HostClock` — same
    grid arithmetic (multiplication from a stored origin, so float error
    never accumulates), same synchronized-join snapping, grown in place
    when hosts join.
    """

    def __init__(self, settings: EngineSettings, rng: np.random.Generator, count: int):
        self._settings = settings
        self._rng = rng
        self.periods = np.empty(0, dtype=float)
        self.origins = np.empty(0, dtype=float)
        self.next_index = np.empty(0, dtype=np.int64)
        self.grow(count, join_time=0.0)

    def grow(self, count: int, *, join_time: float) -> None:
        if count <= 0:
            return
        periods = 1.0 / self._settings.draw_rates(self._rng, count)
        if self._settings.synchronized:
            origins = np.zeros(count, dtype=float)
            first = np.ceil(join_time / periods - TIME_EPS).astype(np.int64)
            next_index = np.maximum(1, first)
        else:
            origins = join_time + periods * (1.0 - self._rng.random(count))
            next_index = np.zeros(count, dtype=np.int64)
        self.periods = np.concatenate([self.periods, periods])
        self.origins = np.concatenate([self.origins, origins])
        self.next_index = np.concatenate([self.next_index, next_index])

    def next_times(self) -> np.ndarray:
        return self.origins + self.next_index * self.periods

    def advance(self, host_idx: np.ndarray) -> np.ndarray:
        """Move ``host_idx``'s clocks on one tick; return their next tick times."""
        if host_idx.size == self.next_index.size:  # every clock: in place, no gathers
            self.next_index += 1
            return self.next_times()
        next_index = self.next_index[host_idx] + 1
        self.next_index[host_idx] = next_index
        return self.origins[host_idx] + next_index * self.periods[host_idx]


def bucket_grid(settings: EngineSettings, base: float) -> Tuple[int, float, int]:
    """``(ratio, quantum, total_buckets)`` for a calendar run.

    ``base`` is the requested bucket width (``batch_quantum``, or the
    shortest clock period).  The quantum actually used is the sample
    interval divided by a whole ``ratio`` — so every sample instant, and
    with it every membership event, is a bucket boundary — capped at
    :data:`_MAX_BUCKETS_PER_SAMPLE`.
    """
    ratio = max(1, int(math.ceil(settings.sample_interval / float(base) - TIME_EPS)))
    ratio = min(ratio, _MAX_BUCKETS_PER_SAMPLE)
    quantum = settings.sample_interval / ratio
    total_buckets = int(math.ceil(settings.duration / quantum - TIME_EPS))
    return ratio, quantum, total_buckets
