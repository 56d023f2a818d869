"""Trace statistics.

These summaries are used for two purposes: to render the "Avg Group Size"
reference series that Fig 11 overlays on the error curves, and to
sanity-check that the synthetic Haggle-like traces have the qualitative
features (small transient groups, heavy-tailed contact durations, diurnal
cycles) described for the real CRAWDAD datasets.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.mobility.traces import ContactTrace
from repro.topology.connectivity import connected_components

__all__ = [
    "average_group_size_series",
    "contact_duration_stats",
    "intercontact_time_stats",
]


def average_group_size_series(
    trace: ContactTrace,
    step_seconds: float = 1800.0,
    window_seconds: float = 600.0,
) -> Tuple[List[float], List[float]]:
    """Mean "nearby group" size sampled every ``step_seconds``.

    Groups follow the paper's definition: connected components of the union
    of edges seen during the trailing ``window_seconds``.  Returns
    ``(times_in_hours, mean_group_sizes)``.
    """
    if step_seconds <= 0:
        raise ValueError("step_seconds must be positive")
    times: List[float] = []
    sizes: List[float] = []
    time = 0.0
    duration = trace.duration
    while time <= duration:
        groups = trace.groups_at(time, window=window_seconds)
        group_sizes = [len(group) for group in groups] or [1]
        times.append(time / 3600.0)
        sizes.append(float(np.mean(group_sizes)))
        time += step_seconds
    return times, sizes


def contact_duration_stats(trace: ContactTrace) -> Dict[str, float]:
    """Summary statistics of contact durations (seconds)."""
    durations = np.asarray([record.duration for record in trace.records], dtype=float)
    if durations.size == 0:
        return {"count": 0, "mean": 0.0, "median": 0.0, "p90": 0.0, "max": 0.0}
    return {
        "count": int(durations.size),
        "mean": float(durations.mean()),
        "median": float(np.median(durations)),
        "p90": float(np.percentile(durations, 90)),
        "max": float(durations.max()),
    }


def intercontact_time_stats(trace: ContactTrace) -> Dict[str, float]:
    """Summary statistics of inter-contact times per device pair (seconds).

    The inter-contact time is the gap between the end of one contact and the
    start of the next contact between the same pair — the key quantity for
    opportunistic forwarding and a standard way to characterise human
    mobility traces.
    """
    gaps: List[float] = []
    by_pair: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for record in trace.records:
        by_pair.setdefault((record.a, record.b), []).append((record.start, record.end))
    for intervals in by_pair.values():
        intervals.sort()
        for (_, end_prev), (start_next, _) in zip(intervals, intervals[1:]):
            gap = start_next - end_prev
            if gap > 0:
                gaps.append(gap)
    if not gaps:
        return {"count": 0, "mean": 0.0, "median": 0.0, "p90": 0.0, "max": 0.0}
    gaps_arr = np.asarray(gaps, dtype=float)
    return {
        "count": int(gaps_arr.size),
        "mean": float(gaps_arr.mean()),
        "median": float(np.median(gaps_arr)),
        "p90": float(np.percentile(gaps_arr, 90)),
        "max": float(gaps_arr.max()),
    }
