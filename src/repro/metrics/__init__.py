"""Error metrics, convergence detection and measurement recorders.

The agent-based engine records its own per-round metrics
(:class:`repro.simulator.SimulationResult`); this package provides the same
statistics as standalone functions so the vectorised kernels, the analysis
code and the tests can share one definition of "error", plus:

* :class:`SeriesRecorder` — a light per-round recorder for hand-driven
  kernel experiments;
* convergence-time and plateau summaries over error series;
* bandwidth/storage cost summaries used by the protocol-cost comparisons
  (Invert-Average versus multiple-insertion summation).
"""

from repro.metrics.accuracy import (
    group_relative_errors,
    mean_absolute_error,
    relative_error,
    stddev_from_truth,
)
from repro.metrics.bandwidth import CostSummary, DeliveryMeter, protocol_cost_summary
from repro.metrics.convergence import convergence_round, plateau_error, reconvergence_round
from repro.metrics.recorder import SeriesRecorder

__all__ = [
    "CostSummary",
    "DeliveryMeter",
    "SeriesRecorder",
    "convergence_round",
    "group_relative_errors",
    "mean_absolute_error",
    "plateau_error",
    "protocol_cost_summary",
    "reconvergence_round",
    "relative_error",
    "stddev_from_truth",
]
