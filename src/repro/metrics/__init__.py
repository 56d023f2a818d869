"""Error metrics, convergence detection and cost summaries.

:mod:`repro.metrics.accuracy` is the one definition of "error": every
driver (both agent engines, the kernel driver, hand-driven kernel loops)
scores its per-round :class:`~repro.simulator.result.RoundRecord` through
:func:`error_statistics`.  Beside it:

* convergence-time and plateau summaries over error series;
* bandwidth/storage cost summaries used by the protocol-cost comparisons
  (Invert-Average versus multiple-insertion summation).
"""

from repro.metrics.accuracy import error_statistics, group_truths
from repro.metrics.bandwidth import CostSummary, DeliveryMeter, protocol_cost_summary
from repro.metrics.convergence import convergence_round, plateau_error, reconvergence_round

__all__ = [
    "CostSummary",
    "DeliveryMeter",
    "convergence_round",
    "error_statistics",
    "group_truths",
    "plateau_error",
    "protocol_cost_summary",
    "reconvergence_round",
]
