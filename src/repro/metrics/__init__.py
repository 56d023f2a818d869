"""Error metrics, convergence detection and cost summaries.

:mod:`repro.metrics.accuracy` is the one definition of "error": every
driver (both agent engines, the kernel driver, hand-driven kernel loops)
scores its per-round :class:`~repro.simulator.result.RoundRecord` through
:func:`error_statistics`.  Beside it:

* convergence-time and plateau summaries over error series;
* bandwidth/storage cost summaries used by the protocol-cost comparisons
  (Invert-Average versus multiple-insertion summation).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.metrics.accuracy": ("error_statistics", "group_truths"),
    "repro.metrics.bandwidth": ("CostSummary", "protocol_cost_summary"),
    "repro.metrics.convergence": ("convergence_round", "plateau_error", "reconvergence_round"),
})
