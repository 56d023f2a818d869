"""The paper's contribution: dynamic distributed aggregation protocols.

Static gossip aggregation (Push-Sum, Sketch-Count) assumes a fixed
participant set; a host that silently departs leaves its contribution
stuck in the computation forever.  The protocols in this package trade a
small, bounded local error for the ability to *forget*:

* :class:`PushSumRevert` — Push-Sum plus a per-round reversion of each
  host's mass towards its initial value (Section III); the reversion
  constant λ trades reconvergence speed against plateau error.
* :class:`FullTransferPushSumRevert` — the Full-Transfer optimisation
  (Section III-A): hosts export their entire mass in ``N`` parcels and
  estimate from the last ``T`` mass-bearing rounds, removing the
  self-value bias and cutting the plateau error further.
* :class:`CountSketchReset` — FM counting sketches whose bits are replaced
  by freshness counters with a size-agnostic cutoff ``f(k) = 7 + k/4``
  (Section IV), so contributions of departed hosts age out.
* :class:`InvertAverage` — network sum as (Count-Sketch-Reset size) ×
  (Push-Sum-Revert average), far cheaper than multiple-insertion
  summation (Section IV-B).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.core.count_sketch_reset": ("CountSketchReset", "CountSketchResetState"),
    "repro.core.cutoff": ("default_cutoff", "linear_cutoff", "no_decay_cutoff", "scaled_cutoff"),
    "repro.core.departure": ("GracefulDepartureEvent",),
    "repro.core.full_transfer": ("FullTransferPushSumRevert",),
    "repro.core.invert_average": ("InvertAverage", "InvertAverageState"),
    "repro.core.push_sum_revert": ("PushSumRevert",),
})
