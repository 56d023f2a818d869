"""Probabilistic counting sketches.

The counting side of the paper builds on Flajolet–Martin (FM) counting
sketches as applied to sensor networks by Considine et al.:

* :mod:`repro.sketches.hashing` — the ρ function (geometric bit selection
  via a deterministic hash) and bin assignment for stochastic averaging;
* :mod:`repro.sketches.fm_sketch` — classic FM bit sketches with ``m``-bin
  stochastic averaging, a bitwise OR as duplicate-insensitive union, and the
  :math:`n \\approx m\\,2^{\\bar R}/\\varphi` estimator;
* :mod:`repro.sketches.counter_matrix` — the per-(bin, bit) *freshness
  counter* matrix that Count-Sketch-Reset gossips instead of raw bits,
  which is what gives the sketch the ability to decay (Section IV).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.sketches.counter_matrix": ("CounterMatrix",),
    "repro.sketches.fm_sketch": ("FMSketch", "PHI", "fm_estimate", "rank_of_bits"),
    "repro.sketches.hashing": ("bin_index", "identifier_hash", "rho"),
})
