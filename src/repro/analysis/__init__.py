"""Analysis utilities: CDFs, cutoff fitting and rendering.

The experiment harness produces plain numeric series; this package turns
them into the artefacts the paper presents — per-bit counter CDFs (Fig 6),
error-versus-round series (Figs 8–10), hour-by-hour trace series (Fig 11),
the fitted linear cutoff f(k) — and renders them as plain-text tables for
the benchmark output (committed under ``benchmarks/output/``).
"""

from repro.analysis.cdf import cdf_at, empirical_cdf, quantile
from repro.analysis.cutoff_fit import CutoffFit, fit_linear_cutoff
from repro.analysis.render import format_number, render_series_table, render_table

__all__ = [
    "CutoffFit",
    "cdf_at",
    "empirical_cdf",
    "fit_linear_cutoff",
    "format_number",
    "quantile",
    "render_series_table",
    "render_table",
]
