"""Experiment harness: one module per figure in the paper's evaluation.

Each ``figN_*`` module exposes a ``run_*`` function returning a small
result dataclass (plain series, no plotting dependencies) and a
``render_*`` function that formats the same rows/series the paper's figure
plots as an aligned text table.  :mod:`repro.experiments.runner` ties them
together (and backs the ``python -m repro`` command line), and
:mod:`repro.experiments.ablations` covers the design-choice ablations
called out in DESIGN.md.

Default problem sizes are scaled down from the paper's 100 000-host runs
so that the full suite finishes in minutes on a laptop; every size is a
parameter, and the figure benchmarks under ``benchmarks/`` set the scaled
configuration behind the committed goldens in ``benchmarks/output/``.
"""

from repro.experiments.ablations import (
    AblationResult,
    run_adaptive_lambda_ablation,
    run_cutoff_slope_ablation,
    run_full_transfer_parameter_ablation,
    run_push_vs_pushpull_ablation,
    run_summation_cost_ablation,
)
from repro.experiments.fig6_counter_cdf import Fig6Result, render_fig6, run_fig6
from repro.experiments.fig8_uncorrelated import Fig8Result, render_fig8, run_fig8
from repro.experiments.fig9_counting_failure import Fig9Result, render_fig9, run_fig9
from repro.experiments.fig10_correlated import Fig10Result, render_fig10, run_fig10
from repro.experiments.fig11_traces import Fig11Result, render_fig11, run_fig11
from repro.experiments.runner import run_all_experiments

__all__ = [
    "AblationResult",
    "Fig10Result",
    "Fig11Result",
    "Fig6Result",
    "Fig8Result",
    "Fig9Result",
    "render_fig10",
    "render_fig11",
    "render_fig6",
    "render_fig8",
    "render_fig9",
    "run_adaptive_lambda_ablation",
    "run_all_experiments",
    "run_cutoff_slope_ablation",
    "run_fig10",
    "run_fig11",
    "run_fig6",
    "run_fig8",
    "run_fig9",
    "run_full_transfer_parameter_ablation",
    "run_push_vs_pushpull_ablation",
    "run_summation_cost_ablation",
]
