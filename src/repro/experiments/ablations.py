"""Ablations of the design choices called out in DESIGN.md §6.

These are not figures from the paper; they quantify the claims the paper
makes in passing (push/pull halves convergence, adaptive λ halves
reconvergence, Invert-Average is orders of magnitude cheaper than multiple
insertion) so that each claim has a reproducible measurement attached.
Every ablation returns an :class:`AblationResult` with labelled scalar
outcomes plus the raw series where relevant; each simulated variant is a
figure's scenario (:data:`~repro.experiments.fig8_uncorrelated.FIG8`,
``FIG9``, ``FIG10``) resized and with the ablated parameter changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.analysis.render import render_table
from repro.api.spec import run_scenario
from repro.experiments.fig8_uncorrelated import FIG8, failure_of
from repro.experiments.fig9_counting_failure import FIG9
from repro.experiments.fig10_correlated import FIG10
from repro.metrics.bandwidth import protocol_cost_summary
from repro.metrics.convergence import convergence_round, plateau_error, reconvergence_round

__all__ = [
    "AblationResult",
    "run_push_vs_pushpull_ablation",
    "run_adaptive_lambda_ablation",
    "run_full_transfer_parameter_ablation",
    "run_cutoff_slope_ablation",
    "run_summation_cost_ablation",
]


@dataclass
class AblationResult:
    """Labelled outcomes of one ablation."""

    name: str
    #: variant label → scalar outcome (convergence round, plateau error, bytes, ...)
    outcomes: Dict[str, float] = field(default_factory=dict)
    #: variant label → per-round series, when the ablation produces one.
    series: Dict[str, List[float]] = field(default_factory=dict)
    notes: str = ""

    def render(self) -> str:
        """A two-column table of the outcomes."""
        rows = [[label, value] for label, value in self.outcomes.items()]
        title = f"Ablation: {self.name}"
        if self.notes:
            title += f" — {self.notes}"
        return title + "\n" + render_table(["variant", "outcome"], rows)


def run_push_vs_pushpull_ablation(
    n_hosts: int = 2000, *, rounds: int = 40, threshold: float = 1.0, seed: int = 0
) -> AblationResult:
    """Push versus push/pull convergence time for static Push-Sum (λ=0).

    The paper (after Karp et al.) states push/pull roughly halves the
    initial convergence time; the outcome is the first round at which the
    error drops below ``threshold``.
    """
    result = AblationResult(
        name="push vs push/pull",
        notes=f"{n_hosts} hosts, rounds to error <= {threshold}",
    )
    static = FIG8.replace(
        protocol_params={"reversion": 0.0}, n_hosts=n_hosts, rounds=rounds, events=(), seed=seed
    )
    for label, mode in (("push", "push"), ("pushpull", "exchange")):
        errors = run_scenario(static.replace(mode=mode)).errors()
        result.series[label] = errors
        converged = convergence_round(errors, threshold)
        result.outcomes[label] = float(converged) if converged is not None else float("nan")
    return result


def run_adaptive_lambda_ablation(
    n_hosts: int = 2000,
    *,
    rounds: int = 60,
    reversion: float = 0.05,
    threshold: float = 5.0,
    seed: int = 0,
) -> AblationResult:
    """Fixed λ versus indegree-adaptive λ/2-per-message reversion (push mode).

    Outcome per variant: rounds after Figure 10's correlated failure needed
    to bring the error back under ``threshold`` (NaN = never within the
    horizon).
    """
    scenario = FIG10.replace(mode="push", n_hosts=n_hosts, rounds=rounds, seed=seed)
    failure_round, _fraction = failure_of(scenario)
    result = AblationResult(
        name="fixed vs adaptive reversion",
        notes=f"lambda={reversion}, correlated failure at round {failure_round}",
    )
    for label, adaptive in (("fixed", False), ("adaptive", True)):
        spec = scenario.replace(protocol_params={"reversion": reversion, "adaptive": adaptive})
        errors = run_scenario(spec).errors()
        result.series[label] = errors
        recovered = reconvergence_round(errors, threshold, disturbance_round=failure_round)
        result.outcomes[label] = float(recovered) if recovered is not None else float("nan")
    return result


def run_full_transfer_parameter_ablation(
    n_hosts: int = 2000,
    *,
    rounds: int = 60,
    reversion: float = 0.1,
    parcel_counts: Sequence[int] = (1, 2, 4, 8),
    history_lengths: Sequence[int] = (1, 3, 6),
    seed: int = 0,
) -> AblationResult:
    """Plateau error of Full-Transfer after Figure 10's failure, by N (parcels) and T (history)."""
    result = AblationResult(
        name="full-transfer parcels/history sweep",
        notes=f"lambda={reversion}, plateau error after correlated failure",
    )
    scenario = FIG10.replace(
        protocol="push-sum-revert-full-transfer", mode="push", n_hosts=n_hosts, rounds=rounds,
        seed=seed,
    )
    for parcels in parcel_counts:
        for history in history_lengths:
            spec = scenario.replace(
                protocol_params={"reversion": reversion, "parcels": parcels, "history": history}
            )
            errors = run_scenario(spec).errors()
            label = f"N={parcels}, T={history}"
            result.series[label] = errors
            result.outcomes[label] = plateau_error(errors, tail=5)
    return result


def run_cutoff_slope_ablation(
    n_hosts: int = 2000,
    *,
    rounds: int = 40,
    intercepts: Sequence[float] = (4.0, 7.0, 12.0),
    slopes: Sequence[float] = (0.25,),
    bins: int = 32,
    bits: int = 18,
    seed: int = 0,
) -> AblationResult:
    """Count-Sketch-Reset recovery and stability versus the cutoff parameters.

    Too small an intercept expires bits that are still being sourced
    (underestimation before any failure); too large an intercept delays
    recovery after Figure 9's failure.  Outcomes are the post-failure
    plateau errors; the pre-failure plateau is recorded in the series.
    """
    scenario = FIG9.replace(n_hosts=n_hosts, rounds=rounds, seed=seed)
    failure_round, failure_fraction = failure_of(scenario)
    result = AblationResult(
        name="freshness cutoff sweep",
        notes=f"{n_hosts} hosts, {failure_fraction:.0%} random failure at round {failure_round}",
    )
    for intercept in intercepts:
        for slope in slopes:
            spec = scenario.replace(
                protocol_params={"bins": bins, "bits": bits, "cutoff": [intercept, slope]}
            )
            errors = run_scenario(spec).errors()
            label = f"f(k)={intercept:g}+{slope:g}k"
            result.series[label] = errors
            result.outcomes[label] = plateau_error(errors, tail=5)
    return result


def run_summation_cost_ablation(
    *,
    value_range: int = 1000,
    bins: int = 64,
    bits: int = 24,
    counter_bytes: int = 2,
    simultaneous_sums: int = 10,
) -> AblationResult:
    """Per-round bandwidth of Invert-Average versus multiple-insertion summation.

    Multiple insertion needs a sketch wide enough for the *sum* (its bit
    width grows with log2 of the value range) and ships the whole sketch for
    every summation; Invert-Average ships one sketch (amortised over all
    simultaneous sums) plus two floats per sum.
    """
    # A *dynamic* multiple-insertion summation needs the same freshness
    # counters as Count-Sketch-Reset, over a sketch wide enough for the sum
    # (log2(value_range) extra bit positions), and it ships that full width
    # for every summation being maintained.
    sum_bits = bits + int(np.ceil(np.log2(max(2, value_range))))
    multiple_insertion = protocol_cost_summary(
        name="multiple-insertion summation",
        bins=bins,
        bits=sum_bits,
        counter_bytes=counter_bytes,
    )
    sketch_half = protocol_cost_summary(
        name="count-sketch-reset (shared)",
        bins=bins,
        bits=bits,
        counter_bytes=counter_bytes,
    )
    average_half = protocol_cost_summary(name="push-sum-revert", mass_values=2)
    result = AblationResult(
        name="summation bandwidth",
        notes=f"{simultaneous_sums} simultaneous sums, values up to {value_range}",
    )
    result.outcomes["multiple insertion (per sum)"] = float(multiple_insertion.bytes_per_round)
    invert_per_sum = sketch_half.amortized_bytes(simultaneous_sums) + average_half.bytes_per_round
    result.outcomes["invert-average (per sum, sketch amortised)"] = float(invert_per_sum)
    result.outcomes["ratio"] = float(multiple_insertion.bytes_per_round / invert_per_sum)
    return result
