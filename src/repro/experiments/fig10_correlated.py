"""Figure 10: dynamic averaging under correlated failures.

Setup (paper): as Figure 8, but the failure removes the *highest-valued*
half of the hosts, so the true average drops from ≈50 to ≈25 while the
mass circulating in the system still encodes the old average.

* Figure 10(a): the basic Push-Sum-Revert protocol under push/pull gossip.
  λ = 0 (static Push-Sum) never recovers; larger λ recovers faster but
  plateaus at a larger residual error.
* Figure 10(b): the Full-Transfer optimisation (mass exported in N = 4
  parcels, estimate over the last T = 3 mass-bearing rounds).  Convergence
  is faster and the plateaus are much lower; the paper quotes σ ≈ 2.13
  (8.5 %) within 10 rounds at λ = 0.5 and σ ≈ 0.694 (2.8 %) at λ = 0.1
  after ≈35 rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.render import render_series_table
from repro.api.spec import ScenarioSpec, run_scenario
from repro.experiments.fig8_uncorrelated import DEFAULT_LAMBDAS, failure_of, reversion_sweep
from repro.metrics.convergence import plateau_error, reconvergence_round

__all__ = ["FIG10", "Fig10Result", "run_fig10", "render_fig10"]

#: Figure 10's scenario at the configuration behind ``benchmarks/output/fig10.txt``;
#: :func:`run_fig10` sweeps its reversion constant for both panels.
FIG10 = ScenarioSpec(
    name="fig10-correlated-failure",
    protocol="push-sum-revert",
    protocol_params={"reversion": 0.1},
    n_hosts=5000,
    rounds=60,
    events=(
        {"event": "failure", "round": 20, "model": "correlated", "fraction": 0.5, "highest": True},
    ),
    seed=0,
    backend="vectorized",
)


@dataclass
class Fig10Result:
    """Error series for both panels of Figure 10."""

    n_hosts: int
    rounds: int
    failure_round: int
    failure_fraction: float
    parcels: int
    history: int
    seed: int
    #: λ → per-round error, basic protocol (panel a).
    basic_errors: Dict[float, List[float]] = field(default_factory=dict)
    #: λ → per-round error, Full-Transfer optimisation (panel b).
    full_transfer_errors: Dict[float, List[float]] = field(default_factory=dict)
    #: per-round correct average (drops at the failure round).
    truths: List[float] = field(default_factory=list)

    # ------------------------------------------------------------- summaries
    def plateau(self, reversion: float, *, full_transfer: bool = False, tail: int = 5) -> float:
        """Mean error over the last ``tail`` rounds for the given variant."""
        series = self.full_transfer_errors if full_transfer else self.basic_errors
        return plateau_error(series[reversion], tail=tail)

    def recovery_rounds(
        self, reversion: float, threshold: float, *, full_transfer: bool = False
    ) -> Optional[int]:
        """Rounds after the failure until the error stays below ``threshold``."""
        series = self.full_transfer_errors if full_transfer else self.basic_errors
        return reconvergence_round(
            series[reversion], threshold, disturbance_round=self.failure_round
        )


def run_fig10(
    spec: ScenarioSpec = FIG10,
    *,
    lambdas: Sequence[float] = DEFAULT_LAMBDAS,
    parcels: int = 4,
    history: int = 3,
    include_full_transfer: bool = True,
    store=None,
) -> Fig10Result:
    """Run both panels of the Figure 10 experiment: ``spec`` once per λ.

    Panel (b) is the same scenario on the ``push-sum-revert-full-transfer``
    protocol (push mode, ``parcels`` parcels, ``history`` rounds).  An
    optional :class:`repro.store.ResultStore` makes regeneration
    incremental — an unchanged checkout serves every curve from the store,
    and any edit to the package re-runs them all.
    """
    failure_round, failure_fraction = failure_of(spec)
    result = Fig10Result(
        n_hosts=spec.n_hosts,
        rounds=spec.rounds,
        failure_round=failure_round,
        failure_fraction=failure_fraction,
        parcels=parcels,
        history=history,
        seed=spec.seed,
    )
    panels = [(spec, result.basic_errors)]
    if include_full_transfer:
        full_transfer = spec.replace(
            protocol="push-sum-revert-full-transfer",
            mode="push",
            protocol_params={
                **spec.protocol_params, "parcels": int(parcels), "history": int(history)
            },
        )
        panels.append((full_transfer, result.full_transfer_errors))
    for panel, errors in panels:
        for variant in reversion_sweep(panel, lambdas).specs():
            run = run_scenario(variant, store=store)
            errors[variant.protocol_params["reversion"]] = run.errors()
            if not result.truths:
                result.truths = run.truths()
    return result


def render_fig10(result: Fig10Result, *, every: int = 5) -> str:
    """Render both panels as aligned tables."""
    rounds_axis = list(range(1, result.rounds + 1))
    basic_series = {
        f"lambda={reversion:g}": errors for reversion, errors in sorted(result.basic_errors.items())
    }
    parts = [
        (
            f"Figure 10(a) — correlated failures, basic Push-Sum-Revert: {result.n_hosts} hosts, "
            f"highest-valued {result.failure_fraction:.0%} removed at round {result.failure_round} "
            "(true average 50 -> 25)\n"
            "Standard deviation from the correct average per gossip round:\n"
        )
        + render_series_table("round", rounds_axis, basic_series, every=every)
    ]
    if result.full_transfer_errors:
        full_series = {
            f"lambda={reversion:g}": errors
            for reversion, errors in sorted(result.full_transfer_errors.items())
        }
        parts.append(
            (
                f"\n\nFigure 10(b) — Full-Transfer optimisation (N={result.parcels} parcels, "
                f"T={result.history} round history):\n"
            )
            + render_series_table("round", rounds_axis, full_series, every=every)
        )
    return "".join(parts)
