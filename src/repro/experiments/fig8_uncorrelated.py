"""Figure 8: dynamic averaging under uncorrelated failures.

Setup (paper): 100 000 hosts, values uniform on [0, 100), push/pull uniform
gossip; after 20 rounds half the hosts — chosen uniformly at random — are
silently removed; the standard deviation of the hosts' estimates from the
correct average is plotted per round for reversion constants
λ ∈ {0, 0.001, 0.01, 0.1, 0.5}.

Expected shape: because random failures barely move the true average and
remove mass proportionally, *every* λ (including the static protocol λ=0)
converges and stays converged; reversion does no harm when it is not
needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.analysis.render import render_series_table
from repro.api.spec import ScenarioSpec, run_scenario
from repro.api.sweep import Sweep

__all__ = ["FIG8", "Fig8Result", "run_fig8", "render_fig8", "DEFAULT_LAMBDAS"]

#: Reversion constants swept in the paper's figure.
DEFAULT_LAMBDAS: Tuple[float, ...] = (0.0, 0.001, 0.01, 0.1, 0.5)

#: Figure 8's scenario at the configuration behind ``benchmarks/output/fig8.txt``;
#: :func:`run_fig8` sweeps its reversion constant.
FIG8 = ScenarioSpec(
    name="fig8-uncorrelated-failure",
    protocol="push-sum-revert",
    protocol_params={"reversion": 0.01},
    n_hosts=5000,
    rounds=60,
    events=({"event": "failure", "round": 20, "model": "uncorrelated", "fraction": 0.5},),
    seed=0,
    backend="vectorized",
)


def failure_of(spec: ScenarioSpec) -> Tuple[int, float]:
    """The round and fraction of a failure figure's one failure event."""
    failures = [event for event in spec.events if event["event"] == "failure"]
    if len(failures) != 1:
        raise ValueError(f"a failure figure needs exactly one failure event, got {len(failures)}")
    (failure,) = failures
    if failure["round"] >= spec.rounds:
        raise ValueError("the failure round must fall inside the simulated rounds")
    return failure["round"], float(failure["fraction"])


def reversion_sweep(
    spec: ScenarioSpec, lambdas: Sequence[float] = DEFAULT_LAMBDAS, **axes
) -> Sweep:
    """``spec`` swept over the reversion constants ``lambdas`` (plus any further ``axes``)."""
    reversions = [float(reversion) for reversion in lambdas]
    return Sweep.over(spec, **{"protocol_params.reversion": reversions}, **axes)


@dataclass
class Fig8Result:
    """Per-λ error series for the uncorrelated-failure experiment."""

    n_hosts: int
    rounds: int
    failure_round: int
    failure_fraction: float
    seed: int
    #: λ → per-round standard deviation from the correct (current) average.
    errors: Dict[float, List[float]] = field(default_factory=dict)
    #: per-round correct average (same for every λ; recorded once).
    truths: List[float] = field(default_factory=list)

    def final_error(self, reversion: float) -> float:
        """Error at the last round for the given λ."""
        return self.errors[reversion][-1]



def run_fig8(
    spec: ScenarioSpec = FIG8,
    *,
    lambdas: Sequence[float] = DEFAULT_LAMBDAS,
    store=None,
) -> Fig8Result:
    """Run the Figure 8 experiment: ``spec`` once per λ in ``lambdas``.

    Each λ curve is one scenario executed through the backend layer.  With
    a :class:`repro.store.ResultStore`, curves whose spec is unchanged come
    out of the cache instead of re-simulating.
    """
    failure_round, failure_fraction = failure_of(spec)
    result = Fig8Result(
        n_hosts=spec.n_hosts,
        rounds=spec.rounds,
        failure_round=failure_round,
        failure_fraction=failure_fraction,
        seed=spec.seed,
    )
    for variant in reversion_sweep(spec, lambdas).specs():
        run = run_scenario(variant, store=store)
        result.errors[variant.protocol_params["reversion"]] = run.errors()
        if not result.truths:
            result.truths = run.truths()
    return result


def render_fig8(result: Fig8Result, *, every: int = 5) -> str:
    """Render the per-λ error series as an aligned table (one row per round)."""
    rounds_axis = list(range(1, result.rounds + 1))
    series = {f"lambda={reversion:g}": errors for reversion, errors in sorted(result.errors.items())}
    header = (
        f"Figure 8 — uncorrelated failures: {result.n_hosts} hosts, "
        f"{result.failure_fraction:.0%} random hosts removed at round {result.failure_round}\n"
        "Standard deviation from the correct average per gossip round:\n"
    )
    return header + render_series_table("round", rounds_axis, series, every=every)
