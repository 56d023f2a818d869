"""Figure 9: dynamic sketch counting under failure.

Setup (paper): 100 000 hosts each holding the value 1 (so the network-wide
sum is the network size); after 20 rounds of gossip half the hosts are
removed; the standard deviation of the hosts' sum estimates from the
correct sum is plotted per round for two protocols:

* "propagation limiting off" — naive sketch counting (bits never decay):
  the estimate stays at the pre-failure size, so once half the hosts leave
  the error jumps to roughly half the original population and never drops;
* "propagation limiting on" — Count-Sketch-Reset with the cutoff
  f(k) = 7 + k/4: the stale bits age out and the estimate returns to the
  surviving population within about 10 rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.analysis.render import render_series_table
from repro.api.spec import ScenarioSpec, run_scenario
from repro.experiments.fig8_uncorrelated import failure_of
from repro.metrics.convergence import reconvergence_round

__all__ = ["FIG9", "Fig9Result", "run_fig9", "render_fig9"]

#: Figure 9's scenario at the configuration behind ``benchmarks/output/fig9.txt``:
#: Count-Sketch-Reset with the paper's cutoff (``"default"``, f(k) = 7 + k/4).
FIG9 = ScenarioSpec(
    name="fig9-counting-failure",
    protocol="count-sketch-reset",
    protocol_params={"bins": 32, "bits": 20, "cutoff": "default"},
    workload="constant",
    n_hosts=5000,
    rounds=40,
    events=({"event": "failure", "round": 20, "model": "uncorrelated", "fraction": 0.5},),
    seed=0,
    backend="vectorized",
)


@dataclass
class Fig9Result:
    """Error series for the counting-under-failure experiment."""

    n_hosts: int
    rounds: int
    failure_round: int
    failure_fraction: float
    bins: int
    bits: int
    seed: int
    #: Count-Sketch-Reset ("propagation limiting on").
    limited_errors: List[float] = field(default_factory=list)
    #: Naive sketch counting ("propagation limiting off").
    naive_errors: List[float] = field(default_factory=list)
    truths: List[float] = field(default_factory=list)

    def recovery_rounds(self, threshold: float) -> Optional[int]:
        """Rounds after the failure for the limited variant to get under ``threshold``."""
        return reconvergence_round(
            self.limited_errors, threshold, disturbance_round=self.failure_round
        )

    def naive_final_error(self) -> float:
        """Final error of the naive variant (stays roughly at the removed population)."""
        return self.naive_errors[-1]

    def limited_final_error(self) -> float:
        """Final error of the cutoff-limited variant."""
        return self.limited_errors[-1]


def run_fig9(spec: ScenarioSpec = FIG9, *, store=None) -> Fig9Result:
    """Run the Figure 9 experiment: ``spec`` with its cutoff, then with ``cutoff="off"``.

    An optional :class:`repro.store.ResultStore` makes regeneration
    incremental.
    """
    failure_round, failure_fraction = failure_of(spec)
    limited = run_scenario(spec, store=store)
    naive = run_scenario(
        spec.replace(protocol_params={**spec.protocol_params, "cutoff": "off"}), store=store
    )
    return Fig9Result(
        n_hosts=spec.n_hosts,
        rounds=spec.rounds,
        failure_round=failure_round,
        failure_fraction=failure_fraction,
        bins=spec.protocol_params["bins"],
        bits=spec.protocol_params["bits"],
        seed=spec.seed,
        limited_errors=limited.errors(),
        naive_errors=naive.errors(),
        truths=limited.truths(),
    )


def render_fig9(result: Fig9Result, *, every: int = 2) -> str:
    """Render both curves as an aligned table."""
    rounds_axis = list(range(1, result.rounds + 1))
    series = {
        "propagation limiting on": result.limited_errors,
        "propagation limiting off": result.naive_errors,
        "correct sum": result.truths,
    }
    header = (
        f"Figure 9 — dynamic counting under failure: {result.n_hosts} hosts each holding 1, "
        f"{result.failure_fraction:.0%} removed at round {result.failure_round}; "
        f"{result.bins} bins x {result.bits} bits, cutoff f(k)=7+k/4\n"
        "Standard deviation from the correct sum per gossip round:\n"
    )
    return header + render_series_table("round", rounds_axis, series, every=every)
