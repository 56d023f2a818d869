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
from repro.metrics.convergence import reconvergence_round

__all__ = ["Fig9Result", "run_fig9", "render_fig9", "counting_spec"]


def counting_spec(
    n_hosts: int,
    rounds: int,
    *,
    bins: int,
    bits: int,
    cutoff="default",
    events=(),
    seed: int = 0,
    backend: str = "vectorized",
    name: str = "",
) -> ScenarioSpec:
    """One declarative Count-Sketch-Reset counting scenario.

    ``cutoff`` is a :data:`~repro.api.spec.NAMED_CUTOFFS` name —
    ``"default"`` for the paper's f(k) = 7 + k/4 propagation limiting,
    ``"off"`` for the naive never-decaying variant — or an
    ``[intercept, slope]`` pair for f(k) = intercept + slope·k.
    """
    return ScenarioSpec(
        protocol="count-sketch-reset",
        protocol_params={"bins": int(bins), "bits": int(bits), "cutoff": cutoff},
        workload="constant",
        n_hosts=n_hosts,
        rounds=rounds,
        seed=seed,
        events=events,
        backend=backend,
        name=name,
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


def run_fig9(
    n_hosts: int = 4000,
    *,
    rounds: int = 40,
    failure_round: int = 20,
    failure_fraction: float = 0.5,
    bins: int = 32,
    bits: int = 20,
    seed: int = 0,
    backend: str = "vectorized",
    store=None,
) -> Fig9Result:
    """Run the Figure 9 experiment (scaled to ``n_hosts``).

    Both variants are declarative scenarios executed through the backend
    layer — the same sketch with the propagation-limiting cutoff on
    (``"default"``) and off (``"off"``).  An optional
    :class:`repro.store.ResultStore` makes regeneration incremental.
    """
    if failure_round >= rounds:
        raise ValueError("failure_round must fall inside the simulated rounds")
    failure = {
        "event": "failure",
        "round": failure_round,
        "model": "uncorrelated",
        "fraction": failure_fraction,
    }
    result = Fig9Result(
        n_hosts=n_hosts,
        rounds=rounds,
        failure_round=failure_round,
        failure_fraction=failure_fraction,
        bins=bins,
        bits=bits,
        seed=seed,
    )
    for name, cutoff in (("limited", "default"), ("naive", "off")):
        spec = counting_spec(
            n_hosts,
            rounds,
            bins=bins,
            bits=bits,
            cutoff=cutoff,
            events=(failure,),
            seed=seed,
            backend=backend,
            name=f"fig9 propagation limiting {'on' if name == 'limited' else 'off'}",
        )
        run = run_scenario(spec, store=store)
        if name == "limited":
            result.limited_errors = run.errors()
            result.truths = run.truths()
        else:
            result.naive_errors = run.errors()
    return result


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
