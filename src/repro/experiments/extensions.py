"""Experiments for the extension features (DESIGN.md §6).

These are not figures from the paper; they quantify the behaviours the
extensions add so that their claims are as reproducible as the paper's:

* **Graceful versus silent departure** — how much error each protocol
  family carries after the same set of hosts leaves, with and without the
  chance to sign off.
* **Extrema freshness** — static gossip max versus the freshness-limited
  `ExtremaReset` after the host holding the maximum departs.
* **Loss-rate sweep** — plateau error of Push-Sum-Revert versus
  Count-Sketch-Reset as the Bernoulli message-loss rate grows, a figure
  the paper never ran (its evaluation assumes reliable delivery; the
  network models of :mod:`repro.network` lift that assumption).
* **Rate-heterogeneity sweep** — convergence time in *simulated seconds*
  as the host population splits into fast and slow gossipers, a question
  only the event engine (:mod:`repro.events`) can ask: the paper's
  lockstep rounds force every host onto the same clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.render import render_table
from repro.api.spec import ScenarioSpec, run_scenario

__all__ = [
    "DepartureComparisonResult",
    "run_departure_comparison",
    "render_departure_comparison",
    "ExtremaComparisonResult",
    "run_extrema_comparison",
    "render_extrema_comparison",
    "LossSweepResult",
    "DEFAULT_LOSS_RATES",
    "run_loss_sweep",
    "render_loss_sweep",
    "RateHeterogeneityResult",
    "DEFAULT_RATE_RATIOS",
    "run_rate_heterogeneity_sweep",
    "render_rate_heterogeneity_sweep",
]

#: Loss rates swept by :func:`run_loss_sweep`.
DEFAULT_LOSS_RATES = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


@dataclass
class DepartureComparisonResult:
    """Final errors after a correlated departure, graceful versus silent."""

    n_hosts: int
    rounds: int
    departure_round: int
    #: protocol label → {"silent": error, "graceful": error}
    final_errors: Dict[str, Dict[str, float]] = field(default_factory=dict)


def run_departure_comparison(
    n_hosts: int = 400,
    *,
    rounds: int = 50,
    departure_round: int = 15,
    fraction: float = 0.5,
    seed: int = 0,
) -> DepartureComparisonResult:
    """Compare silent failure against graceful sign-off for three protocols.

    The same highest-valued ``fraction`` leaves at ``departure_round``, once
    as a ``"failure"`` event and once as a ``"graceful-departure"`` event
    (every counting host holds 1, so there the lowest ids leave).
    """
    departure = {"round": departure_round, "model": "correlated", "fraction": fraction,
                 "highest": True}
    common = dict(n_hosts=n_hosts, rounds=rounds, seed=seed, backend="agent")
    protocols = {
        "push-sum (static)": ScenarioSpec(protocol="push-sum", **common),
        "push-sum-revert (lambda=0.1)": ScenarioSpec(
            protocol="push-sum-revert", protocol_params={"reversion": 0.1}, **common),
        "count-sketch-reset": ScenarioSpec(
            protocol="count-sketch-reset", protocol_params={"bins": 16, "bits": 18},
            workload="constant", **common),
    }
    result = DepartureComparisonResult(
        n_hosts=n_hosts, rounds=rounds, departure_round=departure_round
    )
    for label, spec in protocols.items():
        result.final_errors[label] = {
            mode: run_scenario(
                spec.replace(events=({"event": kind, **departure},))
            ).plateau_error(tail=5)
            for mode, kind in (("silent", "failure"), ("graceful", "graceful-departure"))
        }
    return result


def render_departure_comparison(result: DepartureComparisonResult) -> str:
    """Render the graceful-versus-silent comparison as a table."""
    rows = [
        [label, round(errors["silent"], 3), round(errors["graceful"], 3)]
        for label, errors in result.final_errors.items()
    ]
    header = (
        f"Graceful vs silent departure: {result.n_hosts} hosts, highest-valued half "
        f"leaves at round {result.departure_round}; plateau error over the last 5 of "
        f"{result.rounds} rounds\n"
    )
    return header + render_table(["protocol", "silent failure", "graceful sign-off"], rows)


@dataclass
class ExtremaComparisonResult:
    """Error trajectories of static versus freshness-limited extrema gossip."""

    n_hosts: int
    rounds: int
    departure_round: int
    static_errors: List[float] = field(default_factory=list)
    reset_errors: List[float] = field(default_factory=list)

    def static_final(self) -> float:
        return self.static_errors[-1]

    def reset_final(self) -> float:
        return self.reset_errors[-1]


def run_extrema_comparison(
    n_hosts: int = 300,
    *,
    rounds: int = 60,
    departure_round: int = 15,
    cutoff: int = 12,
    seed: int = 0,
) -> ExtremaComparisonResult:
    """Fail the host holding the maximum and compare the two extrema protocols."""
    spec = ScenarioSpec(
        protocol="extrema-gossip", n_hosts=n_hosts, rounds=rounds, seed=seed, backend="agent"
    )
    top_host = int(np.argmax(spec.build_values()))
    spec = spec.replace(events=({"event": "failure", "round": departure_round,
                                 "model": "explicit", "host_ids": [top_host]},))
    return ExtremaComparisonResult(
        n_hosts=n_hosts,
        rounds=rounds,
        departure_round=departure_round,
        static_errors=run_scenario(spec).errors(),
        reset_errors=run_scenario(
            spec.replace(protocol="extrema-reset", protocol_params={"cutoff": cutoff})
        ).errors(),
    )


@dataclass
class LossSweepResult:
    """Plateau error versus Bernoulli loss rate, per dynamic protocol."""

    n_hosts: int
    rounds: int
    loss_rates: Tuple[float, ...]
    reversion: float
    #: protocol label → {loss rate → plateau error as a fraction of truth}
    relative_plateau: Dict[str, Dict[float, float]] = field(default_factory=dict)
    #: protocol label → execution backend the sweep resolved to
    backends: Dict[str, str] = field(default_factory=dict)


def run_loss_sweep(
    n_hosts: int = 400,
    *,
    rounds: int = 50,
    loss_rates: Sequence[float] = DEFAULT_LOSS_RATES,
    reversion: float = 0.05,
    bins: int = 16,
    bits: int = 18,
    cutoff: str = "slow",
    seed: int = 0,
    tail: int = 5,
) -> LossSweepResult:
    """Sweep the Bernoulli loss rate for the paper's two dynamic protocols.

    Both protocols run in push mode, where a lost message genuinely
    destroys its content: Push-Sum-Revert bleeds mass (the reversion step
    continuously re-mints it, which is why it tolerates loss at all) and
    Count-Sketch-Reset drops counter arrays — harmless until loss slows
    propagation past the freshness cutoff, at which point live hosts'
    counters start expiring and the estimate collapses.  The defaults
    reflect push-only gossip: λ = 0.05 (push mixes slower than push/pull,
    so the paper's λ = 0.1 leaves a large reversion noise floor) and the
    ``"slow"`` (2×) cutoff, without which the sketch cannot even converge
    losslessly one-way.  Plateau errors are reported relative to each
    protocol's truth so an averaging protocol over [0, 100) values and a
    counting protocol over ``n_hosts`` hosts are comparable.  ``loss=0``
    is the paper's (perfect-network) regime.  Backends are pinned per
    protocol — the lossy Push-Sum-Revert kernel and the agent engine for
    the sketch — so every row of a column comes from one engine.
    """
    base = {
        "push-sum-revert": ScenarioSpec(
            protocol="push-sum-revert",
            protocol_params={"reversion": reversion},
            mode="push",
            n_hosts=n_hosts,
            rounds=rounds,
            seed=seed,
            backend="vectorized",
            name="loss-sweep-push-sum-revert",
        ),
        "count-sketch-reset": ScenarioSpec(
            protocol="count-sketch-reset",
            protocol_params={"bins": bins, "bits": bits, "cutoff": cutoff},
            workload="constant",
            mode="push",
            n_hosts=n_hosts,
            rounds=rounds,
            seed=seed,
            backend="agent",
            name="loss-sweep-count-sketch-reset",
        ),
    }
    result = LossSweepResult(
        n_hosts=n_hosts,
        rounds=rounds,
        loss_rates=tuple(float(rate) for rate in loss_rates),
        reversion=reversion,
    )
    for label, spec in base.items():
        result.backends[label] = spec.backend
        per_rate: Dict[float, float] = {}
        for rate in result.loss_rates:
            lossy = spec if rate == 0.0 else spec.replace(
                network="bernoulli-loss", network_params={"p": rate}
            )
            run = run_scenario(lossy)
            truth = abs(run.final_truth()) or 1.0
            per_rate[rate] = run.plateau_error(tail=tail) / truth
        result.relative_plateau[label] = per_rate
    return result


def render_loss_sweep(result: LossSweepResult) -> str:
    """Render the loss-rate sweep as a table (plateau error in % of truth)."""
    labels = list(result.relative_plateau)
    rows = [
        [f"{rate:g}"] + [
            round(100.0 * result.relative_plateau[label][rate], 3) for label in labels
        ]
        for rate in result.loss_rates
    ]
    header = (
        f"Plateau error vs Bernoulli message-loss rate: {result.n_hosts} hosts, "
        f"push gossip, {result.rounds} rounds (plateau = mean error over the last "
        f"rounds, in % of the true aggregate).\n"
        f"Push-Sum-Revert (lambda={result.reversion:g}) re-mints lost mass through "
        "reversion; Count-Sketch-Reset re-announces identifiers every round.\n"
    )
    return header + render_table(
        ["loss rate"] + [f"{label} (% err)" for label in labels], rows
    )


#: Fast:slow gossip-rate ratios swept by :func:`run_rate_heterogeneity_sweep`.
DEFAULT_RATE_RATIOS = (1.0, 2.0, 4.0, 8.0, 16.0)


@dataclass
class RateHeterogeneityResult:
    """Convergence time (simulated seconds) versus fast:slow rate ratio."""

    n_hosts: int
    duration: float
    ratios: Tuple[float, ...]
    threshold: float
    sustained: int
    #: protocol label → {ratio → simulated seconds to convergence, or None}
    convergence_seconds: Dict[str, Dict[float, float]] = field(default_factory=dict)
    #: protocol label → {ratio → final error as a fraction of truth}
    relative_final: Dict[str, Dict[float, float]] = field(default_factory=dict)


def _convergence_time(result, threshold: float, sustained: int):
    """Simulated time of the first record opening a sustained sub-threshold run.

    :meth:`SimulationResult.convergence_round` with ``relative=True``, read
    on the ``time`` axis rate heterogeneity distorts (an event run's round
    index is its record's position).  ``None`` when the run never converges.
    """
    first = result.convergence_round(threshold, relative=True, sustained=sustained)
    return None if first is None else result.rounds[first].time


def run_rate_heterogeneity_sweep(
    n_hosts: int = 400,
    *,
    duration: float = 60.0,
    ratios: Sequence[float] = DEFAULT_RATE_RATIOS,
    reversion: float = 0.05,
    bins: int = 16,
    bits: int = 18,
    cutoff: str = "slow",
    threshold: float = 0.05,
    sustained: int = 3,
    seed: int = 0,
) -> RateHeterogeneityResult:
    """Sweep the fast:slow gossip-rate ratio on the event engine.

    Half the hosts gossip at 1 Hz, the other half at ``1/ratio`` Hz
    (``ratio=1`` is the homogeneous baseline), exchanging over a perfect
    network on the continuous-time calendar of :mod:`repro.events`.  The
    question is how unevenly-paced gossip stretches convergence *in
    simulated seconds*: slow hosts initiate exchanges rarely, but fast
    initiators still pull them toward the average when sampling them as
    responders, so time-to-converge should grow far slower than the slow
    hosts' period alone suggests.  Count-Sketch-Reset ages its sketches
    per *local* tick, so its freshness cutoff also dilates with the slow
    hosts' clocks — the sweep shows whether that keeps the estimate
    stable.  Convergence is the first time the error stays below
    ``threshold`` × truth for ``sustained`` consecutive one-second
    samples.
    """
    base = {
        "push-sum-revert": ScenarioSpec(
            protocol="push-sum-revert",
            protocol_params={"reversion": reversion},
            mode="exchange",
            n_hosts=n_hosts,
            rounds=int(duration),
            seed=seed,
            engine="events",
            backend="agent",
            name="rate-heterogeneity-push-sum-revert",
        ),
        "count-sketch-reset": ScenarioSpec(
            protocol="count-sketch-reset",
            protocol_params={"bins": bins, "bits": bits, "cutoff": cutoff},
            workload="constant",
            mode="exchange",
            n_hosts=n_hosts,
            rounds=int(duration),
            seed=seed,
            engine="events",
            backend="agent",
            name="rate-heterogeneity-count-sketch-reset",
        ),
    }
    result = RateHeterogeneityResult(
        n_hosts=n_hosts,
        duration=float(duration),
        ratios=tuple(float(ratio) for ratio in ratios),
        threshold=float(threshold),
        sustained=int(sustained),
    )
    for label, spec in base.items():
        per_ratio_time: Dict[float, float] = {}
        per_ratio_final: Dict[float, float] = {}
        for ratio in result.ratios:
            if ratio < 1.0:
                raise ValueError(f"rate ratios must be >= 1, got {ratio}")
            swept = spec.replace(
                engine_params={
                    "duration": float(duration),
                    "sample_interval": 1.0,
                    "synchronized": False,
                    "rates": {  # the default split: half fast, half slow
                        "distribution": "heterogeneous",
                        "fast": 1.0,
                        "slow": 1.0 / ratio,
                    },
                },
            )
            run = run_scenario(swept)
            per_ratio_time[ratio] = _convergence_time(run, result.threshold, result.sustained)
            truth = abs(run.final_truth()) or 1.0
            per_ratio_final[ratio] = run.final_error() / truth
        result.convergence_seconds[label] = per_ratio_time
        result.relative_final[label] = per_ratio_final
    return result


def render_rate_heterogeneity_sweep(result: RateHeterogeneityResult) -> str:
    """Render the rate-heterogeneity sweep as a table (simulated seconds)."""
    labels = list(result.convergence_seconds)

    def _cell(value) -> str:
        return "-" if value is None else f"{value:g}"

    rows = [
        [f"{ratio:g}"]
        + [_cell(result.convergence_seconds[label][ratio]) for label in labels]
        + [round(100.0 * result.relative_final[label][ratio], 3) for label in labels]
        for ratio in result.ratios
    ]
    header = (
        f"Convergence time vs gossip-rate heterogeneity: {result.n_hosts} hosts on the "
        f"event engine, half at 1 Hz and half at 1/ratio Hz, exchange gossip for "
        f"{result.duration:g} simulated seconds.\n"
        f"Convergence = first time the error stays below {100 * result.threshold:g}% of "
        f"truth for {result.sustained} consecutive 1 s samples ('-' = never).\n"
    )
    return header + render_table(
        ["fast:slow"]
        + [f"{label} (s)" for label in labels]
        + [f"{label} (% err)" for label in labels],
        rows,
    )


def render_extrema_comparison(result: ExtremaComparisonResult) -> str:
    """Render final errors of the extrema comparison."""
    rows = [
        ["extrema-gossip (static)", round(result.static_final(), 3)],
        ["extrema-reset (freshness cutoff)", round(result.reset_final(), 3)],
    ]
    header = (
        f"Extrema after the maximum departs: {result.n_hosts} hosts, the host holding "
        f"the maximum leaves at round {result.departure_round}; error at round {result.rounds}\n"
    )
    return header + render_table(["protocol", "final error"], rows)
