"""Run every experiment and render a combined text report.

Two profiles are provided:

* ``quick`` — small populations and truncated traces; finishes in a couple
  of minutes and is what the benchmark suite and CI exercise;
* ``full`` — larger populations (still below the paper's 100 000 hosts; see
  DESIGN.md §4) and full-length traces for all three datasets.

Since the declarative scenario API landed, the profiles are defined as
:class:`~repro.api.ScenarioSpec` grids (:data:`SCENARIO_PROFILES`): each
figure's engine-level scenario is written down once as plain data, and the
keyword dicts the vectorised figure runners consume (:data:`PROFILES`)
derive their shared numbers — population, rounds, sketch geometry — from
those specs.  :func:`scenario_specs` and :func:`lambda_sweep` expose the
same definitions to the CLI's ``run``/``sweep`` subcommands and to tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.api.spec import ScenarioSpec
from repro.api.sweep import Sweep
from repro.experiments.ablations import (
    run_adaptive_lambda_ablation,
    run_cutoff_slope_ablation,
    run_full_transfer_parameter_ablation,
    run_push_vs_pushpull_ablation,
    run_summation_cost_ablation,
)
from repro.experiments.fig6_counter_cdf import render_fig6, run_fig6
from repro.experiments.fig8_uncorrelated import DEFAULT_LAMBDAS, render_fig8, run_fig8
from repro.experiments.fig9_counting_failure import render_fig9, run_fig9
from repro.experiments.fig10_correlated import render_fig10, run_fig10
from repro.experiments.fig11_traces import render_fig11, run_fig11

__all__ = [
    "ExperimentReport",
    "run_all_experiments",
    "PROFILES",
    "SCENARIO_PROFILES",
    "scenario_specs",
    "lambda_sweep",
]

#: The round at which the paper's failure figures remove half the hosts.
FAILURE_ROUND = 20

_HALF_UNCORRELATED = {
    "event": "failure",
    "round": FAILURE_ROUND,
    "model": "uncorrelated",
    "fraction": 0.5,
}
_HALF_CORRELATED = {
    "event": "failure",
    "round": FAILURE_ROUND,
    "model": "correlated",
    "fraction": 0.5,
    "highest": True,
}

#: Engine-level scenario definitions per profile — the declarative source of
#: truth for the population sizes and round counts used everywhere below.
SCENARIO_PROFILES: Dict[str, Dict[str, ScenarioSpec]] = {
    "quick": {
        "fig8": ScenarioSpec(
            name="fig8-uncorrelated-failure",
            protocol="push-sum-revert",
            protocol_params={"reversion": 0.01},
            n_hosts=2000,
            rounds=60,
            events=(_HALF_UNCORRELATED,),
        ),
        "fig9": ScenarioSpec(
            name="fig9-counting-failure",
            protocol="count-sketch-reset",
            protocol_params={"bins": 16, "bits": 20, "cutoff": "default"},
            workload="constant",
            n_hosts=2000,
            rounds=40,
            events=(_HALF_UNCORRELATED,),
        ),
        "fig10": ScenarioSpec(
            name="fig10-correlated-failure",
            protocol="push-sum-revert",
            protocol_params={"reversion": 0.1},
            n_hosts=2000,
            rounds=60,
            events=(_HALF_CORRELATED,),
        ),
        "fig11": ScenarioSpec(
            name="fig11-trace-dataset-1",
            protocol="push-sum-revert",
            protocol_params={"reversion": 0.01},
            environment="trace",
            environment_params={"dataset": 1},
            workload_params={"seed": 1},
            n_hosts=9,
            rounds=12 * 120,  # 12 hours of 30-second rounds
            group_relative=True,
        ),
    },
    "full": {
        "fig8": ScenarioSpec(
            name="fig8-uncorrelated-failure",
            protocol="push-sum-revert",
            protocol_params={"reversion": 0.01},
            n_hosts=50000,
            rounds=60,
            events=(_HALF_UNCORRELATED,),
        ),
        "fig9": ScenarioSpec(
            name="fig9-counting-failure",
            protocol="count-sketch-reset",
            protocol_params={"bins": 32, "bits": 20, "cutoff": "default"},
            workload="constant",
            n_hosts=20000,
            rounds=40,
            events=(_HALF_UNCORRELATED,),
        ),
        "fig10": ScenarioSpec(
            name="fig10-correlated-failure",
            protocol="push-sum-revert",
            protocol_params={"reversion": 0.1},
            n_hosts=50000,
            rounds=60,
            events=(_HALF_CORRELATED,),
        ),
        "fig11": ScenarioSpec(
            name="fig11-trace-dataset-1",
            protocol="push-sum-revert",
            protocol_params={"reversion": 0.01},
            environment="trace",
            environment_params={"dataset": 1},
            workload_params={"seed": 1},
            n_hosts=9,
            rounds=90 * 120,  # the full 90-hour dataset-1 trace
            group_relative=True,
        ),
    },
}

#: Keyword dicts consumed by the vectorised figure runners.  Populations and
#: round counts come from the scenario specs above so the two views of each
#: profile cannot drift apart; sketch-CDF (fig6) and multi-dataset trace
#: (fig11) settings have no engine-level counterpart and stay literal.
PROFILES: Dict[str, Dict[str, dict]] = {
    "quick": {
        "fig6": {"sizes": (500, 2000), "bins": 16, "bits": 18, "convergence_rounds": 25},
        "fig8": {
            "n_hosts": SCENARIO_PROFILES["quick"]["fig8"].n_hosts,
            "rounds": SCENARIO_PROFILES["quick"]["fig8"].rounds,
        },
        "fig9": {
            "n_hosts": SCENARIO_PROFILES["quick"]["fig9"].n_hosts,
            "rounds": SCENARIO_PROFILES["quick"]["fig9"].rounds,
            "bins": SCENARIO_PROFILES["quick"]["fig9"].protocol_params["bins"],
        },
        "fig10": {
            "n_hosts": SCENARIO_PROFILES["quick"]["fig10"].n_hosts,
            "rounds": SCENARIO_PROFILES["quick"]["fig10"].rounds,
        },
        "fig11": {"datasets": (1,), "max_hours": 12.0, "bins": 16, "bits": 14},
    },
    "full": {
        "fig6": {"sizes": (1000, 10000, 50000), "bins": 32, "bits": 22, "convergence_rounds": 35},
        "fig8": {
            "n_hosts": SCENARIO_PROFILES["full"]["fig8"].n_hosts,
            "rounds": SCENARIO_PROFILES["full"]["fig8"].rounds,
        },
        "fig9": {
            "n_hosts": SCENARIO_PROFILES["full"]["fig9"].n_hosts,
            "rounds": SCENARIO_PROFILES["full"]["fig9"].rounds,
            "bins": SCENARIO_PROFILES["full"]["fig9"].protocol_params["bins"],
        },
        "fig10": {
            "n_hosts": SCENARIO_PROFILES["full"]["fig10"].n_hosts,
            "rounds": SCENARIO_PROFILES["full"]["fig10"].rounds,
        },
        "fig11": {"datasets": (1, 2, 3), "max_hours": None, "bins": 64, "bits": 16},
    },
}


def scenario_specs(profile: str = "quick") -> Dict[str, ScenarioSpec]:
    """The engine-level scenario specs of ``profile`` (figure name → spec)."""
    if profile not in SCENARIO_PROFILES:
        raise ValueError(
            f"unknown profile {profile!r}; expected one of {sorted(SCENARIO_PROFILES)}"
        )
    return dict(SCENARIO_PROFILES[profile])


def lambda_sweep(profile: str = "quick", *, figure: str = "fig10", seeds: int = 1) -> Sweep:
    """The paper's reversion-constant sweep for a failure figure, as a grid.

    Expands ``figure``'s scenario over λ ∈ {0, 0.001, 0.01, 0.1, 0.5} (and
    optionally several seeds), ready for
    :class:`~repro.api.SweepRunner`.
    """
    specs = scenario_specs(profile)
    if figure not in ("fig8", "fig10"):
        raise ValueError(f"lambda_sweep supports fig8 and fig10, got {figure!r}")
    axes = {"protocol_params.reversion": list(DEFAULT_LAMBDAS)}
    if seeds > 1:
        axes["seed"] = list(range(seeds))
    return Sweep.over(specs[figure], **axes)


_FIGURE_SECTION = re.compile(r"^fig(\d+)$")


def _section_order(name: str):
    """Sort key placing figure sections in numeric order, then the rest."""
    match = _FIGURE_SECTION.match(name)
    if match:
        return (0, int(match.group(1)), name)
    return (1, 0, name)


@dataclass
class ExperimentReport:
    """Results and rendered text for every experiment that was run."""

    profile: str
    results: Dict[str, object] = field(default_factory=dict)
    rendered: Dict[str, str] = field(default_factory=dict)

    def section_names(self) -> List[str]:
        """Rendered section names, figures in numeric order (fig6 before fig10)."""
        return sorted(self.rendered, key=_section_order)

    def text(self) -> str:
        """The full report as one string (what the CLI prints)."""
        sections: List[str] = [f"# Experiment report (profile: {self.profile})"]
        for name in self.section_names():
            sections.append(f"\n## {name}\n\n{self.rendered[name]}")
        return "\n".join(sections)


def run_all_experiments(
    profile: str = "quick",
    *,
    seed: int = 0,
    only: Optional[List[str]] = None,
    include_ablations: bool = True,
    backend: str = "vectorized",
    store=None,
) -> ExperimentReport:
    """Run the selected experiments and return their results plus rendered text.

    Parameters
    ----------
    profile:
        ``"quick"`` or ``"full"`` (see :data:`PROFILES`).
    only:
        Restrict to a subset of experiment names (e.g. ``["fig8", "fig10"]``).
    include_ablations:
        Also run the DESIGN.md §6 ablations (cheap; included by default).
    backend:
        Execution backend for the uniform-gossip figures (fig8/9/10):
        ``"vectorized"`` (default), ``"agent"`` or ``"auto"``.  Fig 6 reads
        raw kernel state and always runs vectorised; Fig 11 replays contact
        traces and always runs on the agent engine.
    store:
        Optional :class:`repro.store.ResultStore`; the scenario-backed
        figures (fig8/9/10) then serve unchanged curves from the cache, so
        regenerating the report after touching one protocol re-simulates
        only the affected figures.  Fig 6 (raw kernel state), Fig 11 and
        the ablations (scenarios run without a store) always execute.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {sorted(PROFILES)}")
    config = PROFILES[profile]
    selected = set(only) if only else None

    def wanted(name: str) -> bool:
        return selected is None or name in selected

    report = ExperimentReport(profile=profile)

    if wanted("fig6"):
        result = run_fig6(seed=seed, **config["fig6"])
        report.results["fig6"] = result
        report.rendered["fig6"] = render_fig6(result)
    if wanted("fig8"):
        result = run_fig8(seed=seed, backend=backend, store=store, **config["fig8"])
        report.results["fig8"] = result
        report.rendered["fig8"] = render_fig8(result)
    if wanted("fig9"):
        result = run_fig9(seed=seed, backend=backend, store=store, **config["fig9"])
        report.results["fig9"] = result
        report.rendered["fig9"] = render_fig9(result)
    if wanted("fig10"):
        result = run_fig10(seed=seed, backend=backend, store=store, **config["fig10"])
        report.results["fig10"] = result
        report.rendered["fig10"] = render_fig10(result)
    if wanted("fig11"):
        result = run_fig11(seed=seed, **config["fig11"])
        report.results["fig11"] = result
        report.rendered["fig11"] = render_fig11(result)

    if include_ablations and (selected is None or "ablations" in selected):
        ablations = {
            "push-vs-pushpull": run_push_vs_pushpull_ablation(seed=seed),
            "adaptive-lambda": run_adaptive_lambda_ablation(seed=seed),
            "full-transfer-parameters": run_full_transfer_parameter_ablation(seed=seed),
            "cutoff-slope": run_cutoff_slope_ablation(seed=seed),
            "summation-cost": run_summation_cost_ablation(),
        }
        report.results["ablations"] = ablations
        report.rendered["ablations"] = "\n\n".join(
            ablation.render() for ablation in ablations.values()
        )
    return report
