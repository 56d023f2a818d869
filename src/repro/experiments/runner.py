"""Run every experiment and render a combined text report.

Each figure module defines its scenario once, at the configuration behind
the committed ``benchmarks/output/fig*.txt`` (``FIG6`` … ``FIG11``).  The
two profiles here are size overrides of those specs:

* ``quick`` — smaller populations and truncated traces; finishes in
  seconds;
* ``full`` — larger populations (still below the paper's 100 000 hosts; see
  DESIGN.md §4) and full-length traces for all three datasets.

:data:`SCENARIO_PROFILES` holds each profile's specs and
:data:`PROFILE_EXTRAS` the keywords of the two figures whose variant axis
is not a spec field (Fig 6's network sizes, Fig 11's datasets, trace length
and sketch size).  :func:`run_all_experiments` runs exactly those specs;
:func:`scenario_specs` and :func:`lambda_sweep` expose them to tests and
library callers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.api.spec import ScenarioSpec
from repro.api.sweep import Sweep
from repro.experiments.ablations import (
    run_adaptive_lambda_ablation,
    run_cutoff_slope_ablation,
    run_full_transfer_parameter_ablation,
    run_push_vs_pushpull_ablation,
    run_summation_cost_ablation,
)
from repro.experiments.fig6_counter_cdf import FIG6, render_fig6, run_fig6
from repro.experiments.fig8_uncorrelated import FIG8, render_fig8, reversion_sweep, run_fig8
from repro.experiments.fig9_counting_failure import FIG9, render_fig9, run_fig9
from repro.experiments.fig10_correlated import FIG10, render_fig10, run_fig10
from repro.experiments.fig11_traces import FIG11, render_fig11, run_fig11

__all__ = [
    "EXPERIMENTS",
    "ExperimentReport",
    "run_all_experiments",
    "PROFILE_EXTRAS",
    "SCENARIO_PROFILES",
    "scenario_specs",
    "lambda_sweep",
]


#: Each profile's figure specs: the figure modules' scenarios, resized.
SCENARIO_PROFILES: Dict[str, Dict[str, ScenarioSpec]] = {
    "quick": {
        "fig6": FIG6.replace(rounds=25, protocol_params={"bins": 16, "bits": 18}),
        "fig8": FIG8.replace(n_hosts=2000),
        "fig9": FIG9.replace(n_hosts=2000, protocol_params={**FIG9.protocol_params, "bins": 16}),
        "fig10": FIG10.replace(n_hosts=2000),
        "fig11": FIG11,
    },
    "full": {
        "fig6": FIG6.replace(rounds=35, protocol_params={**FIG6.protocol_params, "bits": 22}),
        "fig8": FIG8.replace(n_hosts=50000),
        "fig9": FIG9.replace(n_hosts=20000),
        "fig10": FIG10.replace(n_hosts=50000),
        "fig11": FIG11,
    },
}

#: Keyword extras of the figures whose variant axis is not a spec field.
PROFILE_EXTRAS: Dict[str, Dict[str, dict]] = {
    "quick": {
        "fig6": {"sizes": (500, 2000)},
        "fig11": {"datasets": (1,), "max_hours": 12.0, "bins": 16, "bits": 14},
    },
    "full": {
        "fig6": {"sizes": (1000, 10000, 50000)},
        "fig11": {"datasets": (1, 2, 3), "max_hours": None, "bins": 64, "bits": 16},
    },
}


def scenario_specs(profile: str = "quick") -> Dict[str, ScenarioSpec]:
    """The figure specs of ``profile`` (figure name → spec)."""
    if profile not in SCENARIO_PROFILES:
        raise ValueError(
            f"unknown profile {profile!r}; expected one of {sorted(SCENARIO_PROFILES)}"
        )
    return dict(SCENARIO_PROFILES[profile])


def lambda_sweep(profile: str = "quick", *, figure: str = "fig10", seeds: int = 1) -> Sweep:
    """The paper's reversion-constant sweep for a failure figure, as a grid.

    Expands ``figure``'s scenario over λ ∈ {0, 0.001, 0.01, 0.1, 0.5} (and
    optionally several seeds) — the grid :func:`run_fig8` and
    :func:`run_fig10` run — ready for :class:`~repro.api.SweepRunner`.
    """
    if figure not in ("fig8", "fig10"):
        raise ValueError(f"lambda_sweep supports fig8 and fig10, got {figure!r}")
    axes = {"seed": list(range(seeds))} if seeds > 1 else {}
    return reversion_sweep(scenario_specs(profile)[figure], **axes)


_FIGURE_SECTION = re.compile(r"^fig(\d+)$")


def _section_order(name: str):
    """Sort key placing figure sections in numeric order, then the rest."""
    match = _FIGURE_SECTION.match(name)
    if match:
        return (0, int(match.group(1)), name)
    return (1, 0, name)


#: Every experiment name ``only=`` (and the CLI's ``--only``) accepts.
EXPERIMENTS: Tuple[str, ...] = tuple(
    sorted({name for specs in SCENARIO_PROFILES.values() for name in specs} | {"ablations"},
           key=_section_order)
)


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
        ``"quick"`` or ``"full"`` (see :data:`SCENARIO_PROFILES`).
    only:
        Restrict to a subset of :data:`EXPERIMENTS` (e.g. ``["fig8", "fig10"]``);
        any other name raises :class:`ValueError`.
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
    specs = scenario_specs(profile)
    extras = PROFILE_EXTRAS[profile]
    unknown = sorted(set(only or ()) - {*specs, "ablations"})
    if unknown:
        raise ValueError(
            f"unknown experiment(s) {unknown}; expected some of {list(EXPERIMENTS)}"
        )
    selected = set(only) if only else None

    def wanted(name: str) -> bool:
        return selected is None or name in selected

    report = ExperimentReport(profile=profile)

    def record(name: str, result, render) -> None:
        report.results[name] = result
        report.rendered[name] = render(result)

    if wanted("fig6"):
        record("fig6", run_fig6(specs["fig6"].replace(seed=seed), **extras["fig6"]), render_fig6)
    for name, run, render in (
        ("fig8", run_fig8, render_fig8),
        ("fig9", run_fig9, render_fig9),
        ("fig10", run_fig10, render_fig10),
    ):
        if wanted(name):
            record(name, run(specs[name].replace(seed=seed, backend=backend), store=store), render)
    if wanted("fig11"):
        record(
            "fig11", run_fig11(specs["fig11"].replace(seed=seed), **extras["fig11"]), render_fig11
        )

    if include_ablations and wanted("ablations"):
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
