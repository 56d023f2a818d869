"""Figure 11: dynamic averaging and summation on contact traces.

The paper replays the three CRAWDAD Cambridge/Haggle traces (9, 12 and 41
devices carried by people over several days), with one gossip round every
30 seconds of simulated time.  A host's error is measured against the
aggregate of its *group* — everybody reachable from it over the union of
the edges seen in the last 10 minutes — and plotted hour by hour, with the
average group size overlaid for reference.  Two aggregates are shown per
dataset:

* **dynamic average** — Push-Sum-Revert with λ ∈ {0, 0.001, 0.01}; the
  reversion-enabled variants track the changing group average, while λ = 0
  (static Push-Sum) drifts whenever groups change;
* **dynamic sum (group size)** — Count-Sketch-Reset with 100 identifiers
  per device and the freshness cutoff off / on / slowed; with the cutoff
  the estimate tracks the running group size within roughly half its value,
  while the cutoff-free (static) sketch only ever grows.

This module replays *synthetic* Haggle-like traces (see
:mod:`repro.mobility.synthetic_haggle` and DESIGN.md §4) with the same
device counts and the same experimental procedure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.render import render_series_table
from repro.api.spec import ScenarioSpec, run_scenario
from repro.mobility.synthetic_haggle import haggle_dataset

__all__ = ["FIG11", "Fig11DatasetResult", "Fig11Result", "run_fig11", "render_fig11"]

#: Reversion constants used for the averaging panels.
DEFAULT_AVERAGE_LAMBDAS: Tuple[float, ...] = (0.0, 0.001, 0.01)

#: The three cutoff settings of the "dynamic sum" panels, as spec cutoffs
#: (:data:`~repro.api.spec.NAMED_CUTOFFS` names or ``[intercept, slope]`` pairs).
DEFAULT_SIZE_VARIANTS: Dict[str, object] = {
    "reversion off": "off",
    "reversion on": "default",
    "reversion slow": "slow",
}

#: Figure 11's trace scenario: one gossip round per 30 s, errors against
#: the group seen over the last 10 minutes.  :func:`run_fig11` sets the
#: dataset, its device count, its length and the protocol per variant.  The
#: agent engine is pinned: ``"auto"`` would resolve to the kernels, which
#: agree statistically but not bit for bit (DESIGN.md §7).
FIG11 = ScenarioSpec(
    name="fig11-trace",
    protocol="push-sum-revert",
    environment="trace",
    environment_params={"dataset": 1, "round_seconds": 30.0, "group_window_seconds": 600.0},
    n_hosts=9,
    seed=0,
    group_relative=True,
    backend="agent",
)


@dataclass
class Fig11DatasetResult:
    """Hourly series for one dataset (one row of the paper's figure)."""

    dataset: int
    n_devices: int
    trace_name: str
    rounds: int
    round_seconds: float
    hours: List[float] = field(default_factory=list)
    #: hourly mean group size ("Avg Group Size" reference series).
    group_size: List[float] = field(default_factory=list)
    #: label (e.g. "lambda=0.01") → hourly group-relative error of the average.
    average_errors: Dict[str, List[float]] = field(default_factory=dict)
    #: label (e.g. "reversion on") → hourly group-relative error of the size estimate.
    size_errors: Dict[str, List[float]] = field(default_factory=dict)

    def mean_error(self, label: str, *, size: bool = False) -> float:
        """Mean hourly error over the whole trace for one variant."""
        series = self.size_errors[label] if size else self.average_errors[label]
        return float(np.nanmean(series))


@dataclass
class Fig11Result:
    """Results for every dataset replayed."""

    round_seconds: float
    group_window_seconds: float
    identifiers_per_host: int
    bins: int
    bits: int
    seed: int
    datasets: Dict[int, Fig11DatasetResult] = field(default_factory=dict)


def _hourly(series: Sequence[float], rounds_per_hour: int) -> List[float]:
    """Aggregate a per-round series into hourly means (NaN-safe)."""
    values = np.asarray(list(series), dtype=float)
    hourly: List[float] = []
    for start in range(0, values.size, rounds_per_hour):
        block = values[start : start + rounds_per_hour]
        finite = block[np.isfinite(block)]
        hourly.append(float(finite.mean()) if finite.size else float("nan"))
    return hourly


def run_fig11(
    spec: ScenarioSpec = FIG11,
    *,
    datasets: Sequence[int] = (1, 2),
    average_lambdas: Sequence[float] = DEFAULT_AVERAGE_LAMBDAS,
    max_hours: Optional[float] = 24.0,
    bins: int = 32,
    bits: int = 16,
    identifiers_per_host: int = 100,
) -> Fig11Result:
    """Replay the trace-driven experiment for the requested datasets.

    Every variant is ``spec`` on one dataset: Push-Sum-Revert in exchange
    mode per λ in ``average_lambdas``, and Count-Sketch-Reset per cutoff in
    :data:`DEFAULT_SIZE_VARIANTS`, all over the same values (seed
    ``spec.seed + dataset``).  ``max_hours`` truncates each trace (``None``
    replays it in full).  ``spec.replace(backend="vectorized")`` replays
    the same traces on the NumPy kernels, every variant of a dataset over
    one memoised compiled trace (DESIGN.md §7 "Trace replay as a
    time-varying CSR") — statistically equivalent but not bit-identical to
    the agent default (DESIGN.md §7 "Kernel semantics deltas"), and the
    route for large synthetic device counts.
    """
    if spec.backend not in ("agent", "vectorized"):
        raise ValueError(
            f"unknown fig11 backend {spec.backend!r}; expected 'agent' or 'vectorized'"
        )
    round_seconds = float(spec.environment_params["round_seconds"])
    result = Fig11Result(
        round_seconds=round_seconds,
        group_window_seconds=float(spec.environment_params["group_window_seconds"]),
        identifiers_per_host=identifiers_per_host,
        bins=bins,
        bits=bits,
        seed=spec.seed,
    )
    rounds_per_hour = max(1, int(round(3600.0 / round_seconds)))
    sketch = {"bins": bins, "bits": bits, "identifiers_per_host": identifiers_per_host}
    for dataset in datasets:
        trace = haggle_dataset(dataset)
        total_rounds = int(trace.duration // round_seconds) + 1
        if max_hours is not None:
            total_rounds = min(total_rounds, int(max_hours * rounds_per_hour))
        base = spec.replace(
            environment_params={**spec.environment_params, "dataset": dataset},
            workload_params={"seed": spec.seed + dataset},
            n_hosts=trace.n_devices,
            rounds=total_rounds,
        )
        dataset_result = Fig11DatasetResult(
            dataset=dataset,
            n_devices=trace.n_devices,
            trace_name=trace.name,
            rounds=total_rounds,
            round_seconds=round_seconds,
        )
        variant_runs = [
            (dataset_result.average_errors, f"lambda={reversion:g}",
             base.replace(protocol_params={"reversion": float(reversion)}))
            for reversion in average_lambdas
        ] + [
            (dataset_result.size_errors, label,
             base.replace(protocol="count-sketch-reset",
                          protocol_params={**sketch, "cutoff": cutoff}))
            for label, cutoff in DEFAULT_SIZE_VARIANTS.items()
        ]
        group_size_series: Optional[List[float]] = None
        for errors, label, variant in variant_runs:
            run = run_scenario(variant)
            errors[label] = _hourly(run.errors(), rounds_per_hour)
            if group_size_series is None:
                group_size_series = [
                    float("nan") if record.group_sizes is None else record.group_sizes
                    for record in run.rounds
                ]
        dataset_result.group_size = _hourly(group_size_series or [], rounds_per_hour)
        dataset_result.hours = [float(hour) for hour in range(len(dataset_result.group_size))]
        result.datasets[int(dataset)] = dataset_result
    return result


def render_fig11(result: Fig11Result, *, every: int = 2) -> str:
    """Render one averaging table and one size table per dataset."""
    blocks: List[str] = []
    for dataset, data in sorted(result.datasets.items()):
        average_series = {"avg group size": data.group_size}
        average_series.update(data.average_errors)
        blocks.append(
            (
                f"Figure 11 — dataset {dataset} ({data.n_devices} devices, "
                f"{data.trace_name}): dynamic average, hourly std-dev from the group average\n"
            )
            + render_series_table("hour", data.hours, average_series, every=every)
        )
        size_series = {"avg group size": data.group_size}
        size_series.update(data.size_errors)
        blocks.append(
            (
                f"\nFigure 11 — dataset {dataset}: dynamic size/sum "
                f"({result.identifiers_per_host} identifiers per device), hourly std-dev from the group size\n"
            )
            + render_series_table("hour", data.hours, size_series, every=every)
        )
    return "\n\n".join(blocks)
