"""A light per-round series recorder for hand-driven kernel experiments."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.metrics.accuracy import stddev_from_truth

__all__ = ["SeriesRecorder"]


@dataclass
class SeriesRecorder:
    """Accumulates aligned per-round series (error, truth, population, ...).

    A hand-driven kernel loop has no :class:`~repro.simulator.result.SimulationResult`
    (that is built by the kernel driver, :class:`repro.api.kernel_run.KernelRun`);
    it can record into a :class:`SeriesRecorder` instead, which offers the
    same series accessors the analysis and rendering code expects.
    """

    name: str = "series"
    rounds: List[int] = field(default_factory=list)
    errors: List[float] = field(default_factory=list)
    truths: List[float] = field(default_factory=list)
    mean_estimates: List[float] = field(default_factory=list)
    populations: List[int] = field(default_factory=list)
    extra: Dict[str, List[float]] = field(default_factory=dict)

    def record(
        self,
        round_index: int,
        estimates: Sequence[float],
        truth: float,
        *,
        population: Optional[int] = None,
        **extra_series: float,
    ) -> None:
        """Record one round from raw per-host estimates."""
        arr = np.asarray(list(estimates), dtype=float)
        self.rounds.append(int(round_index))
        self.truths.append(float(truth))
        self.errors.append(stddev_from_truth(arr, truth))
        self.mean_estimates.append(float(arr.mean()) if arr.size else float("nan"))
        self.populations.append(int(population if population is not None else arr.size))
        for key, value in extra_series.items():
            self.extra.setdefault(key, []).append(float(value))

    def record_error(
        self,
        round_index: int,
        error: float,
        truth: float,
        *,
        mean_estimate: float = float("nan"),
        population: int = 0,
        **extra_series: float,
    ) -> None:
        """Record one round from a pre-computed error value."""
        self.rounds.append(int(round_index))
        self.truths.append(float(truth))
        self.errors.append(float(error))
        self.mean_estimates.append(float(mean_estimate))
        self.populations.append(int(population))
        for key, value in extra_series.items():
            self.extra.setdefault(key, []).append(float(value))

    def final_error(self) -> float:
        """Error at the last recorded round."""
        if not self.errors:
            raise ValueError("nothing recorded")
        return self.errors[-1]

    def as_dict(self) -> dict:
        """JSON-friendly dump of all series."""
        payload = {
            "name": self.name,
            "rounds": list(self.rounds),
            "errors": list(self.errors),
            "truths": list(self.truths),
            "mean_estimates": list(self.mean_estimates),
            "populations": list(self.populations),
        }
        payload.update({key: list(values) for key, values in self.extra.items()})
        return payload

    def __len__(self) -> int:
        return len(self.rounds)
