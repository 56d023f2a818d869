"""Prebuilt experiment scenarios matching the paper's evaluation setups.

A :class:`Scenario` bundles everything about a run *except* the protocol
under test: the host population and values, the gossip environment, the
scheduled membership events, the number of rounds and how errors should be
measured.  The experiment harness then instantiates the same scenario for
each protocol variant being compared (e.g. every reversion constant λ),
which guarantees the comparisons differ only in the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.environments import TraceEnvironment, UniformEnvironment
from repro.failures import CorrelatedFailure, FailureEvent, UncorrelatedFailure
from repro.mobility import haggle_dataset
from repro.workloads.values import constant_values, uniform_values

__all__ = [
    "Scenario",
    "uncorrelated_failure_scenario",
    "correlated_failure_scenario",
    "counting_failure_scenario",
    "trace_scenario",
]


@dataclass
class Scenario:
    """Everything about an experiment run except the protocol.

    Attributes
    ----------
    name:
        Scenario label used in result tables.
    values:
        Initial host values (one host per entry).
    environment_factory:
        Zero-argument callable building a fresh gossip environment.  A fresh
        environment per run keeps caches and registration state independent
        across the protocol variants being compared.
    events:
        Scheduled failure/join events.
    rounds:
        Number of gossip rounds to simulate.
    mode:
        Engine mode, ``"push"`` or ``"exchange"``.
    group_relative:
        Whether errors are measured against each host's group (trace runs).
    description:
        Human-readable summary recorded in results.
    """

    name: str
    values: List[float]
    environment_factory: Callable[[], object]
    events: List[object] = field(default_factory=list)
    rounds: int = 60
    mode: str = "exchange"
    group_relative: bool = False
    description: str = ""

    @property
    def n_hosts(self) -> int:
        """Initial population size."""
        return len(self.values)

    def build_environment(self):
        """A fresh environment instance for one run."""
        return self.environment_factory()

    def describe(self) -> dict:
        """A JSON-friendly description of the scenario (name, size, schedule)."""
        return {
            "name": self.name,
            "n_hosts": self.n_hosts,
            "rounds": self.rounds,
            "mode": self.mode,
            "group_relative": self.group_relative,
            "events": [event.describe() for event in self.events if hasattr(event, "describe")],
            "description": self.description,
        }


def uncorrelated_failure_scenario(
    n_hosts: int = 10_000,
    *,
    failure_round: int = 20,
    failure_fraction: float = 0.5,
    rounds: int = 60,
    seed: int = 0,
    mode: str = "exchange",
) -> Scenario:
    """Fig 8: uniform values, uniform gossip, 50 % random hosts fail at round 20."""
    values = uniform_values(n_hosts, seed=seed)
    events = [
        FailureEvent(round=failure_round, model=UncorrelatedFailure(failure_fraction))
    ]
    return Scenario(
        name="uncorrelated-failure",
        values=values,
        environment_factory=lambda: UniformEnvironment(n_hosts),
        events=events,
        rounds=rounds,
        mode=mode,
        description=(
            f"{n_hosts} hosts, values U[0,100), uniform gossip; "
            f"{failure_fraction:.0%} random hosts removed at round {failure_round}"
        ),
    )


def correlated_failure_scenario(
    n_hosts: int = 10_000,
    *,
    failure_round: int = 20,
    failure_fraction: float = 0.5,
    rounds: int = 60,
    seed: int = 0,
    mode: str = "exchange",
) -> Scenario:
    """Fig 10: as Fig 8 but the *highest-valued* half of the hosts fails.

    With values uniform on [0, 100) the true average drops from ≈50 to ≈25
    at the failure round, which static Push-Sum never notices.
    """
    values = uniform_values(n_hosts, seed=seed)
    events = [
        FailureEvent(round=failure_round, model=CorrelatedFailure(failure_fraction, highest=True))
    ]
    return Scenario(
        name="correlated-failure",
        values=values,
        environment_factory=lambda: UniformEnvironment(n_hosts),
        events=events,
        rounds=rounds,
        mode=mode,
        description=(
            f"{n_hosts} hosts, values U[0,100), uniform gossip; highest-valued "
            f"{failure_fraction:.0%} removed at round {failure_round} (true average 50 → 25)"
        ),
    )


def counting_failure_scenario(
    n_hosts: int = 10_000,
    *,
    failure_round: int = 20,
    failure_fraction: float = 0.5,
    rounds: int = 40,
    seed: int = 0,
    mode: str = "exchange",
) -> Scenario:
    """Fig 9: every host holds the value 1; half the hosts fail at round 20.

    The correct sum (= network size) halves at the failure round; a sketch
    without decay keeps reporting the old size forever.
    """
    values = constant_values(n_hosts, 1.0)
    events = [
        FailureEvent(round=failure_round, model=UncorrelatedFailure(failure_fraction))
    ]
    return Scenario(
        name="counting-failure",
        values=values,
        environment_factory=lambda: UniformEnvironment(n_hosts),
        events=events,
        rounds=rounds,
        mode=mode,
        description=(
            f"{n_hosts} hosts each holding 1, uniform gossip; "
            f"{failure_fraction:.0%} removed at round {failure_round}"
        ),
    )


def trace_scenario(
    dataset: int = 1,
    *,
    seed: Optional[int] = None,
    round_seconds: float = 30.0,
    group_window_seconds: float = 600.0,
    max_rounds: Optional[int] = None,
    values: Optional[Sequence[float]] = None,
    mode: str = "exchange",
) -> Scenario:
    """Fig 11: replay a (synthetic) Haggle dataset with 30-second gossip rounds.

    Errors are group-relative: each host is compared against the aggregate
    of the hosts reachable from it over the union of the last 10 minutes of
    contacts, exactly as in the paper.  ``seed`` is passed to the trace
    generator verbatim (``None`` keeps the dataset's default seed, the
    committed-figure configuration) and also seeds the value workload.
    """
    trace = haggle_dataset(dataset, seed=seed)
    n_devices = trace.n_devices
    values_seed = 0 if seed is None else seed
    host_values = list(values) if values is not None else uniform_values(n_devices, seed=values_seed)
    if len(host_values) != n_devices:
        raise ValueError(
            f"expected {n_devices} values for dataset {dataset}, got {len(host_values)}"
        )

    def build() -> TraceEnvironment:
        return TraceEnvironment(
            trace,
            round_seconds=round_seconds,
            group_window_seconds=group_window_seconds,
        )

    # Rounds come straight off the trace (one per round_seconds of
    # simulated time, inclusive of t=0) — no need to build and parse a
    # whole throwaway environment just to ask it.
    total_rounds = int(trace.duration // round_seconds) + 1
    rounds = total_rounds if max_rounds is None else min(max_rounds, total_rounds)
    return Scenario(
        name=f"trace-dataset-{dataset}",
        values=host_values,
        environment_factory=build,
        events=[],
        rounds=rounds,
        mode=mode,
        group_relative=True,
        description=(
            f"synthetic Haggle dataset {dataset} ({n_devices} devices, "
            f"{trace.duration / 3600.0:.0f} h), gossip every {round_seconds:.0f} s, "
            f"groups = {group_window_seconds / 60:.0f}-minute edge-union components"
        ),
    )
