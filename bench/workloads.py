"""The six workloads: inputs generated from ``--seed``, one iteration each.

The program under test only ever sees the generated
:class:`~repro.api.ScenarioSpec` objects (or the :class:`~repro.api.Sweep`
built from them).  Sizes are chosen so one iteration costs ≈0.2 s on the
2-core reference box: at ``run_seconds`` = 12 that gives ≥ 14 iterations
in each of the three blocks.  Every spec halves the population with an
uncorrelated failure at the halfway round so the membership path runs.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import layers

from repro.api import ScenarioSpec, Sweep, SweepRunner, resolve_plan, run_scenario
from repro.simulator.result import SimulationResult
from repro.store import ResultStore

SWEEP_ENVIRONMENTS = ("uniform", "ring", "grid")
SWEEP_SEEDS = 8
SWEEP_CELLS = len(SWEEP_ENVIRONMENTS) * SWEEP_SEEDS


def halfway_failure(rounds: int) -> Tuple[dict, ...]:
    return (
        {"event": "failure", "round": rounds // 2, "model": "uncorrelated", "fraction": 0.5},
    )


def scenario_kwargs(name: str, seed: int) -> dict:
    """The :class:`ScenarioSpec` keyword arguments of one scenario workload."""
    push_sum = dict(protocol="push-sum-revert", protocol_params={"reversion": 0.1})
    shapes = {
        "uniform_push": dict(
            push_sum, mode="push", environment="uniform", n_hosts=100_000, rounds=30,
            backend="vectorized",
        ),
        "ring_exchange": dict(
            push_sum, mode="exchange", environment="ring", n_hosts=100_000, rounds=16,
            backend="vectorized",
        ),
        "events_latency": dict(
            push_sum, mode="exchange", engine="events", network="latency",
            network_params={"distribution": "uniform", "low": 0, "high": 2},
            n_hosts=100_000, rounds=8, backend="vectorized",
        ),
        "sketch_reset": dict(
            protocol="count-sketch-reset",
            protocol_params={"bins": 16, "bits": 18, "cutoff": "default"},
            workload="constant", n_hosts=20_000, rounds=2, backend="vectorized",
        ),
        "agent_lossy": dict(
            push_sum, mode="push", network="bernoulli-loss", network_params={"p": 0.2},
            n_hosts=1_000, rounds=20, backend="agent",
        ),
    }
    kwargs = shapes[name]
    return dict(kwargs, seed=seed, name=name, events=halfway_failure(kwargs["rounds"]))


@dataclass
class Outcome:
    """What one iteration produced: its host seconds and the results to check."""

    #: Wall-clock seconds, and the process CPU seconds (user + system) within them.
    seconds: float
    cpu_seconds: float
    #: (spec, result) per executed scenario — one for a scenario workload,
    #: the cold pass's cells for the sweep.
    runs: List[Tuple[ScenarioSpec, SimulationResult]]
    #: The sweep's two passes (``None`` for scenario workloads).
    cold: Optional[object] = None
    warm: Optional[object] = None
    #: Seconds of named parts of the iteration (the sweep's two passes).
    splits: Dict[str, float] = field(default_factory=dict)


class ScenarioWorkload:
    """One ``run_scenario`` call per iteration."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.kwargs = scenario_kwargs(name, seed)
        self.spec = ScenarioSpec(**self.kwargs)
        #: The calibration unit made of the same kind of work (``calibration.py``).
        agent = resolve_plan(self.spec).backend == "agent"
        self.calibration = "interpreter" if agent else "array"

    def cold_costs(self) -> Dict[str, float]:
        """Ledger metrics paid once per process; call before anything warms the memos."""
        return {
            "api.backends.build_topology_cold_s": statistics.median(
                layers.cold_topology_seconds(self.spec)
            )
        }

    def hand_driven(self) -> Dict[str, float]:
        return layers.hand_driven_scenario(self.kwargs)

    def iterate(self, probe=None) -> Outcome:
        started, started_cpu = time.perf_counter(), time.process_time()
        result = run_scenario(self.spec, probe=probe)
        return Outcome(
            time.perf_counter() - started,
            time.process_time() - started_cpu,
            [(self.spec, result)],
        )


class SweepWorkload:
    """A cold then a warm serial sweep over a fresh store per iteration."""

    name = "small_sweep_store"
    #: Per-run fixed costs are interpreted Python (``calibration.py``).
    calibration = "interpreter"

    def __init__(self, seed: int, scratch: str):
        self.scratch = scratch
        rounds = 20
        base = ScenarioSpec(
            protocol="push-sum-revert", protocol_params={"reversion": 0.1},
            n_hosts=1024, rounds=rounds, backend="auto", events=halfway_failure(rounds),
        )
        self.sweep = Sweep.over(
            base,
            environment=SWEEP_ENVIRONMENTS,
            seed=[seed * SWEEP_SEEDS + k for k in range(SWEEP_SEEDS)],
        )

    def cold_costs(self) -> Dict[str, float]:
        """Ledger metrics paid once per process; call before anything warms the memos."""
        ring = self.sweep.base.replace(environment="ring")
        return {
            "api.backends.build_topology_cold_s": statistics.median(
                layers.cold_topology_seconds(ring)
            ),
            "store.fingerprint_cold_s": statistics.median(
                layers.cold_fingerprint_seconds(ring.protocol)
            ),
        }

    def hand_driven(self) -> Dict[str, float]:
        return layers.hand_driven_sweep(self.sweep, self.scratch)

    def iterate(self, probe=None) -> Outcome:
        root = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        try:
            started, started_cpu = time.perf_counter(), time.process_time()
            store = ResultStore(root)
            cold = SweepRunner(store=store, probe=probe).run(self.sweep)
            middle = time.perf_counter()
            warm = SweepRunner(store=store, probe=probe).run(self.sweep)
            finished, finished_cpu = time.perf_counter(), time.process_time()
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return Outcome(
            finished - started,
            finished_cpu - started_cpu,
            list(zip(cold.specs, cold.results)),
            cold=cold,
            warm=warm,
            splits={
                "api.sweep.cold_pass_s": middle - started,
                "api.sweep.warm_pass_s": finished - middle,
            },
        )


def build(name: str, seed: int, scratch: str):
    if name == SweepWorkload.name:
        return SweepWorkload(seed, scratch)
    return ScenarioWorkload(name, seed)
