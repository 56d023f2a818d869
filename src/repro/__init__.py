"""repro — dynamic distributed in-network aggregation.

This package is a from-scratch reproduction of *Dynamic Approaches to
In-Network Aggregation* (Kennedy, Koch, Demers; ICDE 2009).  It provides:

* the paper's dynamic aggregation protocols — :class:`~repro.core.PushSumRevert`
  (averaging), :class:`~repro.core.CountSketchReset` (counting) and
  :class:`~repro.core.InvertAverage` (summation) — together with the
  Full-Transfer and adaptive-reversion optimisations;
* the static baselines they extend — Kempe et al.'s Push-Sum / Push-Pull,
  Considine et al.'s Sketch-Count, epoch-restarted aggregation and
  max/min extrema gossip;
* the simulation substrate used for the paper's evaluation — a round-based
  gossip simulator with uniform, neighbourhood, spatial and trace-driven
  gossip environments, failure/churn models, synthetic contact traces and
  metric recorders;
* an experiment harness (``repro.experiments``) regenerating every figure in
  the paper's evaluation section.

* a declarative scenario layer (``repro.api``) — registries of named
  components, frozen JSON-round-trippable :class:`~repro.api.ScenarioSpec`
  run descriptions, and :class:`~repro.api.Sweep` grids executed serially
  or across processes by :class:`~repro.api.SweepRunner`;
* pluggable execution backends (``repro.api.backends``) — every scenario
  runs on the per-host ``"agent"`` engine or on NumPy ``"vectorized"``
  kernels; the default ``backend="auto"`` picks the kernels whenever the
  scenario's combination is supported — including the graph topologies
  (``ring``, ``grid``, ``random-geometric``, ``erdos-renyi``,
  ``spatial-grid``), which sample peers through the sparse CSR adjacency
  layer of ``repro.simulator.sparse`` (orders of magnitude faster at the
  paper's populations);
* lossy and latent network models (``repro.network``) — the paper assumes
  instant, reliable delivery; ``ScenarioSpec(network=..., network_params=...)``
  lifts that: ``bernoulli-loss`` and ``latency`` (fixed/uniform/lognormal
  delays through an in-flight delivery queue) models, with per-round
  mass-conservation assertions for the Push-Sum family (DESIGN.md §8);
* an observability layer (``repro.obs``, DESIGN.md §13) — pass
  ``run_scenario(spec, probe=TraceRecorder("out.jsonl"))`` to record phase
  spans, per-round counters and store hits/misses from any engine or
  backend; render a recorded trace with ``render_report`` or
  ``repro-aggregate obs report out.jsonl``.  The default is a zero-cost
  null probe, and probes never touch the RNG streams, so instrumented
  runs stay bit-identical.

Quickstart
----------

The declarative path — one spec describes the whole run, and the same
spec serialises to JSON for the CLI (``repro-aggregate run --config``)
and for parallel sweeps.  ``backend="auto"`` (the default) resolves to
the vectorised kernels here because uniform-gossip Push-Sum-Revert has
one; pin ``backend="agent"`` or ``backend="vectorized"`` to choose
explicitly (an unsupported explicit choice fails at construction):

>>> from repro import ScenarioSpec, run_scenario
>>> spec = ScenarioSpec(
...     protocol="push-sum-revert",
...     protocol_params={"reversion": 0.01},
...     environment="uniform",
...     workload="uniform",
...     n_hosts=200,
...     rounds=30,
...     seed=1,
... )
>>> spec.resolved_backend()
'vectorized'
>>> result = run_scenario(spec)
>>> spec == ScenarioSpec.from_json(spec.to_json())
True

The imperative path — construct the engine directly (the agent
realisation, still fully supported):

>>> from repro import Simulation, UniformEnvironment, PushSumRevert
>>> from repro.workloads import uniform_values
>>> values = uniform_values(200, seed=1)
>>> sim = Simulation(
...     protocol=PushSumRevert(reversion=0.01),
...     environment=UniformEnvironment(200),
...     values=values,
...     seed=1,
...     mode="exchange",
... )
>>> agent_result = run_scenario(spec.replace(backend="agent"))
>>> abs(sim.run(rounds=30).mean_estimate() - agent_result.mean_estimate()) < 1e-9
True
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.api": (
        "ENVIRONMENTS",
        "FAILURES",
        "NETWORKS",
        "PROTOCOLS",
        "WORKLOADS",
        "ScenarioSpec",
        "Sweep",
        "SweepResult",
        "SweepRunner",
        "register_environment",
        "register_failure",
        "register_network",
        "register_protocol",
        "register_workload",
        "run_scenario",
    ),
    "repro.baselines": ("EpochPushSum", "PushSum", "SketchCount"),
    "repro.core": (
        "CountSketchReset",
        "FullTransferPushSumRevert",
        "InvertAverage",
        "PushSumRevert",
        "default_cutoff",
    ),
    "repro.environments": (
        "NeighborhoodEnvironment",
        "SpatialGridEnvironment",
        "TraceEnvironment",
        "UniformEnvironment",
    ),
    "repro.failures": ("CorrelatedFailure", "FailureEvent", "JoinEvent", "UncorrelatedFailure"),
    "repro.network": ("BernoulliLossNetwork", "LatencyNetwork", "NetworkModel", "PerfectNetwork"),
    "repro.obs": (
        "NullProbe",
        "Probe",
        "TraceRecorder",
        "read_trace",
        "render_report",
    ),
    "repro.simulator": ("Simulation", "SimulationResult"),
    "repro.store": ("ResultStore",),
})

__all__ = [
    "BernoulliLossNetwork",
    "CountSketchReset",
    "CorrelatedFailure",
    "ENVIRONMENTS",
    "EpochPushSum",
    "FAILURES",
    "FailureEvent",
    "FullTransferPushSumRevert",
    "InvertAverage",
    "JoinEvent",
    "LatencyNetwork",
    "NETWORKS",
    "NeighborhoodEnvironment",
    "NetworkModel",
    "NullProbe",
    "PROTOCOLS",
    "PerfectNetwork",
    "Probe",
    "PushSum",
    "PushSumRevert",
    "ResultStore",
    "ScenarioSpec",
    "SketchCount",
    "Simulation",
    "SimulationResult",
    "SpatialGridEnvironment",
    "Sweep",
    "SweepResult",
    "SweepRunner",
    "TraceEnvironment",
    "TraceRecorder",
    "UncorrelatedFailure",
    "UniformEnvironment",
    "WORKLOADS",
    "default_cutoff",
    "register_environment",
    "register_failure",
    "register_network",
    "read_trace",
    "register_protocol",
    "register_workload",
    "render_report",
    "run_scenario",
]

__version__ = "1.0.0"
