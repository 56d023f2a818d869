"""The declarative scenario API: the single front door to the simulator.

Everything the simulator can run is describable as plain data:

* :mod:`repro.api.registry` — string-keyed registries of protocols,
  environments, failure models, workloads and network models, with
  decorators (:func:`register_protocol` et al.) for adding new
  components;
* :mod:`repro.api.spec` — :class:`ScenarioSpec`, a frozen, eagerly
  validated, JSON-round-trippable description of one run, executed with
  :func:`run_scenario`;
* :mod:`repro.api.sweep` — :class:`Sweep` grids over any spec fields and
  :class:`SweepRunner`, which executes them serially or across processes
  into a tidy :class:`SweepResult`;
* :mod:`repro.api.plan` — :func:`resolve_plan`, the one authority on
  which (engine, backend) pair a spec runs on and why not the other;
* :mod:`repro.api.backends` — the execution backends behind
  :func:`run_scenario`: the per-host ``"agent"`` engines and the NumPy
  ``"vectorized"`` kernel factory;
* :mod:`repro.api.kernel_run` — :class:`~repro.api.kernel_run.KernelRun`,
  the one driver every kernel run goes through: a bucketed event
  calendar of which lockstep rounds are the degenerate configuration.

The imperative path (constructing :class:`repro.Simulation` by hand) keeps
working unchanged; this layer is additive and is what the CLI, the
experiment profiles and the examples are built on.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.api.backends": ("BACKENDS", "AgentBackend", "ExecutionBackend", "VectorizedBackend"),
    "repro.api.plan": (
        "ExecutionPlan",
        "PlanRejectionError",
        "Rejection",
        "capability_matrix",
        "resolve_plan",
    ),
    "repro.api.registry": (
        "ENVIRONMENTS",
        "FAILURES",
        "NETWORKS",
        "PROTOCOLS",
        "WORKLOADS",
        "Registry",
        "UnknownKeyError",
        "register_environment",
        "register_failure",
        "register_network",
        "register_protocol",
        "register_workload",
    ),
    "repro.api.spec": ("NAMED_CUTOFFS", "ScenarioSpec", "run_scenario"),
    "repro.api.sweep": ("Sweep", "SweepResult", "SweepRunner"),
})

__all__ = [
    "AgentBackend",
    "BACKENDS",
    "ENVIRONMENTS",
    "ExecutionBackend",
    "ExecutionPlan",
    "FAILURES",
    "PlanRejectionError",
    "Rejection",
    "capability_matrix",
    "resolve_plan",
    "NAMED_CUTOFFS",
    "NETWORKS",
    "PROTOCOLS",
    "Registry",
    "VectorizedBackend",
    "ScenarioSpec",
    "Sweep",
    "SweepResult",
    "SweepRunner",
    "UnknownKeyError",
    "WORKLOADS",
    "register_environment",
    "register_failure",
    "register_network",
    "register_protocol",
    "register_workload",
    "run_scenario",
]
