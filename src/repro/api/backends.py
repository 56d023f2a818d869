"""Execution backends: one scenario, two engines.

A :class:`~repro.api.spec.ScenarioSpec` describes *what* to simulate; this
module decides *how*.  Two backends are registered:

* ``"agent"`` — the reference per-host engines (:class:`repro.Simulation`
  for rounds, :class:`repro.events.EventSimulation` for the event
  calendar).  Runs every protocol over every environment; the reference
  the kernels are tested against, and the only backend for joins on
  static graph topologies.
* ``"vectorized"`` — the NumPy kernels declared in :mod:`repro.simulator.kernels`,
  driven for *both* engines by the one bucket loop of
  :class:`repro.api.kernel_run.KernelRun` (lockstep rounds are its
  degenerate configuration); this module only builds what that driver
  runs — the (memoised) topology and the kernel its declaration
  (:data:`repro.simulator.kernels.KERNELS`) configures, every kernel with
  the network's Bernoulli loss rate (0 off ``bernoulli-loss``).  Orders of
  magnitude faster; the backend of the paper's
  large population sweeps (Figs 6, 8, 9, 10), its Section IV-A spatial
  scenarios and its Fig 11 trace replays.  ``repro-aggregate list
  --capabilities`` prints what it covers.

``backend="auto"`` (the spec default) picks the vectorised backend whenever
the scenario's (protocol, environment, failure, workload) combination is
supported and falls back to the agent engine otherwise, so callers get the
fast path for free without ever losing coverage.

Kernel semantics differ from the agent engine in documented ways (random
perfect matchings instead of collision-prone peer selection, so half the
exchanges a round — see DESIGN.md §7), so a vectorised run is *not*
bit-identical to an agent run of the same spec; ``tests/test_backends.py``
pins the two to agree in distribution on every supported combination and
bounds the matching's gap.
"""

from __future__ import annotations

import inspect
import json
from collections import OrderedDict
from functools import lru_cache
from typing import TYPE_CHECKING, Tuple

from repro.api.plan import (
    AUTO,
    ExecutionPlan,
    resolve_plan,
    vectorized_rejections,
)
from repro.api.registry import ENVIRONMENTS, Registry, _grid_dimensions
from repro.obs.probe import NULL_PROBE
from repro.simulator.kernels import KERNELS
from repro.simulator.result import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.spec import ScenarioSpec

__all__ = [
    "AgentBackend",
    "BACKENDS",
    "ExecutionBackend",
    "VectorizedBackend",
    "run_with_backend",
    "validate_backend",
]


@lru_cache(maxsize=None)
def _environment_default(environment: str, param: str):
    """The registered environment factory's default for ``param``.

    The factories in :mod:`repro.api.registry` are the single source of
    truth for parameter defaults; the edge fast paths below must resolve
    omitted parameters from the same place or the two backends would run
    different graphs for the same spec.
    """
    return inspect.signature(ENVIRONMENTS.get(environment)).parameters[param].default


#: Memoised static topologies keyed by (environment, params JSON, n_hosts).
#: Every topology environment is deterministic given its parameters (the
#: random generators take an explicit ``graph_seed``), so reuse is sound;
#: a multi-seed sweep over one graph then builds it exactly once.  Runs
#: only read a topology (liveness lives in each kernel's ``LiveView``), so
#: sharing one across kernels is safe.
_TOPOLOGY_CACHE: "OrderedDict[Tuple[str, str, int], Tuple[object, str]]" = OrderedDict()
_TOPOLOGY_CACHE_SIZE = 8


class ExecutionBackend:
    """How a :class:`~repro.api.spec.ScenarioSpec` gets executed.

    A backend exposes one operation, :meth:`run`, which executes a scenario
    into the same :class:`~repro.simulator.SimulationResult` shape
    regardless of engine.  *Whether* a backend can run a scenario is not
    asked of the backend: :func:`repro.api.plan.resolve_plan` answers that,
    with structured reasons, before any backend is reached.
    """

    name: str = "abstract"

    def run(self, spec: "ScenarioSpec", probe=NULL_PROBE) -> SimulationResult:
        """Execute ``spec`` for ``spec.rounds`` rounds.

        ``probe`` is an :mod:`repro.obs` instrumentation sink; the default
        null probe keeps the run bit-identical and effectively free.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class AgentBackend(ExecutionBackend):
    """The reference per-host engines; run everything a spec can describe.

    Both per-host realisations live here: the lockstep round engine
    (``engine="rounds"``) and the continuous-time event engine
    (``engine="events"`` — :class:`repro.events.EventSimulation`, which
    runs its configured simulated duration rather than a round count).
    """

    name = "agent"

    def run(self, spec: "ScenarioSpec", probe=NULL_PROBE) -> SimulationResult:
        with probe.span("build", backend=self.name, engine=spec.engine):
            simulation = spec.build(probe=probe)
        with probe.span("execute", backend=self.name, engine=spec.engine):
            # The event engine runs its configured duration, not a round count.
            result = simulation.run() if spec.engine == "events" else simulation.run(spec.rounds)
        result.metadata["backend"] = self.name
        return result


class VectorizedBackend(ExecutionBackend):
    """The NumPy kernels, exposed through the declarative scenario surface."""

    name = "vectorized"

    # ---------------------------------------------------------- construction
    @staticmethod
    def build_topology(spec: "ScenarioSpec"):
        """``(topology, environment_class_name)`` for ``spec``.

        Ring, grid and Erdős–Rényi environments build straight from their
        edge enumerations (:func:`~repro.topology.graphs.ring_lattice_edges`
        / :func:`~repro.topology.graphs.grid_edges` /
        :func:`~repro.topology.graphs.erdos_renyi_edges` — the same arrays
        the adjacency-map factories are built from, with omitted parameters
        resolved from the registered factory signatures, so both backends
        see the identical graph); every other topology is constructed
        *through the registered environment factory*, which also keeps
        ``graph_seed``-style randomness identical across backends.  Static
        topologies are memoised per (environment, params, n_hosts) — a
        multi-seed sweep over one graph builds it once.  Uniform gossip
        needs no topology and returns ``(None, "UniformEnvironment")``
        without building anything.
        """
        if spec.environment == "uniform":
            return None, "UniformEnvironment"
        key = (
            spec.environment,
            json.dumps(spec.environment_params, sort_keys=True),
            spec.n_hosts,
        )
        cached = _TOPOLOGY_CACHE.get(key)
        if cached is not None:
            _TOPOLOGY_CACHE.move_to_end(key)
            return cached
        # A kernel run's graph layer, imported by the first topology it builds.
        from repro.simulator.sparse import CSRTopology, GridRingTopology, TraceCSRTopology
        from repro.topology.graphs import erdos_renyi_edges, grid_edges, ring_lattice_edges

        params = spec.environment_params

        def default(name):
            return params.get(name, _environment_default(spec.environment, name))

        if spec.environment == "ring":
            u, v = ring_lattice_edges(spec.n_hosts, k=int(default("k")))
            built = CSRTopology.from_edges(u, v, spec.n_hosts), "NeighborhoodEnvironment"
        elif spec.environment == "grid":
            width, height = _grid_dimensions(
                spec.n_hosts, params.get("width"), params.get("height")
            )
            u, v = grid_edges(width, height, diagonal=bool(default("diagonal")))
            built = CSRTopology.from_edges(u, v, spec.n_hosts), "NeighborhoodEnvironment"
        elif spec.environment == "erdos-renyi":
            u, v = erdos_renyi_edges(
                spec.n_hosts, float(default("p")), seed=int(default("graph_seed"))
            )
            built = CSRTopology.from_edges(u, v, spec.n_hosts), "NeighborhoodEnvironment"
        else:
            from repro.environments.spatial import SpatialGridEnvironment
            from repro.environments.trace import TraceEnvironment

            environment = spec.build_environment()
            if isinstance(environment, SpatialGridEnvironment):
                # The 1/d² long links are realised by the distance-ring
                # sampler (the environment's walk=False idealisation; the
                # hop-by-hop walk approximates it — DESIGN.md §10).
                topology = GridRingTopology(
                    environment.width,
                    environment.height,
                    max_distance=environment.max_distance,
                )
            elif isinstance(environment, TraceEnvironment):
                # Same trace, same per-round instants, same group window —
                # the compiled CSR replays exactly what the agent
                # environment would answer round by round (DESIGN.md §12).
                topology = TraceCSRTopology(
                    environment.trace,
                    round_seconds=environment.round_seconds,
                    group_window_seconds=environment.group_window_seconds,
                )
            else:
                topology = CSRTopology.from_adjacency(environment.adjacency, spec.n_hosts)
            built = topology, type(environment).__name__
        _TOPOLOGY_CACHE[key] = built
        while len(_TOPOLOGY_CACHE) > _TOPOLOGY_CACHE_SIZE:
            _TOPOLOGY_CACHE.popitem(last=False)
        return built

    def build_kernel(self, spec: "ScenarioSpec", topology=None, probe=NULL_PROBE):
        """The configured kernel for ``spec`` (validates support eagerly).

        Exposed publicly for experiments that need raw kernel state — the
        Figure 6 counter CDFs read ``counter_values_for_bit`` — while still
        routing construction through the backend's dispatch rules.
        ``topology`` short-circuits :meth:`build_topology` when the caller
        already built one; ``probe`` is the owning run's instrumentation
        sink.  This is the one place the backend screens a spec: an
        unsupported scenario raises
        :class:`~repro.api.plan.PlanRejectionError` before anything is built.
        The protocol's :class:`~repro.simulator.kernels.KernelDeclaration`
        does the rest, configuring the kernel from the resolved agent
        protocol instance so both backends share every parameter default.
        """
        ExecutionPlan(spec.engine, self.name, tuple(vectorized_rejections(spec))).require_runnable()
        if topology is None and spec.environment != "uniform":
            topology, _environment_name = self.build_topology(spec)
        declaration = KERNELS[spec.protocol]
        loss = float(spec.network_params["p"]) if spec.network == "bernoulli-loss" else 0.0
        population = spec.build_values() if declaration.value_carrying else spec.n_hosts
        wiring = {"loss": loss, "topology": topology, "seed": spec.seed, "probe": probe}
        return declaration.build(spec.build_protocol(), population, spec.mode, **wiring)

    # -------------------------------------------------------------- execution
    def run(self, spec: "ScenarioSpec", probe=NULL_PROBE) -> SimulationResult:
        """Both engines run on the one kernel driver (:class:`KernelRun`)."""
        from repro.api.kernel_run import KernelRun

        return KernelRun(self, spec, probe).run()


BACKENDS = Registry("backend")
BACKENDS.register("agent", AgentBackend())
BACKENDS.register("vectorized", VectorizedBackend())


def validate_backend(spec: "ScenarioSpec") -> None:
    """Reject impossible backend requests at spec construction time.

    ``backend="auto"`` always validates (it can fall back to the agent
    engine); an explicit backend must exist and must support the scenario,
    so a typo or an unsupported combination fails with an actionable
    message instead of surfacing mid-run inside a process pool.  The
    error is a :class:`~repro.api.plan.PlanRejectionError` carrying every
    structured rejection plus the nearest runnable plan.
    """
    if spec.backend == AUTO:
        return
    if spec.backend not in BACKENDS:
        known = ", ".join(sorted([AUTO, *BACKENDS.keys()]))
        raise ValueError(f"unknown backend {spec.backend!r}; expected one of: {known}")
    resolve_plan(spec).require_runnable(
        "; use backend='agent' (or 'auto' to fall back automatically)"
    )


def run_with_backend(
    spec: "ScenarioSpec", *, store=None, refresh: bool = False, probe=NULL_PROBE
) -> SimulationResult:
    """Execute ``spec`` on its resolved backend.

    This is the single point every execution path funnels through
    (:func:`~repro.api.spec.run_scenario`, :meth:`ScenarioSpec.run`, the
    sweep runner's serial path), so the result-store hook lives here: with
    a :class:`repro.store.ResultStore` the lookup happens before any
    engine is built, and a fresh result is written back after the run.
    ``refresh=True`` skips the lookup but keeps the write-back.

    ``probe`` (default the no-op :data:`~repro.obs.probe.NULL_PROBE`)
    observes store lookups, backend resolution, and the run itself; probes
    never touch the RNG streams, so any probe leaves results bit-identical.
    """
    if store is not None and not refresh:
        with probe.span("store_get"):
            cached = store.get(spec)
        # Hit/miss *counters* are the store's own job (ResultStore.probe),
        # so a store carrying this probe doesn't double-count; the events
        # here record the outcome per scenario either way.
        if cached is not None:
            if probe.enabled:
                probe.event("store", outcome="hit", spec=spec.name)
            return cached
        if probe.enabled:
            probe.event("store", outcome="miss", spec=spec.name)
    with probe.span("resolve"):
        plan = resolve_plan(spec)
    if probe.enabled:
        from repro.store.fingerprint import code_fingerprint

        # The run's name: the store's key for the spec and for the code behind it.
        probe.event(
            "plan", engine=plan.engine, backend=plan.backend, on_calendar=spec.on_calendar,
            rejections=[rejection.feature for rejection in plan.rejections],
            spec_key=spec.key(), code=code_fingerprint(spec.protocol),
        )
    result = BACKENDS.get(plan.backend).run(spec, probe=probe)
    result.metadata.setdefault("backend", plan.backend)
    if store is not None:
        with probe.span("store_put"):
            store.put(spec, result)
    return result
