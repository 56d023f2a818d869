"""Execution plans: the structured engine×backend capability layer.

Before this module, backend eligibility was an ad-hoc
``supports() -> Optional[str]`` string check inside
:mod:`repro.api.backends` — enough for a one-axis "vectorized or not"
decision, but unable to express the two-axis choice the event engine
introduced (engine ``rounds``/``events`` × backend ``agent``/
``vectorized``).  This module is the replacement:

* :func:`vectorized_rejections` — every reason the vectorised backend
  cannot realise a spec, as structured :class:`Rejection` records
  ``(axis, feature, reason)`` instead of a single string;
* :func:`resolve_plan` — the :class:`ExecutionPlan` a spec will run on:
  the concrete (engine, backend) pair with the full rejection list
  attached, so ``auto`` dispatch, eager validation, the sweep runner and
  the CLI all consult one function;
* :func:`capability_matrix` — the full engine×backend support matrix,
  derived by probing :func:`resolve_plan` per registered protocol (no
  hand-maintained table; rendered by ``repro-aggregate list
  --capabilities``).

Backends carry no capability method of their own: everything dispatches
through plans, and the first rejection's ``reason`` is the sentence the
old string protocol returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.spec import ScenarioSpec

__all__ = [
    "AUTO",
    "ExecutionPlan",
    "PlanRejectionError",
    "Rejection",
    "capability_matrix",
    "resolve_plan",
    "vectorized_rejections",
]

#: The pseudo-backend resolved per scenario at run time.
AUTO = "auto"

#: Failure models the vectorised event loop can apply.
_VECTOR_FAILURE_MODELS = ("uncorrelated", "correlated", "explicit")

#: Environments with a vectorised peer sampler: uniform gossip, the
#: static graph topologies realised by :mod:`repro.simulator.sparse`, and
#: contact traces compiled into a per-round time-varying CSR
#: (neighbourhood environments built from raw adjacency maps stay
#: agent-only).
_VECTOR_ENVIRONMENTS = (
    "uniform",
    "ring",
    "grid",
    "random-geometric",
    "erdos-renyi",
    "spatial-grid",
    "trace",
)

#: Protocols whose kernels take a Bernoulli ``loss`` probability, so the
#: common lossy case still resolves to the fast path under ``"auto"``.
_LOSSY_KERNEL_PROTOCOLS = frozenset({"push-sum-revert", "push-sum-revert-full-transfer"})

#: Network models the vectorised *event calendar* can realise (the
#: bucketed calendar of :mod:`repro.api.kernel_run`): instant networks
#: run whole-bucket or subset kernel steps, ``latency`` defers matured
#: parcels/exchanges into later buckets.
_EVENTS_VECTOR_NETWORKS = ("perfect", "bernoulli-loss", "latency")

#: The one protocol with a bucketed event-calendar realisation today:
#: Push-Sum-Revert, whose subset steps and scatter-add deliveries map
#: directly onto the mass arrays (DESIGN.md §14).
_EVENTS_VECTOR_PROTOCOLS = ("push-sum-revert",)

#: Per-protocol kernel capabilities: accepted constructor parameters, the
#: engine modes the kernel can realise, whether the kernel carries
#: per-host values (needed by correlated failures and value changes), and
#: whether it accepts a :mod:`~repro.simulator.sparse` topology (only
#: Full-Transfer's multi-parcel fan-out is uniform-only).
_KERNEL_TABLE: Dict[str, Dict[str, object]] = {
    "push-sum-revert": {
        "params": frozenset({"reversion", "adaptive"}),
        "modes": ("exchange", "push"),
        "has_values": True,
        "topology": True,
    },
    "push-sum-revert-full-transfer": {
        "params": frozenset({"reversion", "parcels", "history"}),
        "modes": ("push",),
        "has_values": True,
        "topology": False,
    },
    "count-sketch-reset": {
        "params": frozenset({"bins", "bits", "cutoff", "identifiers_per_host"}),
        "modes": ("exchange", "push"),
        "has_values": False,
        "topology": True,
    },
    "sketch-count": {
        "params": frozenset({"bins", "bits", "identifiers_per_host"}),
        "modes": ("exchange", "push"),
        "has_values": False,
        "topology": True,
    },
    "extrema-gossip": {
        "params": frozenset({"maximum"}),
        "modes": ("exchange",),
        "has_values": True,
        "topology": True,
    },
    "extrema-reset": {
        "params": frozenset({"maximum", "cutoff"}),
        "modes": ("exchange",),
        "has_values": True,
        "topology": True,
    },
}


@dataclass(frozen=True)
class Rejection:
    """One reason a (spec, backend) pairing cannot run.

    ``axis`` names the capability dimension (``"engine"``,
    ``"environment"``, ``"protocol"``, ``"mode"``, ``"network"``,
    ``"accounting"``, ``"events"``), ``feature`` the offending value on
    that axis, and ``reason`` the human sentence error messages quote.
    """

    axis: str
    feature: str
    reason: str


@dataclass(frozen=True)
class ExecutionPlan:
    """The concrete (engine, backend) pair a spec resolves to.

    ``rejections`` lists why the vectorised backend cannot (or, for an
    explicit ``backend="vectorized"`` request, could not) realise the
    spec; an empty tuple means the fast path is available.  The plan for
    an ``auto`` spec is always runnable; an explicit-vectorized plan with
    rejections is the *requested* plan, and :attr:`runnable` is False.
    """

    engine: str
    backend: str
    rejections: Tuple[Rejection, ...] = field(default_factory=tuple)

    @property
    def reasons(self) -> List[str]:
        """The rejection sentences, in check order."""
        return [rejection.reason for rejection in self.rejections]

    @property
    def runnable(self) -> bool:
        """Whether this exact (engine, backend) pair can execute."""
        return self.backend != "vectorized" or not self.rejections

    def nearest_runnable(self) -> "ExecutionPlan":
        """The closest plan that *can* execute (the agent fallback)."""
        if self.runnable:
            return self
        return ExecutionPlan(engine=self.engine, backend="agent", rejections=self.rejections)

    def require_runnable(self, hint: str = "") -> None:
        """Raise :class:`PlanRejectionError` unless this plan can execute.

        The error quotes the first rejection (plus ``hint``) and carries
        every structured rejection and the nearest runnable plan.
        """
        if not self.runnable:
            raise PlanRejectionError(
                f"backend {self.backend!r} cannot run this scenario: "
                f"{self.rejections[0].reason}{hint}",
                rejections=self.rejections,
                nearest=self.nearest_runnable(),
            )


class PlanRejectionError(ValueError):
    """An explicit backend request the capability layer cannot honour.

    Subclasses :class:`ValueError` (the error type the old string
    protocol raised) so existing ``except ValueError`` callers keep
    working, while carrying the structured :attr:`rejections` and the
    :attr:`nearest` runnable plan for rendering.
    """

    def __init__(self, message: str, *, rejections: Tuple[Rejection, ...] = (),
                 nearest: "ExecutionPlan" = None):
        super().__init__(message)
        self.rejections = tuple(rejections)
        self.nearest = nearest


def _events_rejections(spec: "ScenarioSpec") -> List[Rejection]:
    """Rejections for the vectorised *event calendar* (engine='events')."""
    rejections: List[Rejection] = []
    if spec.protocol not in _EVENTS_VECTOR_PROTOCOLS:
        supported = ", ".join(repr(name) for name in _EVENTS_VECTOR_PROTOCOLS)
        rejections.append(Rejection(
            "protocol", spec.protocol,
            f"the event calendar is only vectorised for {supported}; "
            f"protocol {spec.protocol!r} under engine='events' requires the agent engine",
        ))
    if spec.environment != "uniform":
        rejections.append(Rejection(
            "environment", spec.environment,
            "the vectorised event calendar runs uniform gossip only; "
            f"environment {spec.environment!r} under engine='events' requires the agent engine",
        ))
    if spec.group_relative and spec.environment == "uniform":
        rejections.append(Rejection(
            "accounting", "group_relative",
            "group-relative error accounting needs an environment that defines "
            "groups (ring, grid, random-geometric, erdos-renyi or spatial-grid)",
        ))
    if spec.network not in _EVENTS_VECTOR_NETWORKS:
        known = ", ".join(repr(name) for name in _EVENTS_VECTOR_NETWORKS)
        rejections.append(Rejection(
            "network", spec.network,
            f"network model {spec.network!r} is not vectorised under engine='events' "
            f"(the event calendar supports {known})",
        ))
    if spec.protocol in _EVENTS_VECTOR_PROTOCOLS:
        entry = _KERNEL_TABLE[spec.protocol]
        if bool(spec.protocol_params.get("adaptive", False)):
            rejections.append(Rejection(
                "protocol", "adaptive",
                "indegree-adaptive reversion is not vectorised under engine='events' "
                "(the bucketed calendar has no per-tick indegree); it requires the "
                "agent engine",
            ))
        unknown = set(spec.protocol_params) - entry["params"]
        if unknown:
            rejections.append(Rejection(
                "protocol", ",".join(sorted(unknown)),
                f"protocol parameter(s) {sorted(unknown)} are not supported by the "
                f"vectorised {spec.protocol!r} kernel",
            ))
        rejections.extend(_event_schedule_rejections(spec, entry))
    return rejections


def _event_schedule_rejections(spec: "ScenarioSpec", entry) -> List[Rejection]:
    """Rejections from the spec's scheduled membership events (both engines)."""
    rejections: List[Rejection] = []
    for event in spec.events:
        kind = event["event"]
        if kind == "failure":
            if event["model"] not in _VECTOR_FAILURE_MODELS:
                models = ", ".join(_VECTOR_FAILURE_MODELS)
                rejections.append(Rejection(
                    "events", event["model"],
                    f"failure model {event['model']!r} is not vectorised "
                    f"(supported models: {models})",
                ))
        elif kind == "value-change":
            if entry is not None and not entry["has_values"]:
                rejections.append(Rejection(
                    "events", "value-change",
                    f"value-change events need a value-carrying kernel; "
                    f"{spec.protocol!r} aggregates counts",
                ))
        elif kind == "join":
            if spec.environment != "uniform":
                rejections.append(Rejection(
                    "events", "join",
                    "'join' events are only vectorised under uniform gossip "
                    "(a static or trace topology has no slots for new hosts); "
                    f"environment {spec.environment!r} requires the agent engine",
                ))
        elif kind == "churn":
            if event["model"] not in _VECTOR_FAILURE_MODELS:
                models = ", ".join(_VECTOR_FAILURE_MODELS)
                rejections.append(Rejection(
                    "events", event["model"],
                    f"churn failure model {event['model']!r} is not vectorised "
                    f"(supported models: {models})",
                ))
            if int(event.get("arrivals_per_round", 0)) > 0 and spec.environment != "uniform":
                rejections.append(Rejection(
                    "events", "churn",
                    "churn with arrivals is only vectorised under uniform gossip "
                    "(a static or trace topology has no slots for new hosts); "
                    f"environment {spec.environment!r} requires the agent engine",
                ))
        else:
            rejections.append(Rejection(
                "events", kind, f"{kind!r} events require the agent engine",
            ))
    return rejections


def vectorized_rejections(spec: "ScenarioSpec") -> List[Rejection]:
    """Every reason the vectorised backend cannot realise ``spec``.

    An empty list means the spec has a fast path (on either engine).  The
    checks for the round engine run in a fixed order, so the first
    rejection's ``reason`` is the headline every error message quotes;
    ``engine="events"`` gets its own capability set (the bucketed
    calendar of :mod:`repro.api.kernel_run`).
    """
    if spec.engine == "events":
        return _events_rejections(spec)
    rejections: List[Rejection] = []
    entry = _KERNEL_TABLE.get(spec.protocol)
    if spec.environment not in _VECTOR_ENVIRONMENTS:
        known = ", ".join(repr(name) for name in _VECTOR_ENVIRONMENTS)
        rejections.append(Rejection(
            "environment", spec.environment,
            f"environment {spec.environment!r} is not vectorised "
            f"(vectorised environments: {known})",
        ))
    if spec.environment != "uniform" and entry is not None and not entry["topology"]:
        rejections.append(Rejection(
            "environment", spec.environment,
            f"protocol {spec.protocol!r} is only vectorised under uniform gossip "
            f"(its kernel takes no topology); environment {spec.environment!r} "
            "requires the agent engine",
        ))
    if spec.environment == "trace" and bool(spec.environment_params.get("broadcast", False)):
        rejections.append(Rejection(
            "environment", "broadcast",
            "broadcast trace gossip (every in-range neighbour hears each send) "
            "is not vectorised; it requires the agent engine",
        ))
    if spec.group_relative and spec.environment == "uniform":
        rejections.append(Rejection(
            "accounting", "group_relative",
            "group-relative error accounting needs an environment that defines "
            "groups (ring, grid, random-geometric, erdos-renyi or spatial-grid)",
        ))
    if spec.network != "perfect":
        if spec.network != "bernoulli-loss":
            rejections.append(Rejection(
                "network", spec.network,
                f"network model {spec.network!r} is not vectorised "
                "(kernels support 'perfect' and 'bernoulli-loss' only)",
            ))
        elif spec.protocol not in _LOSSY_KERNEL_PROTOCOLS:
            lossy = ", ".join(sorted(_LOSSY_KERNEL_PROTOCOLS))
            rejections.append(Rejection(
                "network", spec.network,
                f"Bernoulli message loss is only vectorised for {lossy}; "
                f"protocol {spec.protocol!r} under a lossy network requires "
                "the agent engine",
            ))
    if entry is None:
        supported = ", ".join(sorted(_KERNEL_TABLE))
        rejections.append(Rejection(
            "protocol", spec.protocol,
            f"protocol {spec.protocol!r} has no vectorised kernel (kernels: {supported})",
        ))
    else:
        if spec.mode not in entry["modes"]:
            modes = " or ".join(repr(mode) for mode in entry["modes"])
            rejections.append(Rejection(
                "mode", spec.mode,
                f"protocol {spec.protocol!r} is only vectorised in mode {modes}",
            ))
        unknown = set(spec.protocol_params) - entry["params"]
        if unknown:
            rejections.append(Rejection(
                "protocol", ",".join(sorted(unknown)),
                f"protocol parameter(s) {sorted(unknown)} are not supported by the "
                f"vectorised {spec.protocol!r} kernel",
            ))
    rejections.extend(_event_schedule_rejections(spec, entry))
    return rejections


def resolve_plan(spec: "ScenarioSpec") -> ExecutionPlan:
    """The :class:`ExecutionPlan` ``spec`` resolves to.

    ``backend="auto"`` picks the vectorised backend exactly when
    :func:`vectorized_rejections` is empty; explicit backends are kept as
    requested (with the rejection list attached, so callers — and error
    messages — can explain an unrunnable request and name the nearest
    runnable plan).
    """
    rejections = tuple(vectorized_rejections(spec))
    if spec.backend == AUTO:
        backend = "agent" if rejections else "vectorized"
    else:
        backend = spec.backend
    return ExecutionPlan(engine=spec.engine, backend=backend, rejections=rejections)


def capability_matrix() -> Dict[str, object]:
    """The engine×backend support matrix, derived from the registries.

    For every registered protocol and both engines, a minimal probe spec
    is resolved through :func:`resolve_plan`; nothing here is
    hand-maintained, so a new kernel (or a new engine realisation) shows
    up in ``repro-aggregate list --capabilities`` automatically.  Cells
    are ``"yes"``, ``"no"`` (with the first rejection recorded in
    ``reasons``) or ``"n/a"`` (the probe spec itself does not validate).
    """
    from repro.api.registry import PROTOCOLS
    from repro.api.spec import ScenarioSpec

    engines = ("rounds", "events")
    rows: List[Dict[str, object]] = []
    for protocol in sorted(PROTOCOLS.keys()):
        entry = _KERNEL_TABLE.get(protocol)
        mode = entry["modes"][0] if entry else "exchange"
        cells: Dict[str, Dict[str, str]] = {}
        reasons: Dict[str, str] = {}
        for engine in engines:
            try:
                probe = ScenarioSpec(
                    protocol=protocol, n_hosts=8, rounds=2, mode=mode,
                    engine=engine, backend=AUTO,
                )
            except (ValueError, KeyError, TypeError):
                cells[engine] = {"agent": "n/a", "vectorized": "n/a"}
                continue
            plan = resolve_plan(probe)
            cells[engine] = {
                "agent": "yes",
                "vectorized": "yes" if not plan.rejections else "no",
            }
            if plan.rejections:
                reasons[engine] = plan.rejections[0].reason
        rows.append({"protocol": protocol, "cells": cells, "reasons": reasons})
    kernels = [
        {
            "kernel": name,
            "modes": "/".join(entry["modes"]),
            "parameters": ",".join(sorted(entry["params"])),
            "topology": "yes" if entry["topology"] else "uniform-only",
        }
        for name, entry in sorted(_KERNEL_TABLE.items())
    ]
    notes = [
        f"vectorised environments: {', '.join(_VECTOR_ENVIRONMENTS)}",
        f"vectorised failure models: {', '.join(_VECTOR_FAILURE_MODELS)}",
        f"lossy-network kernels: {', '.join(sorted(_LOSSY_KERNEL_PROTOCOLS))}",
        "event-calendar (engine='events') vectorisation: "
        f"{', '.join(_EVENTS_VECTOR_PROTOCOLS)} over uniform gossip on "
        f"{', '.join(_EVENTS_VECTOR_NETWORKS)} networks",
    ]
    return {"engines": engines, "backends": ("agent", "vectorized"),
            "rows": rows, "kernels": kernels, "notes": notes}
