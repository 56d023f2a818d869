"""Execution plans: the structured engine×backend capability layer.

* :func:`vectorized_rejections` — every reason the vectorised backend
  cannot realise a spec, as structured :class:`Rejection` records
  ``(axis, feature, reason)``;
* :func:`resolve_plan` — the :class:`ExecutionPlan` a spec will run on:
  the concrete (engine, backend) pair with the full rejection list
  attached, so ``auto`` dispatch, eager validation, the sweep runner and
  the CLI all consult one function;
* :func:`capability_matrix` — the full engine×backend support matrix,
  derived by probing :func:`resolve_plan` per registered protocol
  (rendered by ``repro-aggregate list --capabilities``).

What a kernel can run is stated once, in
:data:`repro.simulator.kernels.KERNELS`; this module only turns those
declarations into rejections.  The network is no kernel capability: only a
user-registered model, or Full-Transfer's fan-out under latency, is rejected
on that axis.  Backends carry no capability method of their own: everything
dispatches through plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.simulator.kernels import (
    KERNEL_ENVIRONMENTS,
    KERNEL_FAILURE_MODELS,
    KERNEL_NETWORKS,
    KERNELS,
    KernelDeclaration,
)

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


def _kernels_with(flag: str) -> List[str]:
    """The protocols whose kernel declaration sets ``flag``, sorted."""
    return sorted(name for name, entry in KERNELS.items() if getattr(entry, flag))


def _event_schedule_rejections(
    spec: "ScenarioSpec", entry: Optional[KernelDeclaration]
) -> List[Rejection]:
    """Rejections from the spec's scheduled membership events (both engines)."""
    rejections: List[Rejection] = []
    for event in spec.events:
        kind = event["event"]
        if kind not in ("failure", "graceful-departure", "value-change", "join", "churn"):
            rejections.append(Rejection(
                "events", kind, f"{kind!r} events require the agent engine",
            ))
            continue
        if kind in ("failure", "graceful-departure", "churn") \
                and event["model"] not in KERNEL_FAILURE_MODELS:
            label = {"churn": "churn failure model",
                     "graceful-departure": "graceful-departure model"}.get(kind, "failure model")
            rejections.append(Rejection(
                "events", event["model"],
                f"{label} {event['model']!r} is not vectorised "
                f"(supported models: {', '.join(KERNEL_FAILURE_MODELS)})",
            ))
        if kind == "value-change" and entry is not None and not entry.value_carrying:
            rejections.append(Rejection(
                "events", "value-change",
                f"value-change events need a value-carrying kernel; "
                f"{spec.protocol!r} aggregates counts",
            ))
        arrivals = kind == "join" or (
            kind == "churn" and int(event.get("arrivals_per_round", 0)) > 0
        )
        if arrivals and spec.environment != "uniform":
            what = "'join' events are" if kind == "join" else "churn with arrivals is"
            rejections.append(Rejection(
                "events", kind,
                f"{what} only vectorised under uniform gossip "
                "(a static or trace topology has no slots for new hosts); "
                f"environment {spec.environment!r} requires the agent engine",
            ))
    return rejections


def _environment_rejections(
    spec: "ScenarioSpec", entry: Optional[KernelDeclaration]
) -> List[Rejection]:
    """Rejections from the gossip environment."""
    rejections: List[Rejection] = []
    if spec.environment not in KERNEL_ENVIRONMENTS:
        known = ", ".join(repr(name) for name in KERNEL_ENVIRONMENTS)
        rejections.append(Rejection(
            "environment", spec.environment,
            f"environment {spec.environment!r} is not vectorised "
            f"(vectorised environments: {known})",
        ))
    if spec.environment != "uniform" and entry is not None and entry.fan_out:
        rejections.append(Rejection(
            "environment", spec.environment,
            f"protocol {spec.protocol!r} is only vectorised under uniform gossip "
            f"(its kernel takes no topology); environment {spec.environment!r} "
            "requires the agent engine",
        ))
    if spec.environment == "trace" and spec.on_calendar:
        rejections.append(Rejection(
            "environment", "trace",
            "trace replay is not vectorised on the calendar (engine='events' or a network "
            "that delays messages): its per-round CSR is keyed by a round index that the "
            "event calendar does not advance; it requires the agent engine",
        ))
    elif spec.environment == "trace" and bool(spec.environment_params.get("broadcast", False)):
        rejections.append(Rejection(
            "environment", "broadcast",
            "broadcast trace gossip (every in-range neighbour hears each send) "
            "is not vectorised; it requires the agent engine",
        ))
    return rejections


def _network_rejections(
    spec: "ScenarioSpec", entry: Optional[KernelDeclaration]
) -> List[Rejection]:
    """Rejections from the network model (at most one)."""
    if spec.network not in KERNEL_NETWORKS:
        known = ", ".join(repr(name) for name in KERNEL_NETWORKS)
        return [Rejection(
            "network", spec.network,
            f"network model {spec.network!r} is not vectorised under "
            f"engine={spec.engine!r} (kernels support {known})",
        )]
    if entry is not None and entry.fan_out and spec.on_calendar:
        return [Rejection(
            "network", spec.network,
            f"protocol {spec.protocol!r} is only vectorised over an instant network (its round "
            f"is a whole-population fan-out, with no per-tick form): {spec.network!r} with "
            "these parameters delays messages and requires the agent engine",
        )]
    return []


def vectorized_rejections(spec: "ScenarioSpec") -> List[Rejection]:
    """Every reason the vectorised backend cannot realise ``spec``.

    An empty list means the spec has a fast path (on either engine).  The
    checks run in a fixed order per engine, so the first rejection's
    ``reason`` is the headline every error message quotes.  Under
    ``engine="events"`` only a calendar-capable kernel counts: a protocol
    without one is rejected up front and nothing kernel-specific (its
    parameters, the membership schedule) is screened.
    """
    calendar = spec.engine == "events"
    entry = KERNELS.get(spec.protocol)
    rejections: List[Rejection] = []
    if calendar and (entry is None or not entry.calendar):
        entry = None
        supported = ", ".join(repr(name) for name in _kernels_with("calendar"))
        rejections.append(Rejection(
            "protocol", spec.protocol,
            f"the event calendar is only vectorised for {supported}; "
            f"protocol {spec.protocol!r} under engine='events' requires the agent engine",
        ))
    rejections.extend(_environment_rejections(spec, entry))
    if spec.group_relative and spec.environment == "uniform":
        rejections.append(Rejection(
            "accounting", "group_relative",
            "group-relative error accounting needs an environment that defines "
            "groups (ring, grid, random-geometric, erdos-renyi or spatial-grid)",
        ))
    rejections.extend(_network_rejections(spec, entry))
    if entry is None:
        if calendar:
            return rejections
        supported = ", ".join(sorted(KERNELS))
        rejections.append(Rejection(
            "protocol", spec.protocol,
            f"protocol {spec.protocol!r} has no vectorised kernel (kernels: {supported})",
        ))
    else:
        if bool(spec.protocol_params.get("adaptive", False)) and spec.on_calendar:
            rejections.append(Rejection(
                "protocol", "adaptive",
                "indegree-adaptive reversion is not vectorised on the calendar (engine='events' "
                "or a network that delays messages): it has no per-tick indegree; use the agent "
                "engine",
            ))
        if spec.mode not in entry.modes:
            modes = " or ".join(repr(mode) for mode in entry.modes)
            rejections.append(Rejection(
                "mode", spec.mode,
                f"protocol {spec.protocol!r} is only vectorised in mode {modes}",
            ))
        unknown = set(spec.protocol_params) - entry.params
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
    hand-maintained, so a new kernel declaration (or a newly
    calendar-capable one) shows up in ``repro-aggregate list
    --capabilities`` automatically.  Cells are ``"yes"``, ``"no"`` (with
    the first rejection recorded in ``reasons``) or ``"n/a"`` (the probe
    spec itself does not validate).
    """
    from repro.api.registry import PROTOCOLS
    from repro.api.spec import ScenarioSpec

    engines = ("rounds", "events")
    rows: List[Dict[str, object]] = []
    for protocol in sorted(PROTOCOLS.keys()):
        entry = KERNELS.get(protocol)
        mode = next(iter(entry.modes)) if entry else "exchange"
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
            "modes": "/".join(entry.modes),
            "parameters": ",".join(sorted(entry.params)),
            "topology": "uniform-only" if entry.fan_out else "yes",
        }
        for name, entry in sorted(KERNELS.items())
    ]
    notes = [
        f"vectorised environments: {', '.join(KERNEL_ENVIRONMENTS)}",
        f"vectorised failure models: {', '.join(KERNEL_FAILURE_MODELS)}",
        "event-calendar (engine='events') vectorisation: "
        f"{', '.join(_kernels_with('calendar'))} on "
        f"{', '.join(KERNEL_NETWORKS)} networks (no trace replay)",
    ]
    return {"engines": engines, "backends": ("agent", "vectorized"),
            "rows": rows, "kernels": kernels, "notes": notes}
