"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a frozen, validated, JSON-serialisable
description of one simulation run — every component referred to by its
registry name (:mod:`repro.api.registry`) plus plain-data parameters.  The
spec is the single front door to the simulator:

>>> from repro.api import ScenarioSpec, run_scenario
>>> spec = ScenarioSpec(
...     protocol="push-sum-revert",
...     protocol_params={"reversion": 0.1},
...     environment="uniform",
...     workload="uniform",
...     n_hosts=200,
...     rounds=30,
...     seed=7,
...     events=({"event": "failure", "round": 15, "model": "correlated",
...              "fraction": 0.5, "highest": True},),
... )
>>> result = run_scenario(spec)
>>> result.final_error() < 15.0
True

Validation is eager: unknown registry names, bad constructor parameters,
malformed events and invalid engine options all raise at construction
time, not at the first ``build()`` on a worker process.  Specs round-trip
losslessly through :meth:`ScenarioSpec.to_dict` / :meth:`from_dict` and
:meth:`to_json` / :meth:`from_json`, which is what makes them cheap to
ship across process boundaries (see :mod:`repro.api.sweep`) and to commit
next to experiment outputs.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.api.plan import resolve_plan
from repro.api.registry import ENVIRONMENTS, FAILURES, NETWORKS, PROTOCOLS, WORKLOADS
from repro.core.cutoff import default_cutoff, linear_cutoff, no_decay_cutoff, scaled_cutoff
from repro.core.departure import GracefulDepartureEvent
from repro.events.clocks import EngineSettings
from repro.failures.schedule import ChurnProcess, FailureEvent, JoinEvent, ValueChangeEvent
from repro.simulator.result import SimulationResult

if TYPE_CHECKING:  # pragma: no cover - typing only; build() imports the engine it builds
    from repro.simulator.engine import Simulation

__all__ = ["ScenarioSpec", "run_scenario", "NAMED_CUTOFFS"]

#: Names accepted for the ``cutoff`` protocol parameter of the sketch
#: protocols, so that JSON specs never need to reference callables.
NAMED_CUTOFFS: Dict[str, Any] = {
    "default": default_cutoff,
    "off": no_decay_cutoff,
    "slow": scaled_cutoff(2.0),
}

_EVENT_KINDS = ("failure", "graceful-departure", "join", "value-change", "churn")

#: The one-shot departures: the model picks who leaves, the kind says how.
_DEPARTURES = {"failure": FailureEvent, "graceful-departure": GracefulDepartureEvent}

#: Protocols whose ``cutoff`` parameter is an integer age in rounds, not a
#: freshness *function* — :data:`NAMED_CUTOFFS` names do not apply to them.
_INTEGER_CUTOFF_PROTOCOLS = frozenset({"extrema-reset"})


def _jsonify(value: Any) -> Any:
    """Deep-copy ``value`` with tuples normalised to lists.

    JSON has no tuple type, so specs normalise containers at construction —
    that is what makes ``from_json(to_json(spec)) == spec`` hold even when a
    caller writes ``cluster_means=(35.0, 60.0, 85.0)``.
    """
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, Mapping):
        return {key: _jsonify(item) for key, item in value.items()}
    return copy.deepcopy(value)


def _frozen_copy(params: Optional[Mapping]) -> Dict[str, Any]:
    """A private, JSON-normalised deep copy of a parameter mapping."""
    if params is None:
        return {}
    if not isinstance(params, Mapping):
        raise ValueError(f"expected a mapping of parameters, got {type(params).__name__}")
    return {key: _jsonify(value) for key, value in params.items()}


def _validate_event(entry: Mapping) -> Dict[str, Any]:
    """Validate one event dict and return a normalised copy."""
    if not isinstance(entry, Mapping):
        raise ValueError(f"events must be dicts, got {type(entry).__name__}")
    entry = _jsonify(dict(entry))
    kind = entry.get("event")
    if kind not in _EVENT_KINDS:
        raise ValueError(f"unknown event kind {kind!r}; expected one of {_EVENT_KINDS}")
    if kind == "churn":
        for bound in ("start", "stop"):
            if not isinstance(entry.get(bound), int) or entry[bound] < 0:
                raise ValueError(f"churn events need non-negative integer {bound!r} rounds")
    else:
        if not isinstance(entry.get("round"), int) or entry["round"] < 0:
            raise ValueError(f"{kind} events need a non-negative integer 'round'")
    if kind in _DEPARTURES or kind == "churn":
        model = entry.get("model")
        if not isinstance(model, str):
            raise ValueError(f"{kind} events need a 'model' registry name, got {model!r}")
        reserved = (
            ("event", "round", "model")
            if kind in _DEPARTURES
            else ("event", "start", "stop", "model", "arrivals_per_round")
        )
        params = {key: value for key, value in entry.items() if key not in reserved}
        FAILURES.validate_params(model, **params)
        FAILURES.create(model, **params)  # the model's own checks (fraction in [0, 1], ...)
    elif kind == "join":
        if not isinstance(entry.get("count"), int) or entry["count"] < 1:
            raise ValueError("join events need a positive integer 'count'")
    else:  # value-change
        values = entry.get("values")
        if not isinstance(values, Mapping) or not values:
            raise ValueError("value-change events need a non-empty 'values' mapping")
        for key, value in values.items():
            if not str(key).isdecimal():
                raise ValueError(f"value-change key {key!r} is not a host id (an integer >= 0)")
            if not np.isfinite(float(value)):
                raise ValueError(f"value-change value {value!r} of host {key!r} is not finite")
        entry["values"] = {str(key): float(value) for key, value in values.items()}
    return entry


def _build_event(entry: Mapping) -> List[object]:
    """Instantiate the scheduled event(s) described by one event dict."""
    kind = entry["event"]
    if kind in _DEPARTURES:
        params = {k: v for k, v in entry.items() if k not in ("event", "round", "model")}
        model = FAILURES.create(entry["model"], **params)
        return [_DEPARTURES[kind](round=entry["round"], model=model)]
    if kind == "join":
        return [JoinEvent(round=entry["round"], count=entry["count"])]
    if kind == "value-change":
        new_values = {int(key): float(value) for key, value in entry["values"].items()}
        return [ValueChangeEvent(round=entry["round"], new_values=new_values)]
    # churn: expands into one failure (and optionally one join) per round
    params = {
        k: v
        for k, v in entry.items()
        if k not in ("event", "start", "stop", "model", "arrivals_per_round")
    }
    process = ChurnProcess(
        start=entry["start"],
        stop=entry["stop"],
        model=FAILURES.create(entry["model"], **params),
        arrivals_per_round=int(entry.get("arrivals_per_round", 0)),
    )
    return list(process.events())


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, declarative description of one simulation run.

    Attributes
    ----------
    protocol / protocol_params:
        Registry name and constructor parameters of the aggregation
        protocol.  Sketch protocols may give ``cutoff`` as one of the
        names in :data:`NAMED_CUTOFFS` (``"default"``, ``"off"``,
        ``"slow"``) so the spec stays JSON-clean.
    environment / environment_params:
        Registry name and parameters of the gossip environment; every
        environment factory receives :attr:`n_hosts` automatically.
    workload / workload_params:
        Registry name and parameters of the value generator.  When
        ``workload_params`` carries no ``seed``, the workload is drawn
        with the scenario :attr:`seed` so one integer pins the whole run.
    network / network_params:
        Registry name and parameters of the network model
        (:mod:`repro.network`) deciding the fate of every message:
        ``"perfect"`` (the default — instant, reliable delivery,
        bit-identical to pre-network results), ``"bernoulli-loss"`` or
        ``"latency"``.  Validation is eager: bad parameters fail here,
        and a latency-capable model combined with ``mode="exchange"`` is
        rejected at construction under the round engine (atomic push/pull
        exchanges cannot be deferred across a round barrier);
        ``engine="events"`` lifts the rejection by realising an exchange
        as a request event plus a timed reply event.
    engine / engine_params:
        Which simulation engine realises the scenario: ``"rounds"`` (the
        default — the lockstep :class:`repro.Simulation`) or ``"events"``
        (the continuous-time :class:`repro.events.EventSimulation`).
        ``engine_params`` configures the event engine and is rejected
        under ``engine="rounds"``; its keys are the fields of
        :class:`repro.events.EngineSettings` (``duration`` defaults to
        :attr:`rounds` sample intervals), validated eagerly.
    events:
        Scheduled membership events as plain dicts, e.g.
        ``{"event": "failure", "round": 20, "model": "uncorrelated",
        "fraction": 0.5}``; ``"graceful-departure"`` takes the same keys
        but lets the leavers sign off first (:mod:`repro.core.departure`:
        mass handed to a survivor, sketch positions disowned), and
        ``"join"``, ``"value-change"`` and ``"churn"`` follow
        :mod:`repro.failures`.
    rounds / mode / seed / group_relative / store_estimates:
        Engine options, passed straight to :class:`repro.Simulation`.
        ``mode="exchange"`` is rejected at construction for a protocol
        whose class sets ``supports_exchange = False`` (Full-Transfer).
    backend:
        Execution backend (:mod:`repro.api.backends`): ``"agent"`` (the
        per-host reference engine), ``"vectorized"`` (the NumPy kernels) or
        ``"auto"`` (default — vectorised whenever the scenario's protocol /
        environment / failure / workload combination has a kernel, agent
        otherwise).  An explicit backend is validated eagerly: requesting
        ``"vectorized"`` for an unsupported combination fails here, at
        construction, with the reason.
    name:
        Optional label used by sweep tables and reports.
    """

    protocol: str
    environment: str = "uniform"
    workload: str = "uniform"
    n_hosts: int = 1000
    rounds: int = 60
    mode: str = "exchange"
    seed: int = 0
    protocol_params: Dict[str, Any] = field(default_factory=dict)
    environment_params: Dict[str, Any] = field(default_factory=dict)
    workload_params: Dict[str, Any] = field(default_factory=dict)
    network: str = "perfect"
    network_params: Dict[str, Any] = field(default_factory=dict)
    engine: str = "rounds"
    engine_params: Dict[str, Any] = field(default_factory=dict)
    events: Tuple[Dict[str, Any], ...] = ()
    group_relative: bool = False
    store_estimates: bool = False
    backend: str = "auto"
    name: str = ""

    # -------------------------------------------------------------- validation
    def __post_init__(self):
        object.__setattr__(self, "protocol_params", _frozen_copy(self.protocol_params))
        object.__setattr__(self, "environment_params", _frozen_copy(self.environment_params))
        object.__setattr__(self, "workload_params", _frozen_copy(self.workload_params))
        object.__setattr__(self, "network_params", _frozen_copy(self.network_params))
        object.__setattr__(self, "engine_params", _frozen_copy(self.engine_params))
        object.__setattr__(
            self, "events", tuple(_validate_event(entry) for entry in self.events)
        )
        if self.mode not in ("push", "exchange"):
            raise ValueError(f"unknown mode {self.mode!r}; expected 'push' or 'exchange'")
        if not isinstance(self.n_hosts, int) or self.n_hosts < 1:
            raise ValueError(f"n_hosts must be a positive integer, got {self.n_hosts!r}")
        if not isinstance(self.rounds, int) or self.rounds < 1:
            raise ValueError(f"rounds must be a positive integer, got {self.rounds!r}")
        if not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.engine not in ("rounds", "events"):
            raise ValueError(
                f"unknown engine {self.engine!r}; expected 'rounds' or 'events'"
            )
        if self.engine == "events":
            self.engine_settings()  # validates every engine parameter
        elif self.engine_params:
            raise ValueError(
                f"engine_params {sorted(self.engine_params)} apply to engine='events' only; "
                "the round engine is configured by 'rounds' and 'mode'"
            )
        PROTOCOLS.validate_params(self.protocol, **self.protocol_params)
        if self.mode == "exchange" and not getattr(
            PROTOCOLS.get(self.protocol), "supports_exchange", True
        ):
            raise ValueError(
                f"protocol {self.protocol!r} does not support push/pull exchanges; "
                "use mode='push'"
            )
        ENVIRONMENTS.validate_params(self.environment, self.n_hosts, **self.environment_params)
        WORKLOADS.validate_params(self.workload, self.n_hosts, **self._workload_call_params())
        NETWORKS.validate_params(self.network, **self.network_params)
        # Instantiating the model runs its constructor validation (loss
        # probabilities, delay bounds and distribution parameters) eagerly.
        # A rounds spec whose network can defer delivery runs on the calendar,
        # which the round engine's exchange mode cannot honour, since an
        # atomic push/pull has no "later" inside a lockstep round.  The event
        # engine realises an exchange as a request event plus a timed reply
        # event, so the combination is legal there.
        NETWORKS.create(self.network, **self.network_params)
        if self.mode == "exchange" and self.engine == "rounds" and self.on_calendar:
            raise ValueError(
                f"network {self.network!r} can delay message delivery, but "
                "mode='exchange' performs atomic push/pull exchanges the round "
                "engine cannot defer; use the event engine (engine='events'), "
                "mode='push', or a loss-only network model (e.g. 'bernoulli-loss')"
            )
        cutoff = self.protocol_params.get("cutoff")
        if self.protocol in _INTEGER_CUTOFF_PROTOCOLS:
            if cutoff is not None and (isinstance(cutoff, bool) or not isinstance(cutoff, int)):
                raise ValueError(
                    f"protocol {self.protocol!r} takes a positive integer 'cutoff' "
                    f"(a maximum age in rounds), got {cutoff!r}; named cutoff "
                    "functions apply to the sketch protocols only"
                )
            if cutoff is not None and cutoff < 1:
                raise ValueError(f"protocol {self.protocol!r} needs cutoff >= 1, got {cutoff}")
        elif isinstance(cutoff, str):
            if cutoff not in NAMED_CUTOFFS:
                raise ValueError(
                    f"unknown cutoff name {cutoff!r}; expected one of {sorted(NAMED_CUTOFFS)} "
                    "or a [intercept, slope] pair"
                )
        elif isinstance(cutoff, (list, tuple)):
            if len(cutoff) != 2 or not all(isinstance(item, (int, float)) for item in cutoff):
                raise ValueError(
                    f"cutoff pairs must be [intercept, slope] numbers, got {cutoff!r}"
                )
            linear_cutoff(float(cutoff[0]), float(cutoff[1]))  # bounds-checks eagerly
        # Backend validation runs last so its "cannot run this scenario"
        # messages only fire for otherwise-well-formed specs.
        from repro.api.backends import validate_backend

        validate_backend(self)

    def __hash__(self):
        # The generated frozen-dataclass hash chokes on the dict fields;
        # hash the canonical key instead — equal specs have equal keys,
        # regardless of parameter insertion order.
        return hash(self.key())

    def engine_settings(self) -> EngineSettings:
        """The event engine's validated settings (defaults resolved).

        Only meaningful for ``engine="events"``; the default duration is
        :attr:`rounds` sample intervals, so a spec switched between
        engines covers the same number of recorded rounds.
        """
        return EngineSettings.from_params(self.engine_params, self.rounds)

    @property
    def on_calendar(self) -> bool:
        """Whether this spec runs on the event calendar (DESIGN.md §14).

        It does under ``engine="events"``, and on rounds wherever the network
        model can delay a message (its ``has_latency``): lockstep rounds are
        the calendar's degenerate case only while nothing is in flight.  The
        kernel driver, the plan and the exchange-mode validation all ask this.
        """
        return self.engine == "events" or self.build_network().has_latency

    # ------------------------------------------------------------- construction
    def _workload_call_params(self) -> Dict[str, Any]:
        params = dict(self.workload_params)
        params.setdefault("seed", self.seed)
        return params

    def _resolved_protocol_params(self) -> Dict[str, Any]:
        params = dict(self.protocol_params)
        if self.protocol in _INTEGER_CUTOFF_PROTOCOLS:
            return params  # integer age cutoff; nothing to resolve
        cutoff = params.get("cutoff")
        if isinstance(cutoff, str):
            params["cutoff"] = NAMED_CUTOFFS[cutoff]
        elif isinstance(cutoff, (list, tuple)):
            intercept, slope = cutoff
            params["cutoff"] = linear_cutoff(float(intercept), float(slope))
        elif cutoff is None and "cutoff" in params:
            # JSON ``"cutoff": null`` means "no decay" — the same as the
            # named "off" cutoff, and what the vectorised kernels accept;
            # resolving it here keeps the agent protocols (which expect a
            # callable) from crashing mid-run.
            params["cutoff"] = NAMED_CUTOFFS["off"]
        return params

    def build_protocol(self):
        """A fresh protocol instance."""
        return PROTOCOLS.create(self.protocol, **self._resolved_protocol_params())

    def build_environment(self):
        """A fresh environment instance (caches and registrations reset)."""
        return ENVIRONMENTS.create(self.environment, self.n_hosts, **self.environment_params)

    def build_values(self) -> np.ndarray:
        """The initial host values for this scenario, as one float64 array.

        A kernel run copies it once; the agent engines take ``.tolist()``.
        Raises ``ValueError`` for a non-finite value: one NaN or infinity
        would silently turn every error of the run into ``nan`` on either
        backend.
        """
        values = np.asarray(
            WORKLOADS.create(self.workload, self.n_hosts, **self._workload_call_params()),
            dtype=float,
        )
        finite = np.isfinite(values)
        if not finite.all():
            index = int(np.flatnonzero(~finite)[0])
            raise ValueError(
                f"workload {self.workload!r} produced a non-finite value "
                f"({float(values[index])!r}) at index {index}; aggregates need finite host values"
            )
        return values

    def build_network(self):
        """A fresh network model instance.

        The agent engine takes ``None`` for the perfect network so its
        fast path — bit-identical to the pre-network-layer engine — stays
        in place; :meth:`build` performs that mapping.
        """
        return NETWORKS.create(self.network, **self.network_params)

    def build_events(self) -> List[object]:
        """Fresh scheduled-event instances."""
        built: List[object] = []
        for entry in self.events:
            built.extend(_build_event(entry))
        return built

    def build(self, *, probe=None) -> Simulation:
        """A ready-to-run agent engine for :attr:`engine`.

        :class:`repro.Simulation` for ``engine="rounds"``, and
        :class:`repro.events.EventSimulation` over :meth:`engine_settings`
        for ``engine="events"``; :attr:`backend` is not consulted.  Use
        :meth:`run` / :func:`run_scenario` to dispatch through the backend
        layer.  ``probe`` is a runtime observer (:mod:`repro.obs`); it never
        enters :meth:`key`.
        """
        if self.engine == "events":
            from repro.events.engine import EventSimulation as engine_class

            engine_options = {"settings": self.engine_settings()}
        else:
            from repro.simulator.engine import Simulation as engine_class

            engine_options = {}
        return engine_class(
            self.build_protocol(),
            self.build_environment(),
            self.build_values().tolist(),
            seed=self.seed,
            mode=self.mode,
            events=self.build_events(),
            network=None if self.network == "perfect" else self.build_network(),
            group_relative=self.group_relative,
            store_estimates=self.store_estimates,
            probe=probe,
            **engine_options,
        )

    def resolved_backend(self) -> str:
        """The concrete backend this scenario runs on (``"auto"`` resolved)."""
        return resolve_plan(self).backend

    def key(self) -> str:
        """The spec's stable canonical hash (the result-store address).

        The key is the SHA-256 of the key-sorted JSON form of the spec —
        every field that can influence the simulation: components and their
        parameters, population, rounds, mode, seed, events, network,
        engine and its parameters, ``group_relative`` / ``store_estimates``
        — with two normalisations:

        * ``name`` is excluded (a label changes reports, never results), and
        * ``backend`` is replaced by :meth:`resolved_backend`, so an
          ``"auto"`` spec shares its cache entry with the explicit backend
          it resolves to — and changes address automatically when a new
          kernel makes ``"auto"`` resolve differently.

        Canonical JSON (sorted keys, fixed separators) makes the key
        independent of dict insertion order and of the process that
        computes it; ``tests/test_store.py`` pins both properties.  The
        digest is computed once per instance and kept in ``__dict__`` — not
        a field, so equality, ``replace`` and ``to_dict`` never see it.
        """
        digest = self.__dict__.get("_key")
        if digest is None:
            payload = self.to_dict()
            payload.pop("name", None)
            payload["backend"] = self.resolved_backend()
            canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            digest = self.__dict__["_key"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        return digest

    def run(self, *, store=None, refresh: bool = False, probe=None) -> SimulationResult:
        """Run the scenario for :attr:`rounds` rounds on its backend.

        With a :class:`repro.store.ResultStore` the store is consulted
        first (unless ``refresh`` forces re-execution) and executed results
        are written back — see :func:`run_scenario`.  ``probe`` attaches a
        :mod:`repro.obs` observer for the duration of the run.
        """
        from repro.api.backends import run_with_backend
        from repro.obs.probe import NULL_PROBE

        return run_with_backend(
            self, store=store, refresh=refresh, probe=probe if probe is not None else NULL_PROBE
        )

    # ------------------------------------------------------------ serialisation
    def to_dict(self) -> Dict[str, Any]:
        """A plain-dict representation that :meth:`from_dict` restores exactly."""
        payload = {}
        for name in _FIELD_NAMES:
            value = getattr(self, name)
            # Parameter dicts and the event tuple are the only containers;
            # every other field is an immutable scalar.
            payload[name] = _jsonify(value) if isinstance(value, (dict, tuple)) else value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output (validates eagerly)."""
        if not isinstance(payload, Mapping):
            raise TypeError(f"expected a mapping, got {type(payload).__name__}")
        known = {spec_field.name for spec_field in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                f"unknown scenario fields {sorted(unknown)}; expected a subset of {sorted(known)}"
            )
        if "protocol" not in payload:
            raise ValueError("scenario dicts must name a 'protocol'")
        kwargs = dict(payload)
        if "events" in kwargs:
            kwargs["events"] = tuple(kwargs["events"])
        return cls(**kwargs)

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    # ----------------------------------------------------------------- utility
    def replace(self, **changes) -> "ScenarioSpec":
        """A copy with ``changes`` applied (re-validates)."""
        return dataclasses.replace(self, **changes)

    def label(self) -> str:
        """A short human-readable label (the name, or a derived summary)."""
        if self.name:
            return self.name
        return f"{self.protocol}/{self.environment}/n={self.n_hosts}/seed={self.seed}"


_FIELD_NAMES = tuple(spec_field.name for spec_field in dataclasses.fields(ScenarioSpec))


def run_scenario(
    spec: ScenarioSpec, *, store=None, refresh: bool = False, probe=None
) -> SimulationResult:
    """Build and run ``spec``; equal specs produce identical results.

    Parameters
    ----------
    store:
        An optional :class:`repro.store.ResultStore`.  When given, the
        store is checked first — a hit returns the cached result without
        executing anything, bit-identical to the run that produced it —
        and a miss executes the scenario and writes the result back.
    refresh:
        Skip the store lookup (but still write the fresh result back);
        use to overwrite suspect entries.
    probe:
        An optional :class:`repro.obs.Probe` (e.g. a
        :class:`~repro.obs.TraceRecorder` or
        :class:`~repro.obs.MetricsRegistry`) that observes the run — phase
        spans, per-round counters, store hits/misses.  Probes only watch;
        they never draw from the RNG streams, so results stay bit-identical
        with or without one.
    """
    if not isinstance(spec, ScenarioSpec):
        raise TypeError(f"run_scenario expects a ScenarioSpec, got {type(spec).__name__}")
    return spec.run(store=store, refresh=refresh, probe=probe)
