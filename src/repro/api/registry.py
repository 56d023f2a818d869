"""String-keyed registries of protocols, environments, failures and workloads.

The declarative scenario layer (:mod:`repro.api.spec`) refers to every
component by name, so that a complete experiment can be written down as a
plain dict / JSON document.  This module provides the four registries that
resolve those names:

* :data:`PROTOCOLS` — aggregation protocols (``"push-sum-revert"``,
  ``"count-sketch-reset"``, ``"push-sum"``, …); entries are the protocol
  classes themselves.
* :data:`ENVIRONMENTS` — gossip environment *factories*.  Every factory
  takes the population size as its first argument (plus keyword
  parameters) and returns a ready environment, so the spec layer can hand
  the host count through uniformly.
* :data:`FAILURES` — failure/churn models (``"uncorrelated"``,
  ``"correlated"``, ``"explicit"``, ``"bernoulli"``).
* :data:`WORKLOADS` — value generators; factories take the population
  size plus a ``seed`` keyword and return one value per host (the built-in
  ones as a float64 array).
* :data:`NETWORKS` — network models deciding message fate
  (``"perfect"``, ``"bernoulli-loss"``, ``"latency"``; see
  :mod:`repro.network`).

New components self-register with the matching decorator::

    from repro.api import register_protocol

    @register_protocol("my-protocol")
    class MyProtocol(ExchangeProtocol):
        ...

The components shipped in :mod:`repro.core`, :mod:`repro.baselines`,
:mod:`repro.environments`, :mod:`repro.failures`, :mod:`repro.network` and
:mod:`repro.workloads` are registered by name at the bottom of this module
and imported on first lookup: a built-in protocol, failure model or network
is a ``"module:attr"`` reference that :meth:`Registry.get` resolves once and
memoises, and the environment and workload factories import what they
build inside their own bodies.  Keys (and their order) exist from
import time on; a run imports only the components it names.
"""

from __future__ import annotations

import difflib
import inspect
from typing import Callable, Dict, Iterator, List, Optional, Union

import numpy as np

from repro._lazy import resolve

__all__ = [
    "Registry",
    "UnknownKeyError",
    "PROTOCOLS",
    "ENVIRONMENTS",
    "FAILURES",
    "WORKLOADS",
    "NETWORKS",
    "register_protocol",
    "register_environment",
    "register_failure",
    "register_workload",
    "register_network",
]


class UnknownKeyError(KeyError):
    """Lookup of a name that was never registered (includes suggestions)."""

    def __init__(self, kind: str, key: str, known: List[str]):
        self.kind = kind
        self.key = key
        self.known = known
        close = difflib.get_close_matches(key, known, n=3)
        hint = f"; did you mean {', '.join(repr(match) for match in close)}?" if close else ""
        super().__init__(
            f"unknown {kind} {key!r}; registered {kind}s: {', '.join(sorted(known))}{hint}"
        )

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class Registry:
    """An ordered, string-keyed registry of factories (classes or callables)."""

    def __init__(self, kind: str):
        self.kind = kind
        #: A factory, or a ``"module:attr"`` reference until the first :meth:`get`.
        self._entries: Dict[str, Union[Callable, str]] = {}
        #: ``inspect.signature`` per key (``None``: not introspectable).  A
        #: key can never be re-registered, so the memo cannot go stale.
        self._signatures: Dict[str, Optional[inspect.Signature]] = {}

    # ------------------------------------------------------------ registration
    def register(self, key: str, factory: Union[Callable, str, None] = None):
        """Register ``factory`` under ``key`` (usable as a decorator).

        ``factory`` may be a ``"module:attr"`` reference, imported on the
        first :meth:`get`.  Registering an existing key raises
        ``ValueError`` — shadowing a component silently would make specs
        ambiguous.
        """

        def _register(target: Callable) -> Callable:
            if not isinstance(key, str) or not key:
                raise ValueError(f"{self.kind} keys must be non-empty strings, got {key!r}")
            if key in self._entries:
                raise ValueError(f"{self.kind} {key!r} is already registered")
            self._entries[key] = target
            return target

        if factory is not None:
            return _register(factory)
        return _register

    # ------------------------------------------------------------------ lookup
    def get(self, key: str) -> Callable:
        """The factory registered under ``key``; raises :class:`UnknownKeyError`."""
        try:
            entry = self._entries[key]
        except KeyError:
            raise UnknownKeyError(self.kind, key, list(self._entries)) from None
        if isinstance(entry, str):
            entry = self._entries[key] = resolve(entry)
        return entry

    def create(self, key: str, *args, **kwargs):
        """Instantiate the factory registered under ``key``."""
        return self.get(key)(*args, **kwargs)

    def validate_params(self, key: str, *args, **kwargs) -> None:
        """Check eagerly that ``kwargs`` bind to the factory's signature.

        This is what lets :class:`~repro.api.spec.ScenarioSpec` reject a
        typo like ``reversions=0.1`` at construction time instead of at the
        first ``build()`` inside a process pool.
        """
        try:
            signature = self._signatures[key]
        except KeyError:
            try:
                signature = inspect.signature(self.get(key))
            except (TypeError, ValueError):  # builtins without introspectable signatures
                signature = None
            self._signatures[key] = signature
        if signature is None:
            return
        try:
            signature.bind(*args, **kwargs)
        except TypeError as error:
            raise ValueError(f"invalid parameters for {self.kind} {key!r}: {error}") from None

    def keys(self) -> List[str]:
        """Registered names in registration order."""
        return list(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {len(self)} entries)"


PROTOCOLS = Registry("protocol")
ENVIRONMENTS = Registry("environment")
FAILURES = Registry("failure")
WORKLOADS = Registry("workload")
NETWORKS = Registry("network")

register_protocol = PROTOCOLS.register
register_environment = ENVIRONMENTS.register
register_failure = FAILURES.register
register_workload = WORKLOADS.register
register_network = NETWORKS.register


# --------------------------------------------------------------------------
# Built-in registrations.  Protocols, failure models and networks register as
# "module:attr" references to their classes; environments and workloads
# register as factories with the uniform (n_hosts, **params) calling
# convention the spec layer relies on.  Nothing here imports a component.
# --------------------------------------------------------------------------

def _register_builtins() -> None:
    # ------------------------------------------------------------- protocols
    for key, reference in (
        ("push-sum-revert", "repro.core.push_sum_revert:PushSumRevert"),
        ("push-sum-revert-full-transfer", "repro.core.full_transfer:FullTransferPushSumRevert"),
        ("count-sketch-reset", "repro.core.count_sketch_reset:CountSketchReset"),
        ("invert-average", "repro.core.invert_average:InvertAverage"),
        ("push-sum", "repro.baselines.push_sum:PushSum"),
        ("epoch-push-sum", "repro.baselines.epoch:EpochPushSum"),
        ("sketch-count", "repro.baselines.count_sketch:SketchCount"),
        ("extrema-gossip", "repro.baselines.extrema:ExtremaGossip"),
        ("extrema-reset", "repro.baselines.extrema:ExtremaReset"),
    ):
        PROTOCOLS.register(key, reference)

    # ---------------------------------------------------------- environments
    @register_environment("uniform")
    def _uniform(n_hosts: int):
        from repro.environments.uniform import UniformEnvironment

        return UniformEnvironment(n_hosts)

    @register_environment("ring")
    def _ring(n_hosts: int, *, k: int = 2):
        from repro.environments.neighborhood import NeighborhoodEnvironment
        from repro.topology.graphs import ring_lattice

        return NeighborhoodEnvironment(ring_lattice(n_hosts, k=k))

    @register_environment("grid")
    def _grid(n_hosts: int, *, width: Optional[int] = None, height: Optional[int] = None,
              diagonal: bool = False):
        from repro.environments.neighborhood import NeighborhoodEnvironment
        from repro.topology.graphs import grid_graph

        width, height = _grid_dimensions(n_hosts, width, height)
        return NeighborhoodEnvironment(grid_graph(width, height, diagonal=diagonal))

    @register_environment("random-geometric")
    def _random_geometric(n_hosts: int, *, radius: float = 0.15, graph_seed: int = 0):
        from repro.environments.neighborhood import NeighborhoodEnvironment
        from repro.topology.graphs import random_geometric_graph

        adjacency, _positions = random_geometric_graph(n_hosts, radius, seed=graph_seed)
        return NeighborhoodEnvironment(adjacency)

    @register_environment("erdos-renyi")
    def _erdos_renyi(n_hosts: int, *, p: float = 0.1, graph_seed: int = 0):
        from repro.environments.neighborhood import NeighborhoodEnvironment
        from repro.topology.graphs import erdos_renyi_graph

        # Seed-deterministic G(n, p): the same (n, p, graph_seed) triple
        # yields the same graph on every backend and every machine.
        return NeighborhoodEnvironment(erdos_renyi_graph(n_hosts, p, seed=graph_seed))

    @register_environment("spatial-grid")
    def _spatial_grid(n_hosts: int, *, width: Optional[int] = None, height: Optional[int] = None,
                      max_distance: Optional[int] = None, walk: bool = True):
        from repro.environments.spatial import SpatialGridEnvironment

        width, height = _grid_dimensions(n_hosts, width, height)
        return SpatialGridEnvironment(width, height, max_distance=max_distance, walk=walk)

    @register_environment("trace")
    def _trace(n_hosts: int, *, dataset: Optional[int] = None, devices: Optional[int] = None,
               hours: float = 48.0, trace_seed: Optional[int] = None, community_size: int = 4,
               round_seconds: float = 30.0, group_window_seconds: float = 600.0,
               broadcast: bool = False):
        from repro.environments.trace import TraceEnvironment
        from repro.mobility.synthetic_haggle import generate_haggle_like_trace, haggle_dataset

        if dataset is not None:
            trace = haggle_dataset(dataset, seed=trace_seed)
        else:
            trace = generate_haggle_like_trace(
                devices if devices is not None else n_hosts,
                duration_hours=hours,
                seed=0 if trace_seed is None else trace_seed,
                community_size=community_size,
            )
        if trace.n_devices != n_hosts:
            raise ValueError(
                f"trace environment has {trace.n_devices} devices but the scenario "
                f"declares n_hosts={n_hosts}; set n_hosts to the trace's device count"
            )
        return TraceEnvironment(
            trace,
            round_seconds=round_seconds,
            group_window_seconds=group_window_seconds,
            broadcast=broadcast,
        )

    # -------------------------------------------------------------- failures
    for key, name in (
        ("uncorrelated", "UncorrelatedFailure"),
        ("correlated", "CorrelatedFailure"),
        ("explicit", "ExplicitFailure"),
        ("bernoulli", "BernoulliChurn"),
    ):
        FAILURES.register(key, f"repro.failures.models:{name}")

    # -------------------------------------------------------------- networks
    for key, name in (
        ("perfect", "PerfectNetwork"),
        ("bernoulli-loss", "BernoulliLossNetwork"),
        ("latency", "LatencyNetwork"),
    ):
        NETWORKS.register(key, f"repro.network.models:{name}")

    # ------------------------------------------------------------- workloads
    @register_workload("uniform")
    def _uniform_workload(n_hosts: int, *, seed: Optional[int] = None,
                          low: float = 0.0, high: float = 100.0):
        from repro.workloads.values import uniform_array

        return uniform_array(n_hosts, low, high, seed=seed)

    @register_workload("constant")
    def _constant_workload(n_hosts: int, *, seed: Optional[int] = None, value: float = 1.0):
        from repro.workloads.values import constant_array

        return constant_array(n_hosts, value)

    @register_workload("normal")
    def _normal_workload(n_hosts: int, *, seed: Optional[int] = None,
                         mean: float = 50.0, std: float = 15.0):
        from repro.workloads.values import normal_array

        return normal_array(n_hosts, mean, std, seed=seed)

    @register_workload("zipf")
    def _zipf_workload(n_hosts: int, *, seed: Optional[int] = None, exponent: float = 1.5,
                       scale: float = 1.0, clamp: Optional[float] = None):
        from repro.workloads.values import zipf_array

        values = zipf_array(n_hosts, exponent, scale, seed=seed)
        return values if clamp is None else np.minimum(values, float(clamp))

    @register_workload("clustered")
    def _clustered_workload(n_hosts: int, *, seed: Optional[int] = None,
                            cluster_means: tuple = (10.0, 50.0, 90.0), std: float = 5.0):
        from repro.workloads.values import clustered_array

        return clustered_array(n_hosts, tuple(cluster_means), std, seed=seed)


def _grid_dimensions(n_hosts: int, width: Optional[int], height: Optional[int]):
    """Resolve (width, height) for grid environments, defaulting to near-square."""
    if width is not None and height is not None:
        if width * height != n_hosts:
            raise ValueError(
                f"grid of {width}x{height} holds {width * height} hosts, "
                f"but the scenario declares n_hosts={n_hosts}"
            )
        return int(width), int(height)
    if width is not None or height is not None:
        known = width if width is not None else height
        other, remainder = divmod(n_hosts, int(known))
        if remainder:
            raise ValueError(f"n_hosts={n_hosts} is not divisible by grid dimension {known}")
        return (int(known), other) if width is not None else (other, int(known))
    side = int(round(n_hosts ** 0.5))
    for candidate in range(side, 0, -1):
        if n_hosts % candidate == 0:
            return candidate, n_hosts // candidate
    return 1, n_hosts  # pragma: no cover - every n has divisor 1


_register_builtins()
