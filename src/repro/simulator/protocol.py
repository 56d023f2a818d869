"""Abstract interfaces implemented by every aggregation protocol.

Two interaction styles appear in the paper:

* **Push gossip** (Figures 1, 3, 4 and 5): each round a host emits payloads
  to one or more peers (and possibly to itself), then folds everything it
  received into its state.  :class:`AggregationProtocol` models this with the
  ``begin_round`` / ``make_payloads`` / ``integrate`` / ``finalize_round``
  hooks.

* **Push/pull exchange** (the Karp et al. optimisation used throughout the
  evaluation): a host and its selected peer atomically reconcile their
  states.  Protocols that support this additionally implement
  :class:`ExchangeProtocol`'s ``exchange`` hook, and the engine can be run in
  ``mode="exchange"``.

Every protocol also declares which *aggregate* it estimates (``"average"``,
``"count"`` or ``"sum"``) so the engine knows which ground truth to compare
estimates against.
"""

from __future__ import annotations

import abc
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["AggregationProtocol", "ExchangeProtocol", "AGGREGATE_KINDS", "estimate_payload_size"]

#: Aggregate kinds a protocol may declare.
AGGREGATE_KINDS = ("average", "count", "sum", "max", "min")


def estimate_payload_size(payload: Any) -> int:
    """Best-effort estimate of a payload's size in bytes.

    Protocols may override this by implementing ``payload_size``; this
    fallback understands the payload shapes used by the built-in protocols:
    numbers (8 bytes), tuples/lists (sum of elements), dicts (sum of values),
    NumPy arrays (``nbytes``) and booleans (1 bit rounded up to a byte per 8).
    """
    if payload is None:
        return 0
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, np.ndarray):
        if payload.dtype == bool:
            return int(np.ceil(payload.size / 8))
        return int(payload.nbytes)
    if isinstance(payload, (tuple, list)):
        return sum(estimate_payload_size(item) for item in payload)
    if isinstance(payload, dict):
        return sum(estimate_payload_size(value) for value in payload.values())
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    # Dataclasses and small objects: count their public attributes.
    if hasattr(payload, "__dict__"):
        return sum(
            estimate_payload_size(value)
            for key, value in vars(payload).items()
            if not key.startswith("_")
        )
    return 8


class AggregationProtocol(abc.ABC):
    """Base class for push-gossip aggregation protocols.

    Subclasses implement the per-host state machine; the engine owns peer
    selection (delegated to the gossip environment), message delivery,
    failures and metric collection.

    Class attributes
    ----------------
    name:
        Human-readable protocol name used in results and rendered tables.
    aggregate:
        One of :data:`AGGREGATE_KINDS`; selects the ground truth the engine
        compares estimates against.
    fanout:
        Number of peers each host contacts per round (1 for classic gossip,
        ``N`` for the Full-Transfer optimisation's parcels).
    """

    name: str = "protocol"
    aggregate: str = "average"
    fanout: int = 1

    # ------------------------------------------------------------------ state
    @abc.abstractmethod
    def create_state(self, host_id: int, value: float, rng: np.random.Generator) -> Any:
        """Create the protocol state for a (joining) host with ``value``."""

    # ------------------------------------------------------------- round hooks
    def begin_round(self, state: Any, round_index: int, rng: np.random.Generator) -> None:
        """Hook run for every live host before any messages are exchanged.

        Count-Sketch-Reset uses this to increment its counters; the epoch
        baseline uses it to restart the computation.  The default is a no-op.
        """

    @abc.abstractmethod
    def make_payloads(
        self,
        state: Any,
        peers: Sequence[int],
        rng: np.random.Generator,
    ) -> List[Tuple[Optional[int], Any]]:
        """Return ``(destination, payload)`` pairs to emit this round.

        ``peers`` are the peer identifiers the environment selected for this
        host (it may be empty when the host is isolated).  A destination of
        ``None`` addresses the host itself ("send to Self" in the paper's
        pseudocode) and costs no bandwidth.
        """

    @abc.abstractmethod
    def integrate(self, state: Any, payloads: Sequence[Any], rng: np.random.Generator) -> None:
        """Fold all payloads received during the round into ``state``."""

    def finalize_round(
        self, state: Any, received_count: int, rng: np.random.Generator
    ) -> None:
        """Hook run after integration; ``received_count`` includes self-messages.

        Push-Sum-Revert applies its reversion step here (which also enables
        the adaptive per-indegree reversion variant).  The default is a no-op.
        """

    # --------------------------------------------------------------- estimates
    @abc.abstractmethod
    def estimate(self, state: Any) -> float:
        """The host's current estimate of the aggregate."""

    # ----------------------------------------------------------- conservation
    def payload_mass(self, payload: Any) -> Optional[float]:
        """Conserved mass carried by ``payload``, or ``None``.

        Mass-conserving protocols (the Push-Sum family) report the weight
        component of each payload so the engine's delivery layer can keep
        the mass-conservation ledger under lossy/latent networks (see
        DESIGN.md §8).  ``None`` (the default) means the protocol has no
        conserved quantity and the ledger stays off.
        """
        return None

    def state_mass(self, state: Any) -> Optional[float]:
        """Conserved mass held in ``state``, or ``None`` (see :meth:`payload_mass`)."""
        return None

    # ------------------------------------------------------------ introspection
    def payload_size(self, payload: Any) -> int:
        """Bytes a payload occupies on the radio; override for tighter models."""
        return estimate_payload_size(payload)

    def state_size(self, state: Any) -> int:
        """Bytes of protocol state stored at a host (storage-cost accounting)."""
        return estimate_payload_size(state)

    def describe(self) -> dict:
        """A dictionary of the protocol's salient parameters (for reports)."""
        return {"name": self.name, "aggregate": self.aggregate, "fanout": self.fanout}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = ", ".join(f"{k}={v!r}" for k, v in self.describe().items() if k != "name")
        return f"{type(self).__name__}({params})"


class ExchangeProtocol(AggregationProtocol):
    """A protocol that additionally supports pairwise push/pull exchanges.

    In ``mode="exchange"`` the engine pairs each host with one peer per
    round and calls :meth:`exchange` exactly once per pair; both states are
    mutated in place.  ``finalize_round`` is still called for every live host
    afterwards with the number of exchanges the host took part in.

    Subclasses whose message pattern is inherently push-only (e.g. the
    Full-Transfer optimisation) set :attr:`supports_exchange` to False so the
    engine rejects ``mode="exchange"`` up front.
    """

    #: Whether the engine may run this protocol in ``mode="exchange"``.
    supports_exchange: bool = True

    @abc.abstractmethod
    def exchange(self, state_a: Any, state_b: Any, rng: np.random.Generator) -> None:
        """Atomically reconcile two hosts' states (push/pull)."""

    def exchange_size(self, state_a: Any, state_b: Any) -> int:
        """Bytes sent each way during one exchange (default: state size)."""
        return self.state_size(state_a)
