"""Per-host bookkeeping used by the agent-based simulation engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Host"]


@dataclass
class Host:
    """A participating device.

    A host couples the device's *local value* (the datum being aggregated:
    a song rating, a sensor reading, the constant 1 for counting) with the
    protocol-specific state the aggregation protocol maintains on it, and
    with liveness bookkeeping used by the failure models.

    Attributes
    ----------
    host_id:
        Stable integer identifier.  Identifiers are never reused, so a host
        that leaves and a host that joins later are distinct.
    value:
        The host's local contribution to the aggregate.
    state:
        Opaque protocol state created by
        :meth:`repro.simulator.protocol.AggregationProtocol.create_state`.
    alive:
        Whether the host currently participates.  Dead hosts neither send nor
        receive; their state is retained only for post-mortem inspection.
    joined_round / failed_round:
        Rounds at which the host entered / silently left the computation
        (``None`` when not applicable).
    """

    host_id: int
    value: float
    state: Any = None
    alive: bool = True
    joined_round: int = 0
    failed_round: Optional[int] = None
    meta: dict = field(default_factory=dict)

    def fail(self, round_index: int) -> None:
        """Silently remove the host from the computation at ``round_index``."""
        if self.alive:
            self.alive = False
            self.failed_round = round_index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "alive" if self.alive else f"failed@{self.failed_round}"
        return f"Host(id={self.host_id}, value={self.value:.3g}, {status})"
