"""Messages and bandwidth accounting.

The paper's motivation is bandwidth- and power-constrained wireless
devices, so the simulator accounts for every payload a protocol places on
the (simulated) radio.  A :class:`Message` couples a payload with its
source/destination and the round it was sent in; :class:`BandwidthMeter`
accumulates per-round and per-host traffic so experiments can compare the
communication cost of protocol variants (e.g. Invert-Average versus
multiple-insertion summation).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["Message", "BandwidthMeter", "estimate_payload_size"]


def estimate_payload_size(payload: Any) -> int:
    """Best-effort estimate of a payload's size in bytes.

    Protocols may override this by implementing ``payload_size``; this
    fallback understands the payload shapes used by the built-in protocols:
    numbers (8 bytes), tuples/lists (sum of elements), dicts (sum of values),
    NumPy arrays (``nbytes``) and booleans (1 bit rounded up to a byte per 8).
    """
    import numpy as np

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


@dataclass
class Message:
    """A single protocol payload in flight during one gossip round.

    Attributes
    ----------
    source:
        Identifier of the sending host.
    destination:
        Identifier of the receiving host.  A message whose destination equals
        its source models the "send to Self" step of Push-Sum and costs no
        bandwidth.
    payload:
        Protocol-defined content (mass tuple, counter matrix, ...).
    round_index:
        The round during which the message was emitted and delivered.
    """

    source: int
    destination: int
    payload: Any
    round_index: int

    @property
    def is_self_message(self) -> bool:
        """Whether this message never leaves the sending host."""
        return self.source == self.destination

    def size_bytes(self) -> int:
        """Size of the payload in bytes (0 for self-messages)."""
        if self.is_self_message:
            return 0
        return estimate_payload_size(self.payload)


@dataclass
class BandwidthMeter:
    """Accumulates simulated radio traffic.

    Traffic is recorded both per round (``bytes_per_round``,
    ``messages_per_round``) and per host (``bytes_per_host``), which is what
    the power argument in the paper's introduction cares about.
    Self-messages are free.
    """

    bytes_per_round: Dict[int, int] = field(default_factory=lambda: defaultdict(int))
    messages_per_round: Dict[int, int] = field(default_factory=lambda: defaultdict(int))
    bytes_per_host: Dict[int, int] = field(default_factory=lambda: defaultdict(int))

    def record_sent(self, round_index: int, source: int, size: int) -> None:
        """Record one payload of ``size`` bytes that ``source`` put on the radio.

        Sent is spent: a payload the network then loses — and the initiator's
        half of a push/pull attempt whose link dropped it, whose reply never
        happened — costs the same bytes and power as a delivered one.
        """
        self.bytes_per_round[round_index] += size
        self.messages_per_round[round_index] += 1
        self.bytes_per_host[source] += size

    def record(self, message: Message, size: Optional[int] = None) -> None:
        """Record one message.  ``size`` overrides the payload estimate."""
        if not message.is_self_message:
            nbytes = message.size_bytes() if size is None else int(size)
            self.record_sent(message.round_index, message.source, nbytes)

    def record_exchange(self, round_index: int, host_a: int, host_b: int, size: int) -> None:
        """Record a pairwise push/pull exchange of ``size`` bytes each way."""
        self.bytes_per_round[round_index] += 2 * size
        self.messages_per_round[round_index] += 2
        self.bytes_per_host[host_a] += size
        self.bytes_per_host[host_b] += size

    @property
    def total_bytes(self) -> int:
        """All bytes placed on the simulated network."""
        return sum(self.bytes_per_round.values())

    @property
    def total_messages(self) -> int:
        """All non-self messages sent."""
        return sum(self.messages_per_round.values())

    def bytes_in_round(self, round_index: int) -> int:
        """Bytes sent during ``round_index`` (0 if nothing was sent)."""
        return self.bytes_per_round.get(round_index, 0)

    def rounds(self) -> List[int]:
        """Rounds in which any traffic was recorded, in ascending order."""
        return sorted(self.bytes_per_round)

    def merge(self, other: "BandwidthMeter") -> None:
        """Fold another meter's counters into this one (used by Invert-Average)."""
        for round_index, nbytes in other.bytes_per_round.items():
            self.bytes_per_round[round_index] += nbytes
        for round_index, count in other.messages_per_round.items():
            self.messages_per_round[round_index] += count
        for host, nbytes in other.bytes_per_host.items():
            self.bytes_per_host[host] += nbytes
