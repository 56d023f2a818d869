"""The global event calendar: a deterministic continuous-time agenda.

The event engine replaces the round loop with a single priority queue of
*(time, priority, seq, event)* entries.  Three properties make replays
bit-identical for equal seeds:

* **time** is simulated seconds (a float); the heap always pops the
  earliest instant first.
* **priority** orders the event *kinds* that share an instant: membership
  changes apply first (exactly like the round engine's
  start-of-round events), then message deliveries (so payloads that
  mature at an instant are in their recipients' inboxes before any host
  gossips), then host ticks, and finally samples (which observe the
  instant's finished state).
* **seq** is a globally monotone tie-breaker: two events with equal time
  and equal priority pop in the order they were scheduled.  Nothing ever
  compares the event payloads themselves, so payloads need no ordering.

The calendar is pure data structure — it draws no randomness and holds no
simulation state — which is what lets ``tests/test_events.py`` pin its
ordering behaviour directly.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Tuple

__all__ = [
    "EventCalendar",
    "MEMBERSHIP",
    "DELIVER",
    "TICK",
    "SAMPLE",
]

#: Priorities for events sharing one simulated instant (lower pops first).
MEMBERSHIP = 0  #: scheduled membership events (failures, joins, value changes)
DELIVER = 1  #: message deliveries (push payloads, exchange request/reply legs)
TICK = 2  #: per-host clock ticks (the host gossips)
SAMPLE = 3  #: metric samples (observe the instant after everything else)


class EventCalendar:
    """A heap of ``(time, priority, seq, event)`` entries.

    ``schedule`` accepts any event payload; ``pop`` returns the full
    4-tuple so the caller can dispatch on the payload and log the instant.
    Equal ``(time, priority)`` entries pop in scheduling order thanks to
    the monotone ``seq`` counter — the property the determinism tests pin.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Any]] = []
        self._seq = 0

    def schedule(self, time: float, priority: int, event: Any) -> None:
        """Add ``event`` at simulated ``time`` with kind ``priority``."""
        heapq.heappush(self._heap, (float(time), int(priority), self._seq, event))
        self._seq += 1

    def pop(self) -> Tuple[float, int, int, Any]:
        """Remove and return the earliest ``(time, priority, seq, event)``."""
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        head = f", next={self._heap[0][:3]}" if self._heap else ""
        return f"EventCalendar(pending={len(self._heap)}{head})"
