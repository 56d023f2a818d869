"""The event-driven delivery engine: in-flight messages and mass accounting.

When a network model (:mod:`repro.network.models`) can delay messages, a
payload pushed at time *t* is no longer guaranteed to arrive at time
*t*: it sits *in flight* until its delivery instant, arrives at a host
that may have departed in the meantime, or never arrives at all.
:class:`DeliveryQueue` is the calendar of those in-flight messages,
keyed by the instant they mature.  The key is an opaque number: the
round engine keys by integer round index, the event engine
(:mod:`repro.events`) keys by simulated-seconds timestamps — the same
queue serves both, popping exactly the messages that mature at each
instant it is asked about.

Loss and latency are what make mass accounting critical.  Push-Sum-style
protocols are correct *because* every unit of mass exists exactly once —
at a host or inside a message — so every engine keeps one set of books,
its :data:`MassView`, and :class:`MassLedger` asserts they balance:

    mass at hosts + mass in flight + mass lost  ==  mass created,

where "created" is the initial population mass plus whatever the protocol
injects deliberately (Push-Sum-Revert's reversion step re-injects initial
values by design; the engine measures that injection around the protocol
hooks rather than guessing it).  A violation means the engine duplicated
or leaked mass — a bug class that silently biases every lossy experiment
— so it raises immediately instead of producing a wrong figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["InFlightMessage", "DeliveryQueue", "MassLedger", "MassConservationError"]


@dataclass
class InFlightMessage:
    """One payload travelling through the (simulated) network.

    ``sent_round`` / ``deliver_round`` are the instants the message left
    and matures at — integer round indices under the round engine, float
    simulated-seconds timestamps under the event engine.  ``mass`` is the
    conserved quantity the payload carries (the Push-Sum weight), or
    ``None`` for protocols without a mass notion (sketches).
    """

    source: int
    destination: int
    payload: Any
    sent_round: float
    deliver_round: float
    mass: Optional[float] = None


class DeliveryQueue:
    """In-flight messages, keyed by the instant they mature.

    Messages scheduled for the same instant are delivered in the order
    they were scheduled (sending order), which keeps delayed delivery
    deterministic for equal seeds.  Keys are exact (dictionary lookup,
    no tolerance): the caller pops with the very same round index or
    timestamp it scheduled under — which both engines do by construction.
    """

    def __init__(self):
        self._pending: Dict[float, List[InFlightMessage]] = {}
        self._count = 0
        self._mass = 0.0

    def schedule(self, message: InFlightMessage) -> None:
        """Add ``message`` to the calendar under its delivery instant."""
        if message.deliver_round <= message.sent_round:
            raise ValueError(
                f"in-flight messages must mature strictly after they are sent "
                f"(sent {message.sent_round}, delivery {message.deliver_round})"
            )
        self._pending.setdefault(message.deliver_round, []).append(message)
        self._count += 1
        if message.mass is not None:
            self._mass += message.mass

    def due(self, round_index: float) -> List[InFlightMessage]:
        """Pop and return every message maturing at instant ``round_index``."""
        matured = self._pending.pop(round_index, [])
        self._count -= len(matured)
        for message in matured:
            if message.mass is not None:
                self._mass -= message.mass
        return matured

    @property
    def in_flight(self) -> int:
        """Number of messages currently in flight."""
        return self._count

    @property
    def in_flight_mass(self) -> float:
        """Total conserved mass currently in flight."""
        return self._mass

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0


class MassConservationError(RuntimeError):
    """The delivery engine duplicated or leaked conserved mass."""


#: A mass view ``(at_hosts, in_flight, injected, lost)``, every engine's one set of
#: books (DESIGN.md §8): the mass at every host state (stranded mass at departed
#: hosts included) and in flight now, and the cumulative mass the protocol and
#: membership events created (+) or destroyed (−) and lost messages took out.
MassView = Tuple[float, float, float, float]


@dataclass
class MassLedger:
    """Double-entry bookkeeping for a conserved protocol quantity.

    The engine keeps its own books as a :data:`MassView`; the ledger opens on
    the first view and checks later ones: at hosts + in flight must equal the
    initial mass + injected − lost.  Nothing feeds it deltas.  ``tolerance``
    absorbs float summation noise only — a real leak fails by whole units.
    """

    initial: float = 0.0
    tolerance: float = 1e-6

    def open(self, view: MassView) -> None:
        """Start the books on the population's first view."""
        at_hosts, in_flight, injected, lost = view
        self.initial = float(at_hosts + in_flight - injected + lost)

    def check(self, view: MassView, *, round_index: int) -> None:
        """Assert ``view`` balances; raises :class:`MassConservationError`."""
        at_hosts, in_flight, injected, lost = view
        observed = at_hosts + in_flight
        expected = self.initial + injected - lost
        scale = max(abs(self.initial), abs(injected), abs(lost), 1.0)
        if abs(observed - expected) > self.tolerance * scale:
            raise MassConservationError(
                f"mass conservation violated at round {round_index}: "
                f"observed {observed!r} at hosts + in flight, but the ledger "
                f"expects {expected!r} (initial {self.initial!r} "
                f"+ injected {injected!r} - lost {lost!r})"
            )
