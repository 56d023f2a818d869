"""Protocol adapters: drive round-based protocols through timed events.

Every protocol in the repository was written against the round engine's
hook contract (``begin_round`` / ``make_payloads`` / ``integrate`` /
``finalize_round``, or ``exchange``).  The adapters here replay that
contract from a continuous-time event stream so the protocols run
*unmodified*:

* :class:`PushAdapter` — a host's clock tick performs one full gossip
  action: select peers, emit payloads (each planned through the network
  model into an in-flight message, an instant local delivery, or a
  loss), then integrate everything sitting in the host's pending inbox
  and finalize.  ``"deliver"`` events move matured in-flight payloads
  into pending inboxes between ticks.
* :class:`ExchangeAdapter` — an atomic push/pull over a latent network
  becomes a *request leg* plus a *reply leg*: the tick plans the request
  (``"xreq"`` event after the request delay), the request's arrival
  plans the reply (``"xdone"`` event), and only when the reply arrives —
  with both endpoints still alive — does ``protocol.exchange`` run,
  atomically, on the hosts' *current* states.  No state ever travels
  inside the messages, so conserved mass is never in flight in exchange
  mode and the atomicity the round engine could not reconcile with
  latency (the PR 3 rejection) holds by construction.

Adapters contain no randomness of their own; every draw goes through the
engine's named streams in tick order, which is what makes the
unit-delay/synchronized configuration reproduce the round engine's
trajectories bit for bit (see ``tests/test_events.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Tuple

from repro.events.calendar import DELIVER
from repro.network.delivery import InFlightMessage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.events.engine import EventSimulation

__all__ = ["ProtocolAdapter", "PushAdapter", "ExchangeAdapter"]


class ProtocolAdapter:
    """Base adapter: one gossip action per tick, plus timed-event handling."""

    def __init__(self, engine: "EventSimulation"):
        self.engine = engine

    def on_tick(self, host_id: int, state: Any, time: float, bin_index: int) -> None:
        """Perform the host's gossip action for one clock tick."""
        raise NotImplementedError

    def handle(self, event: Tuple, time: float) -> None:
        """Process one DELIVER-priority calendar event produced by this adapter."""
        raise NotImplementedError


class PushAdapter(ProtocolAdapter):
    """Message gossip: payloads travel, recipients integrate at their ticks."""

    def on_tick(self, host_id: int, state: Any, time: float, bin_index: int) -> None:
        engine = self.engine
        protocol = engine.protocol
        alive = engine._alive_set
        peers = engine.environment.select_peers(
            host_id, alive, bin_index, protocol.fanout, engine._peer_rng
        )
        if engine._track_mass:
            before = protocol.state_mass(state) or 0.0
            payloads = protocol.make_payloads(state, peers, engine._protocol_rng)
            # Mass removed from the state moved into the payloads below;
            # it is not an injection, so any imbalance is caught as a leak.
            engine._state_mass += (protocol.state_mass(state) or 0.0) - before
        else:
            payloads = protocol.make_payloads(state, peers, engine._protocol_rng)
        for target, payload in payloads:
            mass = protocol.payload_mass(payload)
            if target is None or target == host_id:
                # Self-messages never touch the radio: straight into the
                # sender's own pending inbox, integrated this very tick.
                engine._deliver_payload(host_id, payload, mass, count=False)
                continue
            size = protocol.payload_size(payload)
            engine.bytes_sent += size
            if target not in alive:
                engine._record_lost_message(mass)
                continue
            delay = engine._plan_delay(host_id, target, bin_index, size)
            if delay is None:
                engine._record_lost_message(mass)
            elif delay <= 0.0:
                # Instant arrival: into the pending inbox now (integrated at
                # the target's next tick — possibly later this same instant).
                engine._deliver_payload(target, payload, mass, count=True)
            else:
                deliver_time = time + delay
                engine._in_flight.schedule(
                    InFlightMessage(
                        source=host_id,
                        destination=target,
                        payload=payload,
                        sent_round=time,
                        deliver_round=deliver_time,
                        mass=mass,
                    )
                )
                engine.calendar.schedule(deliver_time, DELIVER, ("deliver",))
        self._integrate(host_id, state)

    def _integrate(self, host_id: int, state: Any) -> None:
        """Fold the host's pending inbox into its state (swap-and-integrate)."""
        engine = self.engine
        protocol = engine.protocol
        inbox = engine._inboxes.pop(host_id, None) or []
        if engine._track_mass:
            if inbox:
                engine._inbox_mass -= sum(
                    protocol.payload_mass(payload) or 0.0 for payload in inbox
                )
            before = protocol.state_mass(state) or 0.0
            protocol.integrate(state, inbox, engine._protocol_rng)
            engine._state_mass += (protocol.state_mass(state) or 0.0) - before
        else:
            protocol.integrate(state, inbox, engine._protocol_rng)

    def handle(self, event: Tuple, time: float) -> None:
        # ("deliver",): pop every in-flight message maturing at this instant
        # (scheduling order).  Several messages maturing at the same instant
        # each scheduled a calendar event; the first pops the whole batch and
        # the duplicates harmlessly pop an empty list.
        engine = self.engine
        alive = engine._alive_set
        for item in engine._in_flight.due(time):
            if item.destination in alive:
                engine._deliver_payload(item.destination, item.payload, item.mass, count=True)
            else:
                # Matured at a host that has since departed: lost, just like
                # the round engine's same-fate rule.
                engine._record_lost_message(item.mass)


class ExchangeAdapter(ProtocolAdapter):
    """Atomic push/pull realised as a request leg plus a timed reply leg."""

    def on_tick(self, host_id: int, state: Any, time: float, bin_index: int) -> None:
        engine = self.engine
        protocol = engine.protocol
        alive = engine._alive_set
        peers = engine.environment.select_peers(host_id, alive, bin_index, 1, engine._peer_rng)
        if not peers:
            return
        peer_id = peers[0]
        if peer_id == host_id or peer_id not in alive:
            return
        size = protocol.exchange_size(state, engine.hosts[peer_id].state)
        delay = engine._plan_delay(host_id, peer_id, bin_index, size)
        # The initiator's transmitted half costs radio bytes either way,
        # mirroring the round engine's lost-exchange accounting.
        engine.bytes_sent += size
        if delay is None:
            # A lossy link makes the exchange not happen at all.
            engine.messages_lost += 2
            return
        # Zero-delay legs schedule at the current instant with DELIVER
        # priority, which pops before the instant's remaining ticks —
        # deterministic, and the whole exchange completes "now".
        engine.calendar.schedule(time + delay, DELIVER, ("xreq", host_id, peer_id, size))

    def handle(self, event: Tuple, time: float) -> None:
        engine = self.engine
        if event[0] == "xreq":
            _, initiator, responder, size = event
            if responder not in engine._alive_set:
                # Request arrived at a departed host: the request is lost
                # and the reply will never be sent.  Every attempted
                # exchange accounts exactly two messages (DESIGN.md §11),
                # matching the round engine's lost-exchange accounting.
                engine.messages_lost += 2
                return
            engine.messages_delivered += 1
            # The responder transmits its reply immediately; the reply bytes
            # go on the radio whether or not the network then loses the leg.
            engine.bytes_sent += size
            delay = engine._plan_delay(responder, initiator, engine._sample_bin(time), size)
            if delay is None:
                engine.messages_lost += 1
                return
            engine.calendar.schedule(time + delay, DELIVER, ("xdone", initiator, responder))
            return
        # ("xdone", initiator, responder): the reply arrived.
        _, initiator, responder = event
        if initiator not in engine._alive_set:
            engine.messages_lost += 1
            return
        engine.messages_delivered += 1
        if responder not in engine._alive_set:
            # The responder departed after replying; the atomic exchange
            # needs both endpoints, so nothing reconciles (and no mass was
            # ever in flight to strand).
            return
        protocol = engine.protocol
        state_a = engine.hosts[initiator].state
        state_b = engine.hosts[responder].state
        if engine._track_mass:
            before = (protocol.state_mass(state_a) or 0.0) + (
                protocol.state_mass(state_b) or 0.0
            )
            protocol.exchange(state_a, state_b, engine._protocol_rng)
            # An exchange may only *move* mass between the two states; any
            # net change is a leak the next conservation check reports.
            engine._state_mass += (
                (protocol.state_mass(state_a) or 0.0)
                + (protocol.state_mass(state_b) or 0.0)
                - before
            )
        else:
            protocol.exchange(state_a, state_b, engine._protocol_rng)
        engine._received[initiator] = engine._received.get(initiator, 0) + 1
        engine._received[responder] = engine._received.get(responder, 0) + 1
