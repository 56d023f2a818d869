"""The continuous-time event-driven simulation engine.

:class:`EventSimulation` replaces the round engine's lockstep loop with a
global :class:`~repro.events.calendar.EventCalendar`: each host gossips
on its own :class:`~repro.events.clocks.HostClock`, messages are
timestamped and travel through a time-keyed
:class:`~repro.network.DeliveryQueue`, and metrics are *sampled* at a
fixed simulated-time cadence so the result looks exactly like a round
engine result to every downstream layer (metrics, analysis, render,
store).

Event kinds (priority order within one instant — see
:mod:`repro.events.calendar`), each handled by a method of its own that
drives the protocol *unmodified* through the round engine's hooks:

1. **membership** — scheduled failure/join/value-change events; the
   event scheduled for round *r* fires at time ``(r + 1) * S`` (sample
   interval ``S``), which is the instant whose sample records round *r*
   — exactly the round engine's apply-before-the-round ordering.
2. **deliver** — a matured push moves into its recipient's pending inbox;
   an exchange's request leg (``"xreq"``) plans the reply, and the reply
   leg (``"xdone"``) runs ``exchange``.
3. **tick** — one host's gossip action between ``begin_round`` and
   ``finalize_round``: a push selects peers, emits payloads (each planned
   through the network model into an in-flight message, an instant local
   delivery, or a loss) and integrates its pending inbox; an exchange
   sends one peer its request.  Then the host's clock reschedules.
4. **sample** — sample *j* fires at ``j * S`` and appends a
   :class:`~repro.simulator.RoundRecord` with ``round_index = j - 1``
   and ``time = j * S``.

``exchange`` runs only when the reply arrives with both endpoints still
alive, atomically, on the hosts' *current* states: no state travels inside
the messages, so conserved mass is never in flight in exchange mode, and
the atomicity the round engine cannot reconcile with latency holds by
construction.  The handlers draw no randomness of their own; every draw
goes through the engine's named streams in tick order, which is what makes
the unit-delay/synchronized configuration reproduce the round engine's
trajectories bit for bit (see ``tests/test_events.py``).

Mass conservation is enforced continuously: the engine's
:meth:`~repro.Simulation.mass_view` is a running view (host states and
pending inboxes at hosts, the delivery queue in flight), kept whenever the
protocol conserves mass, and the :class:`~repro.network.MassLedger` can
check it after *every* event (``mass_check="event"``), at every sample
(``"sample"``, the default) or never (``"off"``, which still keeps the
books).  Every sample resyncs the running host total against an exact
recount.  That and the other settings are one validated
:class:`~repro.events.clocks.EngineSettings` value.

The class subclasses :class:`repro.Simulation` for its population
management, truth/metric computation and result plumbing — but ``run``
executes the calendar to the configured ``duration`` and ``step`` is
meaningless here.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

from repro.environments.base import LiveRoster
from repro.events.calendar import DELIVER, MEMBERSHIP, SAMPLE, TICK, EventCalendar
from repro.events.clocks import TIME_EPS, EngineSettings, HostClock, make_clock
from repro.network.delivery import InFlightMessage
from repro.simulator.engine import Simulation
from repro.simulator.host import Host
from repro.simulator.result import SimulationResult

__all__ = ["EventSimulation"]


class EventSimulation(Simulation):
    """Drive one protocol over one environment in continuous simulated time.

    Parameters (beyond :class:`repro.Simulation`'s)
    -----------------------------------------------
    settings:
        The :class:`~repro.events.clocks.EngineSettings` — duration, sample
        interval, clock rates and synchronisation, mass-check cadence.
    """

    #: Exchange mode over a latency network is realised as request/reply
    #: events, so the round engine's eager rejection does not apply here.
    _defers_exchange = True

    def __init__(
        self,
        protocol,
        environment,
        values: Sequence[float],
        *,
        seed: int = 0,
        mode: str = "push",
        events: Optional[Iterable] = None,
        network=None,
        group_relative: bool = False,
        store_estimates: bool = False,
        settings: EngineSettings,
        probe=None,
    ):
        # Attributes the add_host override consults must exist before the
        # base constructor registers the initial population.
        self._event_init_done = False
        super().__init__(
            protocol,
            environment,
            values,
            seed=seed,
            mode=mode,
            events=events,
            network=network,
            group_relative=group_relative,
            store_estimates=store_estimates,
            probe=probe,
        )
        self.settings = settings
        self.duration = settings.duration
        self.sample_interval = settings.sample_interval
        self.mass_check = settings.mass_check
        self.calendar = EventCalendar()
        self._clock_rng = self.streams.get("clocks")
        self._clocks: Dict[int, HostClock] = {}
        self._inboxes: Dict[int, List] = {}
        self._received: Dict[int, int] = {}
        self._roster: Optional[LiveRoster] = None
        self._now = 0.0
        self._started = False

        self.result.metadata["engine"] = settings.metadata()

        # The whole agenda is knowable up front except deliveries: host
        # first ticks (registration order = host-id order), every sample,
        # and every scheduled membership event.
        self._event_init_done = True
        for host_id in sorted(self.hosts):
            self._attach_clock(host_id, join_time=0.0)
        for j in range(1, settings.n_samples + 1):
            self.calendar.schedule(j * self.sample_interval, SAMPLE, ("sample", j))
        for event in self.events:
            fire_at = (event.round + 1) * self.sample_interval
            if fire_at <= self.duration + TIME_EPS:
                self.calendar.schedule(fire_at, MEMBERSHIP, ("membership", event))

    # ----------------------------------------------------------- population
    def add_host(self, value: float, round_index: Optional[int] = None) -> Host:
        """Create a live host and, mid-run, start its gossip clock."""
        host = super().add_host(value, round_index)
        self._roster = None
        if self._event_init_done:
            self._attach_clock(host.host_id, join_time=self._now)
        return host

    def fail_host(self, host_id: int, round_index: Optional[int] = None) -> None:
        super().fail_host(host_id, round_index)
        self._roster = None

    @property
    def _alive_set(self) -> LiveRoster:
        """The live roster: dropped by every membership change, rebuilt on the next read."""
        if self._roster is None:
            self._roster = LiveRoster(self.alive_ids())
        return self._roster

    def _attach_clock(self, host_id: int, *, join_time: float) -> None:
        rate = float(self.settings.draw_rates(self._clock_rng, 1)[0])
        clock = make_clock(
            host_id,
            rate,
            join_time=join_time,
            synchronized=self.settings.synchronized,
            rng=self._clock_rng,
        )
        self._clocks[host_id] = clock
        first = clock.next_time()
        if first <= self.duration + TIME_EPS:
            self.calendar.schedule(first, TICK, ("tick", host_id))

    # ------------------------------------------------------------------- run
    def run(self, rounds: Optional[int] = None) -> SimulationResult:
        """Execute the calendar through ``duration`` simulated seconds.

        The event engine has no notion of "additional rounds": the agenda
        is the configured duration, so ``rounds`` must be ``None``.
        """
        if rounds is not None:
            raise ValueError(
                "EventSimulation runs its configured duration; set duration/"
                "sample_interval via engine_params instead of passing rounds"
            )
        if self._started:
            raise RuntimeError("EventSimulation.run() can only be called once")
        self._started = True
        # An event is ``(kind, *arguments)``; its handler takes ``(time, *arguments)``
        # and the probe counts it under its priority's name.
        handlers = {
            "membership": (self._on_membership, "events.membership"),
            "deliver": (self._on_deliver, "events.deliver"),
            "xreq": (self._on_request, "events.deliver"),
            "xdone": (self._on_reply, "events.deliver"),
            "tick": (self._on_tick, "events.tick"),
            "sample": (self._on_sample, "events.sample"),
        }
        calendar = self.calendar
        horizon = self.duration + TIME_EPS
        probe = self.probe
        probing = probe.enabled
        with probe.span("calendar"):
            while calendar:
                time, priority, _seq, event = calendar.pop()
                if time > horizon:
                    # Everything later stays unprocessed: messages still in
                    # flight remain on the books as in-flight mass.
                    break
                self._now = time
                handler, counter = handlers[event[0]]
                handler(time, *event[1:])
                if probing:
                    probe.count(counter)
                    if priority == SAMPLE:
                        probe.gauge("calendar_depth", len(calendar))
                if self._track_mass and self.mass_check == "event":
                    self.mass_ledger.check(self.mass_view(), round_index=self._sample_bin(time))
        return self.result

    def step(self):  # pragma: no cover - guarded API difference
        raise NotImplementedError(
            "the event engine has no per-round step(); use run() to execute "
            "the full simulated duration"
        )

    # ----------------------------------------------------------------- ticks
    def _on_tick(self, time: float, host_id: int) -> None:
        host = self.hosts[host_id]
        if not host.alive:
            # A departed host's chain ends here: ids are never reused.
            return
        bin_index = self._sample_bin(time)
        state = host.state
        protocol = self.protocol
        # Only an overridden begin_round does anything; the round engine skips the no-op too.
        if self._begin_round_mints:
            self._booked(protocol.begin_round, state, bin_index, self._protocol_rng, injection=True)
        if self.mode == "push":
            self._push_tick(host_id, state, time, bin_index)
        else:
            self._exchange_tick(host_id, state, time, bin_index)
        received = self._received.pop(host_id, 0)
        self._booked(protocol.finalize_round, state, received, self._protocol_rng, injection=True)
        clock = self._clocks[host_id]
        clock.advance()
        next_time = clock.next_time()
        if next_time <= self.duration + TIME_EPS:
            self.calendar.schedule(next_time, TICK, ("tick", host_id))

    def _push_tick(self, host_id: int, state, time: float, bin_index: int) -> None:
        """Select peers and emit payloads, route each send, then swap in the
        host's pending inbox and integrate it."""
        protocol = self.protocol
        alive = self._alive_set
        peers = self.environment.select_peers(
            host_id, alive, bin_index, protocol.fanout, self._peer_rng
        )
        payloads = self._booked(protocol.make_payloads, state, peers, self._protocol_rng)
        for target, payload in payloads:
            mass = protocol.payload_mass(payload)
            if target is None or target == host_id:
                # Self-messages never touch the radio: straight into the
                # sender's own pending inbox, integrated this very tick.
                self._deliver_payload(host_id, payload, mass, count=False)
                continue
            self.bytes_sent += protocol.payload_size(payload)
            if target not in alive:
                self._record_lost_message(mass)
                continue
            delay = self._plan_delay(host_id, target, bin_index)
            if delay is None:
                self._record_lost_message(mass)
            elif delay <= 0.0:
                # Instant arrival: into the pending inbox now (integrated at
                # the target's next tick — possibly later this same instant).
                self._deliver_payload(target, payload, mass, count=True)
            else:
                deliver_time = time + delay
                self._in_flight.schedule(
                    InFlightMessage(
                        source=host_id,
                        destination=target,
                        payload=payload,
                        sent_round=time,
                        deliver_round=deliver_time,
                        mass=mass,
                    )
                )
                self.calendar.schedule(deliver_time, DELIVER, ("deliver",))
        inbox = self._inboxes.pop(host_id, None) or []
        if self._track_mass and inbox:
            self._inbox_mass -= sum(protocol.payload_mass(payload) or 0.0 for payload in inbox)
        self._booked(protocol.integrate, state, inbox, self._protocol_rng)

    def _on_deliver(self, time: float) -> None:
        """Pop every in-flight push maturing at this instant (scheduling order)
        into its recipient's pending inbox.  Several messages maturing at the
        same instant each scheduled a calendar event; the first pops the whole
        batch and the duplicates harmlessly pop an empty list."""
        alive = self._alive_set
        for item in self._in_flight.due(time):
            if item.destination in alive:
                self._deliver_payload(item.destination, item.payload, item.mass, count=True)
            else:
                # Matured at a host that has since departed: lost, just like
                # the round engine's same-fate rule.
                self._record_lost_message(item.mass)

    def _exchange_tick(self, host_id: int, state, time: float, bin_index: int) -> None:
        """Pick one peer and send it the exchange request."""
        alive = self._alive_set
        peers = self.environment.select_peers(host_id, alive, bin_index, 1, self._peer_rng)
        if not peers:
            return
        peer_id = peers[0]
        if peer_id == host_id or peer_id not in alive:
            return
        size = self.protocol.exchange_size(state, self.hosts[peer_id].state)
        delay = self._plan_delay(host_id, peer_id, bin_index)
        # The initiator's transmitted half costs radio bytes either way,
        # mirroring the round engine's lost-exchange accounting.
        self.bytes_sent += size
        if delay is None:
            # A lossy link makes the exchange not happen at all.
            self.messages_lost += 2
            return
        # Zero-delay legs schedule at the current instant with DELIVER
        # priority, which pops before the instant's remaining ticks —
        # deterministic, and the whole exchange completes "now".
        self.calendar.schedule(time + delay, DELIVER, ("xreq", host_id, peer_id, size))

    def _on_request(self, time: float, initiator: int, responder: int, size: int) -> None:
        """The request leg arrived: the responder sends its reply."""
        if responder not in self._alive_set:
            # Request arrived at a departed host: the request is lost and the
            # reply will never be sent.  Every attempted exchange accounts
            # exactly two messages (DESIGN.md §10), matching the round
            # engine's lost-exchange accounting.
            self.messages_lost += 2
            return
        self.messages_delivered += 1
        # The responder transmits its reply immediately; the reply bytes
        # go on the radio whether or not the network then loses the leg.
        self.bytes_sent += size
        delay = self._plan_delay(responder, initiator, self._sample_bin(time))
        if delay is None:
            self.messages_lost += 1
            return
        self.calendar.schedule(time + delay, DELIVER, ("xdone", initiator, responder))

    def _on_reply(self, time: float, initiator: int, responder: int) -> None:
        """The reply leg arrived: the exchange runs on both current states."""
        if initiator not in self._alive_set:
            self.messages_lost += 1
            return
        self.messages_delivered += 1
        if responder not in self._alive_set:
            # The responder departed after replying; the atomic exchange
            # needs both endpoints, so nothing reconciles (and no mass was
            # ever in flight to strand).
            return
        state_a = self.hosts[initiator].state
        state_b = self.hosts[responder].state
        self._booked(self.protocol.exchange, state_a, state_b, self._protocol_rng, pair=True)
        self._received[initiator] = self._received.get(initiator, 0) + 1
        self._received[responder] = self._received.get(responder, 0) + 1

    # ------------------------------------------------------ samples, membership
    def _on_sample(self, time: float, sample_index: int) -> None:
        alive = self.alive_ids()
        round_index = sample_index - 1
        if self._track_mass:
            # Exact recount: resyncs the running total (guarding against
            # float drift over many increments) and balances the books.
            self._state_mass = self._total_state_mass()
            if self.mass_check != "off":
                self.mass_ledger.check(self.mass_view(), round_index=round_index)
        record = self._record_round(alive, round_index, time)
        self.round_index = sample_index
        self.result.append(record, self.probe, self.mass_view())

    def _on_membership(self, time: float, event) -> None:
        event.apply(self, event.round)
        if self._track_mass:
            # Joins mint mass and value rebases shift it by design;
            # both are deliberate injections, not leaks.
            self._record_mass_injection()

    # -------------------------------------------------------------- plumbing
    def _sample_bin(self, time: float) -> int:
        """The sample (== round) index that will record activity at ``time``."""
        return max(0, math.ceil(time / self.sample_interval - TIME_EPS) - 1)

    def _plan_delay(self, source: int, destination: int, bin_index: int):
        """Delivery delay in simulated seconds, or ``None`` when lost."""
        if self.network is None:
            return 0.0
        return self.network.plan_seconds(source, destination, bin_index, self._network_rng)

    def _deliver_payload(self, target: int, payload, mass: Optional[float], *, count: bool) -> None:
        """Drop ``payload`` into ``target``'s pending inbox."""
        self._inboxes.setdefault(target, []).append(payload)
        self._received[target] = self._received.get(target, 0) + 1
        if count:
            self.messages_delivered += 1
        if self._track_mass and mass is not None:
            self._inbox_mass += mass

    def _booked(self, hook, *args, pair: bool = False, injection: bool = False):
        """``hook(*args)``, booking the change in mass of the state it gets first
        (of the two states it gets first when ``pair``, as ``exchange`` does).

        A hook that sends, integrates or exchanges may only *move* mass between
        the states and the payloads booked beside it, so its change is booked
        as a move and any net imbalance is a leak the next check reports.  The
        begin and finalize hooks change it on purpose (epoch restarts,
        reversion): ``injection`` books their change as injected.  A protocol
        that keeps no books only runs the hook.
        """
        if not self._track_mass:
            return hook(*args)
        # Unrolled rather than looped over the states: this runs on every tick.
        state_mass = self.protocol.state_mass
        before = state_mass(args[0]) or 0.0
        if pair:
            before += state_mass(args[1]) or 0.0
        result = hook(*args)
        after = state_mass(args[0]) or 0.0
        if pair:
            after += state_mass(args[1]) or 0.0
        delta = after - before
        self._state_mass += delta
        if injection:
            self.mass_injected += delta
        return result
