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
:mod:`repro.events.calendar`):

1. **membership** — scheduled failure/join/value-change events; the
   event scheduled for round *r* fires at time ``(r + 1) * S`` (sample
   interval ``S``), which is the instant whose sample records round *r*
   — exactly the round engine's apply-before-the-round ordering.
2. **deliver** — matured in-flight payloads move into pending inboxes;
   exchange request/reply legs progress.
3. **tick** — one host performs its gossip action via its mode's
   :mod:`~repro.events.adapters` adapter, then reschedules its clock.
4. **sample** — sample *j* fires at ``j * S`` and appends a
   :class:`~repro.simulator.RoundRecord` with ``round_index = j - 1``
   and ``time = j * S``.

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
from repro.events.adapters import ExchangeAdapter, PushAdapter
from repro.events.calendar import DELIVER, MEMBERSHIP, SAMPLE, TICK, EventCalendar
from repro.events.clocks import TIME_EPS, EngineSettings, HostClock, make_clock
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
        self._adapter = PushAdapter(self) if mode == "push" else ExchangeAdapter(self)

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
                kind = event[0]
                if kind == "tick":
                    self._on_tick(event[1], time)
                    if probing:
                        probe.count("events.tick")
                elif priority == DELIVER:
                    self._adapter.handle(event, time)
                    if probing:
                        probe.count("events.deliver")
                elif kind == "sample":
                    self._on_sample(event[1], time)
                    if probing:
                        probe.count("events.sample")
                        probe.gauge("calendar_depth", len(calendar))
                else:  # membership
                    self._on_membership(event[1])
                    if probing:
                        probe.count("events.membership")
                if self._track_mass and self.mass_check == "event":
                    self.mass_ledger.check(self.mass_view(), round_index=self._sample_bin(time))
        return self.result

    def step(self):  # pragma: no cover - guarded API difference
        raise NotImplementedError(
            "the event engine has no per-round step(); use run() to execute "
            "the full simulated duration"
        )

    # ---------------------------------------------------------------- events
    def _on_tick(self, host_id: int, time: float) -> None:
        host = self.hosts[host_id]
        if not host.alive:
            # A departed host's chain ends here: ids are never reused.
            return
        bin_index = self._sample_bin(time)
        state = host.state
        clock = self._clocks[host_id]
        self._run_state_hook(
            state, lambda: self.protocol.begin_round(state, bin_index, self._protocol_rng)
        )
        self._adapter.on_tick(host_id, state, time, bin_index)
        received = self._received.pop(host_id, 0)
        self._run_state_hook(
            state, lambda: self.protocol.finalize_round(state, received, self._protocol_rng)
        )
        clock.advance()
        next_time = clock.next_time()
        if next_time <= self.duration + TIME_EPS:
            self.calendar.schedule(next_time, TICK, ("tick", host_id))

    def _on_sample(self, sample_index: int, time: float) -> None:
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

    def _on_membership(self, event) -> None:
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

    def _run_state_hook(self, state, hook) -> None:
        """Run a protocol hook, booking its state-mass delta as deliberate
        injection (epoch restarts in ``begin_round``, reversion in
        ``finalize_round``)."""
        if not self._track_mass:
            hook()
            return
        before = self.protocol.state_mass(state) or 0.0
        hook()
        delta = (self.protocol.state_mass(state) or 0.0) - before
        self._state_mass += delta
        self.mass_injected += delta
