"""The round-based simulation engine.

The engine follows the simulation methodology of the paper's evaluation
section: time advances in *rounds*; at every round each live host performs
the protocol's exchange with peers selected by the gossip environment.
Between rounds, scheduled events (silent failures, joins, value changes)
mutate the participant set — silently, exactly as a departing wireless
device would.

Two execution modes are supported:

* ``mode="push"`` — hosts emit payloads that are delivered at the end of
  the round (Figures 1, 3, 4, 5 of the paper);
* ``mode="exchange"`` — hosts perform atomic pairwise push/pull exchanges
  (the Karp et al. optimisation the evaluation uses for Push-Sum-Revert).

With a :mod:`repro.network` model installed, delivery is no longer
instant or reliable: in push mode every non-self message is planned by
the model — delivered this round, deferred ``d`` rounds through the
in-flight :class:`~repro.network.DeliveryQueue`, or lost — and in
exchange mode a lossy link makes the atomic exchange simply not happen
(latency-capable models are rejected up front: an atomic push/pull
cannot be deferred).  For mass-conserving protocols the engine keeps its
books as :meth:`Simulation.mass_view` and a :class:`~repro.network.MassLedger`
asserts every round that mass at hosts + mass in flight == mass created −
mass lost (DESIGN.md §8).
Without a model the engine follows the original perfect-delivery code
path bit for bit.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.environments.base import LiveRoster
from repro.network.delivery import DeliveryQueue, InFlightMessage, MassLedger, MassView
from repro.metrics.accuracy import error_statistics
from repro.obs.probe import NULL_PROBE
from repro.simulator.host import Host
from repro.simulator.protocol import AggregationProtocol, ExchangeProtocol
from repro.simulator.result import RoundRecord, SimulationResult
from repro.simulator.rng import RandomStreams

__all__ = ["Simulation"]


class Simulation:
    """Drive one aggregation protocol over one gossip environment.

    Parameters
    ----------
    protocol:
        The aggregation protocol to execute (an
        :class:`~repro.simulator.protocol.AggregationProtocol`).
    environment:
        The gossip environment that selects peers each round (see
        :mod:`repro.environments`).
    values:
        Initial host values, one per host identifier ``0..n-1``.  For
        counting protocols this is typically a vector of ones.
    seed:
        Root seed for all randomness (peer selection, sketch identifiers,
        failures).  Identical seeds give identical runs.
    mode:
        ``"push"`` (message gossip) or ``"exchange"`` (pairwise push/pull).
        ``"exchange"`` requires the protocol to implement
        :class:`~repro.simulator.protocol.ExchangeProtocol`.
    events:
        Scheduled events; each must expose a ``round`` attribute and an
        ``apply(simulation, round_index)`` method (see :mod:`repro.failures`).
    network:
        A :class:`~repro.network.NetworkModel` deciding the fate of every
        non-self message (loss or delay), or ``None`` (the
        default) for the original instant-and-reliable delivery.  All
        network randomness comes from the dedicated ``"network"`` stream,
        so installing a model never perturbs peer selection or protocol
        draws.  Latency-capable models require ``mode="push"``.
    group_relative:
        Compute each host's error against its *group's* aggregate rather than
        the global aggregate.  Requires an environment that provides groups
        (trace and neighbourhood environments); this is the error definition
        used for Fig 11.
    store_estimates:
        Retain every host's estimate in every round record (memory-hungry;
        intended for small runs and debugging).
    probe:
        A :class:`repro.obs.Probe` receiving round/phase spans, membership
        and mass-check events, and per-round delivery counters; defaults
        to the zero-cost :data:`repro.obs.NULL_PROBE`.

    Examples
    --------
    >>> from repro.core import PushSumRevert
    >>> from repro.environments import UniformEnvironment
    >>> sim = Simulation(PushSumRevert(reversion=0.0), UniformEnvironment(64),
    ...                  values=[1.0] * 32 + [3.0] * 32, seed=3, mode="exchange")
    >>> result = sim.run(rounds=25)
    >>> round(result.final_truth(), 3)
    2.0
    """

    #: Whether this engine can realise an exchange across a delivery delay.
    #: The round loop cannot (an atomic push/pull has no "later"), so it
    #: rejects latency-capable models in exchange mode up front; the event
    #: engine (:class:`repro.events.EventSimulation`) defers exchanges as
    #: request/reply events and overrides this to lift the rejection.
    _defers_exchange = False

    def __init__(
        self,
        protocol: AggregationProtocol,
        environment,
        values: Sequence[float],
        *,
        seed: int = 0,
        mode: str = "push",
        events: Optional[Iterable] = None,
        network=None,
        group_relative: bool = False,
        store_estimates: bool = False,
        probe=None,
    ):
        if mode not in ("push", "exchange"):
            raise ValueError(f"unknown mode {mode!r}; expected 'push' or 'exchange'")
        if (
            network is not None
            and mode == "exchange"
            and getattr(network, "has_latency", False)
            and not self._defers_exchange
        ):
            raise ValueError(
                f"network model {getattr(network, 'name', type(network).__name__)!r} can delay "
                "delivery, but mode='exchange' performs atomic push/pull exchanges that the "
                "round engine cannot defer; use the event engine (engine='events'), "
                "mode='push', or a loss-only network model"
            )
        if mode == "exchange" and not (
            isinstance(protocol, ExchangeProtocol)
            and getattr(protocol, "supports_exchange", True)
        ):
            raise TypeError(
                f"{type(protocol).__name__} does not support push/pull exchanges; "
                "use mode='push'"
            )
        if group_relative and not getattr(environment, "provides_groups", False):
            raise ValueError(
                "group_relative=True requires an environment that defines groups "
                "(trace or neighbourhood environments)"
            )
        self.protocol = protocol
        self.environment = environment
        self.mode = mode
        self.streams = RandomStreams(seed)
        self.events = sorted(events or [], key=lambda event: event.round)
        self.group_relative = group_relative
        self.store_estimates = store_estimates
        #: Instrumentation sink (repro.obs).  Probes only observe — they
        #: never draw from an RNG stream — so any probe leaves the run
        #: bit-identical to the NULL_PROBE default.
        self.probe = probe if probe is not None else NULL_PROBE
        self.network = network
        #: Cumulative delivery accounting, the kernels' contract (DESIGN.md
        #: §13): a record carries the change since the previous record.
        self.messages_delivered = 0
        self.messages_lost = 0
        self.bytes_sent = 0
        self._counters = [0, 0, 0]  # delivered, lost, bytes at the last record
        #: Cumulative conserved mass the protocol and membership events created (+)
        #: or destroyed (−), and that lost messages took out (:meth:`mass_view`).
        self.mass_injected = 0.0
        self.mass_lost = 0.0
        self.mass_ledger = MassLedger()
        self._in_flight = DeliveryQueue()
        self._network_rng = self.streams.get("network") if network is not None else None
        self.hosts: Dict[int, Host] = {}
        self.round_index = 0
        self._next_host_id = 0
        self._init_rng = self.streams.get("init")
        self._peer_rng = self.streams.get("peers")
        self._protocol_rng = self.streams.get("protocol")
        for value in values:
            self.add_host(float(value), round_index=0)
        #: Mass at every host state as of the last recount; each round opens on it.
        self._state_mass = 0.0
        self._open_books()
        # Only an overridden begin_round does anything, and so can mint mass
        # (epoch restarts do); the round skips the no-op's per-host calls.
        self._begin_round_mints = (
            getattr(protocol.begin_round, "__func__", None) is not AggregationProtocol.begin_round
        )
        metadata = {
            "mode": mode,
            "environment": type(environment).__name__,
            "n_initial": len(self.hosts),
            "protocol_params": protocol.describe(),
        }
        if network is not None:
            metadata["network"] = network.describe()
        self.result = SimulationResult(
            protocol_name=protocol.name,
            aggregate=protocol.aggregate,
            seed=self.streams.seed,
            metadata=metadata,
        )

    # ----------------------------------------------------------- population
    def add_host(self, value: float, round_index: Optional[int] = None) -> Host:
        """Create a new live host with ``value`` and protocol state."""
        if round_index is None:
            round_index = self.round_index
        host_id = self._next_host_id
        self._next_host_id += 1
        host = Host(host_id=host_id, value=value, joined_round=round_index)
        host.state = self.protocol.create_state(host_id, value, self._init_rng)
        self.hosts[host_id] = host
        if hasattr(self.environment, "register_host"):
            self.environment.register_host(host_id)
        if self.probe.enabled and round_index > 0:
            self.probe.event("membership", action="join", host=host_id, round=round_index)
        return host

    def fail_host(self, host_id: int, round_index: Optional[int] = None) -> None:
        """Silently fail ``host_id`` (it stops sending, receiving and counting)."""
        if round_index is None:
            round_index = self.round_index
        self.hosts[host_id].fail(round_index)
        if self.probe.enabled:
            self.probe.event("membership", action="fail", host=host_id, round=round_index)

    def alive_ids(self) -> List[int]:
        """Identifiers of live hosts in ascending order."""
        return [host.host_id for host in self.hosts.values() if host.alive]

    # ----------------------------------------------------------------- truth
    def _truth_for(self, host_ids: Sequence[int]) -> float:
        """Correct aggregate over ``host_ids`` for the protocol's aggregate kind."""
        if not host_ids:
            return float("nan")
        kind = self.protocol.aggregate
        if kind == "count":
            return float(len(host_ids))
        values = [self.hosts[host_id].value for host_id in host_ids]
        if kind == "sum":
            return float(sum(values))
        if kind == "average":
            return float(sum(values) / len(values))
        if kind == "max":
            return float(max(values))
        if kind == "min":
            return float(min(values))
        raise ValueError(f"unknown aggregate kind {kind!r}")

    # ------------------------------------------------------------------ run
    def run(self, rounds: int) -> SimulationResult:
        """Execute ``rounds`` additional rounds and return the result so far."""
        for _ in range(rounds):
            self.step()
        return self.result

    def step(self) -> RoundRecord:
        """Execute exactly one gossip round and return its record."""
        t = self.round_index
        probe = self.probe
        with probe.span("round", round=t):
            # Nothing runs between rounds, so the last round's closing recount
            # still stands; the two recounts below run only when something
            # could have minted mass since (DESIGN.md §8).
            with probe.span("events"):
                fired = self._apply_events(t)
            if self._track_mass and fired:
                # Events may mint mass (joins) or drop it (graceful departures
                # with no survivor); both are deliberate, not leaks.
                self._record_mass_injection()
            alive = self.alive_ids()
            alive_set = LiveRoster(alive)
            hosts, protocol_rng = self.hosts, self._protocol_rng
            states = [hosts[host_id].state for host_id in alive]

            with probe.span("begin_round"):
                if self._begin_round_mints:
                    begin_round = self.protocol.begin_round
                    for state in states:
                        begin_round(state, t, protocol_rng)
            if self._track_mass and self._begin_round_mints:
                # Epoch restarts re-mint mass inside begin_round by design.
                self._record_mass_injection()

            if self.mode == "push":
                with probe.span("push"):
                    received_counts = self._push_round(alive, alive_set, states, t)
            else:
                with probe.span("exchange"):
                    received_counts = self._exchange_round(alive, alive_set, t)
            if self._track_mass:
                # The round body may only move mass (host→flight→host) or lose
                # it through the network — both already on the ledger — so the
                # books must balance before the protocol's own finalize step.
                # Always a fresh recount: a running total fed by the books'
                # own entries would balance by construction.
                self._state_mass = self._total_state_mass()
                self.mass_ledger.check(self.mass_view(), round_index=t)

            with probe.span("finalize"):
                finalize_round = self.protocol.finalize_round
                for state, received in zip(states, received_counts):
                    finalize_round(state, received, protocol_rng)
            if self._track_mass:
                # Reversion injects mass towards each initial value by design.
                self._record_mass_injection()

            with probe.span("record"):
                record = self._record_round(alive, t)
            self.round_index += 1
        self.result.append(record, probe, self.mass_view())
        return record

    # ------------------------------------------------------ mass conservation
    #: Payloads that arrived but are not yet integrated (the event engine's inboxes).
    _inbox_mass = 0.0

    def mass_view(self) -> Optional[MassView]:
        """``(at_hosts, in_flight, injected, lost)``, the kernels' contract (DESIGN.md §8):
        every host's state mass as of the last recount (current between rounds) plus
        what waits in inboxes, and what the delivery queue carries; ``None`` for a
        protocol without a conserved mass."""
        if not self._track_mass:
            return None
        at_hosts = self._state_mass + self._inbox_mass
        return at_hosts, self._in_flight.in_flight_mass, self.mass_injected, self.mass_lost

    def _open_books(self) -> None:
        """Keep books exactly when the protocol has a conserved quantity;
        the ledger opens on the first view."""
        self._track_mass = False
        if self.hosts:
            probe = next(iter(self.hosts.values()))
            if self.protocol.state_mass(probe.state) is not None:
                self._track_mass = True
                self._state_mass = self._total_state_mass()
                self.mass_ledger.open(self.mass_view())

    def _total_state_mass(self) -> float:
        """Conserved mass at every host — including the mass stranded at
        silently departed hosts, which stays in their frozen state."""
        state_mass = self.protocol.state_mass
        total = 0.0
        for host in self.hosts.values():
            total += state_mass(host.state) or 0.0
        return total

    def _record_mass_injection(self) -> None:
        """Recount the mass at hosts and book its change since the last recount
        as deliberate injection (events, epoch restarts, reversion)."""
        total = self._total_state_mass()
        self.mass_injected += total - self._state_mass
        self._state_mass = total

    def _record_lost_message(self, mass: Optional[float]) -> None:
        """Account one lost message (and its conserved mass, if any)."""
        self.messages_lost += 1
        if self._track_mass and mass is not None:
            self.mass_lost += mass

    # ----------------------------------------------------------- round bodies
    def _push_round(
        self,
        alive: List[int],
        alive_set: LiveRoster,
        states: List,
        t: int,
    ) -> List[int]:
        """Round ``t``'s message gossip; each live host's received count, in ``alive`` order.

        Three passes (DESIGN.md §8 "One network call per push round"):
        collect every host's sends in host order; plan the radio sends to
        live hosts in one ``network.plan_many`` call; then land, lose or
        defer each send in send order.  An inbox holds the matured messages
        first, then this round's arrivals in ascending sender id (the host's
        own self-message at its own id), and lost mass is booked in send order.
        """
        protocol, network = self.protocol, self.network
        inboxes: Dict[int, List] = {host_id: [] for host_id in alive}
        delivered = 0
        record_lost, payload_mass = self._record_lost_message, protocol.payload_mass
        if network is not None:
            # Deliver the in-flight messages that mature this round before
            # this round's sends, so their payloads integrate alongside them.
            for item in self._in_flight.due(t):
                if item.destination in alive_set:
                    inboxes[item.destination].append(item.payload)
                    delivered += 1
                else:
                    # Matured at a host that has since departed: lost, just
                    # like a same-round send to a failed host.
                    record_lost(item.mass)
        make_payloads, payload_size = protocol.make_payloads, protocol.payload_size
        protocol_rng = self._protocol_rng
        peers_by_host = self.environment.select_peers_round(
            alive, alive_set, t, protocol.fanout, self._peer_rng
        )
        # Pass 1: every host's sends, in host order, flattened (a round keeps
        # no per-host outbox alive), and the radio sends to live hosts among
        # them.  Self-messages never touch the radio: they cost no bytes, and
        # the network model cannot lose or delay them.
        senders: List[int] = []
        targets: List[int] = []
        payloads: List = []
        radio = []
        bytes_sent = 0
        for host_id, state, peers in zip(alive, states, peers_by_host):
            for target, payload in make_payloads(state, peers, protocol_rng):
                if target is None or target == host_id:
                    target = host_id
                else:
                    bytes_sent += payload_size(payload)
                    if target in alive_set:
                        radio.append((host_id, target))
                senders.append(host_id)
                targets.append(target)
                payloads.append(payload)
        self.bytes_sent += bytes_sent
        # Pass 2: one network decision per radio send to a live host.
        decisions = None
        if network is not None:
            decisions = iter(network.plan_many(radio, t, self._network_rng))
        del radio
        # Pass 3: land, lose or defer each send, in send order.
        schedule = self._in_flight.schedule
        for host_id, target, payload in zip(senders, targets, payloads):
            if target == host_id:
                inboxes[host_id].append(payload)
                continue
            if target not in alive_set:
                # Payloads addressed to failed hosts are silently lost: this
                # is exactly the mass-leaves-the-system behaviour of a silent
                # departure mid-computation.
                delay = None
            elif decisions is None:
                delay = 0
            else:
                delay = next(decisions)
            if delay == 0:
                inboxes[target].append(payload)
                delivered += 1
            elif delay is None:
                record_lost(payload_mass(payload))
            else:
                schedule(
                    InFlightMessage(
                        source=host_id,
                        destination=target,
                        payload=payload,
                        sent_round=t,
                        deliver_round=t + int(delay),
                        mass=payload_mass(payload),
                    )
                )
        self.messages_delivered += delivered
        integrate = protocol.integrate
        received_counts = []
        for state, host_id in zip(states, alive):
            inbox = inboxes[host_id]
            received_counts.append(len(inbox))
            integrate(state, inbox, protocol_rng)
        return received_counts

    def _exchange_round(self, alive: List[int], alive_set: LiveRoster, t: int) -> List[int]:
        """Round ``t``'s pairwise exchanges; each live host's received count, in ``alive`` order.

        Each pair's link is planned with its own :meth:`NetworkModel.plan`
        call, in shuffled initiator order (DESIGN.md §8).
        """
        hosts, protocol, network = self.hosts, self.protocol, self.network
        exchange, exchange_size = protocol.exchange, protocol.exchange_size
        protocol_rng, network_rng = self._protocol_rng, self._network_rng
        received_counts = dict.fromkeys(alive, 0)
        order = list(alive)
        self._peer_rng.shuffle(order)
        peers_by_host = self.environment.select_peers_round(order, alive_set, t, 1, self._peer_rng)
        for host_id, peers in zip(order, peers_by_host):
            if not peers:
                continue
            peer_id = peers[0]
            if peer_id == host_id or peer_id not in alive_set:
                continue
            state_a = hosts[host_id].state
            state_b = hosts[peer_id].state
            size = exchange_size(state_a, state_b)
            if network is not None:
                delay = network.plan(host_id, peer_id, t, network_rng)
                if delay is None:
                    # A lossy link makes the atomic exchange not happen at
                    # all (both directions; mass is never at risk in
                    # exchange mode — see DESIGN.md §8).  The initiator's
                    # transmitted half still cost radio bytes, as a lost
                    # push payload does.
                    self.messages_lost += 2
                    self.bytes_sent += size
                    continue
                if delay:
                    raise RuntimeError(  # pragma: no cover - rejected eagerly
                        f"network model {network.name!r} returned a delivery delay of "
                        f"{delay} rounds, but atomic push/pull exchanges cannot be deferred"
                    )
            exchange(state_a, state_b, protocol_rng)
            self.messages_delivered += 2
            self.bytes_sent += 2 * size  # one message each way
            received_counts[host_id] += 1
            received_counts[peer_id] += 1
        return list(received_counts.values())

    # --------------------------------------------------------------- metrics
    def delivery_counters(self) -> Tuple[int, int, int, int]:
        """``(delivered, lost, bytes_sent)`` so far, and the ``in_flight`` backlog now."""
        return (
            self.messages_delivered,
            self.messages_lost,
            self.bytes_sent,
            self._in_flight.in_flight,
        )

    def _record_round(self, alive: List[int], t: int, time: Optional[float] = None) -> RoundRecord:
        """Round ``t``'s record, scored by :func:`~repro.metrics.accuracy.error_statistics`.

        Group-relative runs score each host against its own group's truth
        (``environment.groups`` partitions the live hosts, so each has one).
        """
        estimate, hosts = self.protocol.estimate, self.hosts
        estimates = {host_id: float(estimate(hosts[host_id].state)) for host_id in alive}
        mean_group_size: Optional[float] = None
        if self.group_relative:
            truth_by_host: Dict[int, float] = {}
            sizes: List[int] = []
            for group in self.environment.groups(set(alive), t):
                members = [host_id for host_id in group if host_id in estimates]
                if not members:
                    continue
                group_truth = self._truth_for(members)
                sizes.append(len(members))
                for member in members:
                    truth_by_host[member] = group_truth
            mean_group_size = float(np.mean(sizes)) if sizes else 0.0
            # The recorded scalar is the mean in group-insertion order; the
            # scorer sees the per-host truths in estimate order.
            truth = float(np.mean(list(truth_by_host.values()))) if truth_by_host else float("nan")
            truths = np.array([truth_by_host[host_id] for host_id in estimates], dtype=float)
        else:
            truths = truth = self._truth_for(alive)
        # The delivery deltas since the last record, as KernelRun.sample takes them.
        *counters, in_flight = self.delivery_counters()
        delivered, lost, bytes_sent = (now - was for now, was in zip(counters, self._counters))
        self._counters = counters
        return RoundRecord(
            round_index=t,
            truth=truth,
            n_alive=len(alive),
            **error_statistics(list(estimates.values()), truths)._asdict(),
            bytes_sent=bytes_sent,
            estimates=dict(estimates) if self.store_estimates else None,
            group_sizes=mean_group_size,
            messages_delivered=delivered,
            messages_lost=lost,
            messages_in_flight=in_flight,
            time=time,
        )

    # ---------------------------------------------------------------- events
    def _apply_events(self, t: int) -> bool:
        """Apply round ``t``'s scheduled events; whether any fired."""
        fired = False
        for event in self.events:
            if event.round == t:
                event.apply(self, t)
                fired = True
        return fired
